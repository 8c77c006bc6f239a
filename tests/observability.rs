//! End-to-end proof of the telemetry plane: one remote job submitted
//! through the full topology — `RemoteCloudClient` → `AmalgamProxy` →
//! `CloudServer` — must leave a *single* trace id findable in all three
//! tiers' flight recorders, with each tier's spans telling a consistent
//! nesting story (the client's round trip contains the proxy's backend
//! round trip, which contains the backend's queue wait and training).
//! On top of the trace, both export paths must serve real quantiles: the
//! `GetStats` admin frame over the job wire, and the Prometheus text
//! endpoint over plain HTTP.

use amalgam::cloud::{Stage, TraceId};
use amalgam::prelude::*;
use amalgam::proxy::{AmalgamProxy, ProxyConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn tiny_job(seed: u64) -> CloudJob {
    let mut rng = Rng::seed_from(70 + seed);
    let model = amalgam::models::lenet5(1, 8, 2, &mut rng);
    let inputs = Tensor::randn(&[8, 1, 8, 8], &mut rng);
    let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
    CloudJob {
        model: model.to_bytes(),
        task: TaskPayload::Classification {
            inputs,
            labels,
            val_inputs: None,
            val_labels: vec![],
        },
        train: TrainConfig::new(1, 4, 0.05).with_seed(seed),
    }
}

/// One job through client → proxy → backend: the same trace id must be
/// findable in all three flight recorders, with per-stage spans at each
/// tier and the intervals nested client ⊇ proxy ⊇ backend.
#[test]
fn one_trace_id_spans_client_proxy_and_backend() {
    let service = CloudService::builder().workers(1).build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind backend");
    let backend_addr = server.local_addr().to_string();
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &[backend_addr], ProxyConfig::default())
        .expect("bind proxy");

    let client = RemoteCloudClient::connect(proxy.addr()).expect("connect via proxy");
    let result = client
        .submit(&tiny_job(1))
        .expect("submit")
        .wait()
        .expect("train via proxy");
    assert!(result.bytes_received > 0);

    // The client minted the trace: pull it out of its own recorder.
    let recent = client.telemetry().recorder().recent();
    assert_eq!(recent.len(), 1, "one job, one client-side trace record");
    let record = &recent[0];
    let trace = record.trace;
    assert!(!trace.is_none(), "client must mint a real trace id");
    assert!(record.ok);
    let rpc = record
        .spans
        .iter()
        .find(|s| s.stage == Stage::Rpc)
        .expect("client records the submit-to-reply span");

    // Same id at the proxy, wrapped around the backend round trip.
    let at_proxy = proxy
        .telemetry()
        .recorder()
        .find(trace)
        .expect("proxy recorder holds the same trace id");
    assert!(at_proxy.ok);
    let backend_rtt = at_proxy
        .spans
        .iter()
        .find(|s| s.stage == Stage::BackendRtt)
        .expect("proxy records the backend round trip");
    assert!(
        rpc.dur_us >= backend_rtt.dur_us,
        "client RTT {}µs must contain the proxy's backend RTT {}µs",
        rpc.dur_us,
        backend_rtt.dur_us
    );

    // Same id at the backend, with the innermost per-stage story.
    let at_backend = server
        .telemetry()
        .recorder()
        .find(trace)
        .expect("backend recorder holds the same trace id");
    assert!(at_backend.ok);
    let stage_of = |want: Stage| at_backend.spans.iter().find(|s| s.stage == want);
    let queue = stage_of(Stage::QueueWait).expect("backend times queue wait");
    let train = stage_of(Stage::Train).expect("backend times training");
    assert!(
        queue.start_us <= train.start_us,
        "queue wait starts before training"
    );
    for span in &at_backend.spans {
        assert!(span.ok, "every backend stage succeeded: {span:?}");
        assert!(
            span.start_us + span.dur_us <= at_backend.total_us + 1,
            "span {span:?} escapes the job's total {}µs",
            at_backend.total_us
        );
    }
    assert!(
        backend_rtt.dur_us >= train.dur_us,
        "proxy's backend RTT {}µs must contain training {}µs",
        backend_rtt.dur_us,
        train.dur_us
    );

    // A second job reuses nothing: distinct ids, no collisions.
    client
        .submit(&tiny_job(2))
        .expect("submit second")
        .wait()
        .expect("train second");
    let traces: Vec<TraceId> = client
        .telemetry()
        .recorder()
        .recent()
        .iter()
        .map(|t| t.trace)
        .collect();
    assert_eq!(traces.len(), 2);
    assert_ne!(traces[0], traces[1], "each submit mints a fresh trace id");
    // The counters' accounting laws hold at both tiers once traffic stops.
    for stats in [server.stats(), proxy.stats()] {
        assert_eq!(
            stats.conservation_violations(),
            Vec::<String>::new(),
            "{stats}"
        );
    }

    drop(client);
    proxy.shutdown();
    server.shutdown();
}

/// The `GetStats` admin frame works at both tiers: asked through the
/// proxy it answers with the routing-tier snapshot (backend RTT
/// quantiles, per-backend health); asked directly it answers with the
/// backend's per-stage histograms.
#[test]
fn get_stats_frame_returns_quantiles_at_both_tiers() {
    let service = CloudService::builder().workers(1).build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind backend");
    let backend_addr = server.local_addr().to_string();
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &[backend_addr], ProxyConfig::default())
        .expect("bind proxy");

    let via_proxy = RemoteCloudClient::connect(proxy.addr()).expect("connect via proxy");
    via_proxy
        .submit(&tiny_job(3))
        .expect("submit")
        .wait()
        .expect("train");

    // Through the proxy: the routing tier intercepts and answers with its
    // own view — the backend round trip it measured.
    let proxy_stats = via_proxy.fetch_stats().expect("stats via proxy");
    let rtt = proxy_stats
        .hist(Stage::BackendRtt)
        .expect("proxy snapshot carries backend RTT");
    assert!(rtt.count >= 1);
    assert!(rtt.quantile(0.50) <= rtt.quantile(0.99));
    assert_eq!(proxy_stats.backends.len(), 1, "one backend registered");

    // Straight at the backend: the per-stage middleware histograms.
    let direct = RemoteCloudClient::connect(server.local_addr()).expect("connect direct");
    let stats = direct.fetch_stats().expect("stats direct");
    for stage in [Stage::QueueWait, Stage::Train] {
        let hist = stats
            .hist(stage)
            .unwrap_or_else(|| panic!("backend snapshot missing {stage}"));
        assert!(hist.count >= 1, "{stage} histogram must have samples");
        assert!(hist.quantile(0.99) >= hist.quantile(0.50));
        assert!(hist.max >= hist.quantile(0.99));
    }
    assert!(stats.jobs_completed >= 1);

    // The client-side table renders the same numbers (smoke, not golden).
    let shown = format!("{stats}");
    assert!(
        shown.contains("queue_wait"),
        "Display table lists stages:\n{shown}"
    );
    let client_stats = direct.stats();
    let shown = format!("{client_stats}");
    assert!(
        shown.contains("rpc rtt"),
        "ClientStats table shows RTT:\n{shown}"
    );
    // The counters' accounting laws hold at both tiers once traffic stops.
    for stats in [server.stats(), proxy.stats()] {
        assert_eq!(
            stats.conservation_violations(),
            Vec::<String>::new(),
            "{stats}"
        );
    }

    drop(via_proxy);
    drop(direct);
    proxy.shutdown();
    server.shutdown();
}

/// The Prometheus endpoint rides the existing reactor: a plain-HTTP GET
/// against [`CloudServer::metrics_addr`] must return the text exposition
/// format with per-stage quantile series for at least queue wait and
/// training.
#[test]
fn prometheus_exporter_serves_stage_quantiles() {
    let service = CloudService::builder()
        .workers(1)
        .metrics_exporter("127.0.0.1:0".parse().unwrap())
        .build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind backend");
    let scrape_addr = server.metrics_addr().expect("exporter bound");

    let client = RemoteCloudClient::connect(server.local_addr()).expect("connect");
    client
        .submit(&tiny_job(4))
        .expect("submit")
        .wait()
        .expect("train");

    let mut sock = TcpStream::connect(scrape_addr).expect("dial exporter");
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    sock.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .expect("send scrape");
    let mut response = String::new();
    sock.read_to_string(&mut response).expect("read scrape");

    assert!(
        response.starts_with("HTTP/1.0 200 OK"),
        "exporter must answer 200:\n{response}"
    );
    assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .expect("response carries a body");
    assert!(
        body.contains("amalgam_jobs_completed_total 1"),
        "body:\n{body}"
    );
    for stage in ["queue_wait", "train"] {
        for q in ["0.5", "0.95", "0.99"] {
            let series =
                format!("amalgam_latency_microseconds{{stage=\"{stage}\",quantile=\"{q}\"}}");
            assert!(body.contains(&series), "missing {series} in body:\n{body}");
        }
        let count = format!("amalgam_latency_microseconds_count{{stage=\"{stage}\"}}");
        assert!(body.contains(&count), "missing {count} in body:\n{body}");
    }

    // A second scrape on a fresh connection works (no keep-alive state).
    let mut sock = TcpStream::connect(scrape_addr).expect("re-dial exporter");
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut again = String::new();
    sock.read_to_string(&mut again).expect("read second scrape");
    assert!(again.starts_with("HTTP/1.0 200 OK"));
    let stats = server.stats();
    assert_eq!(
        stats.conservation_violations(),
        Vec::<String>::new(),
        "{stats}"
    );

    drop(client);
    server.shutdown();
}
