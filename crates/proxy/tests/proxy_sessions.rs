//! Session lifetime through the front door: the proxy enforces the same
//! idle timeout a `CloudServer` does, a session's backend link lives and
//! dies with its client connection, and one backend's handshake never
//! holds up another's.

use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use amalgam_cloud::transport::{
    read_frame_blocking, write_frame, Frame, FrameOrigin, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use amalgam_cloud::{
    BackendHealth, CloudJob, CloudServer, CloudService, RemoteCloudClient, TaskPayload,
    TransportConfig,
};
use amalgam_core::TrainConfig;
use amalgam_proxy::{AmalgamProxy, Fault, FaultInjector, HashRing, ProxyConfig};
use amalgam_tensor::{Rng, Tensor};

fn tiny_job(seed: u64) -> CloudJob {
    let mut rng = Rng::seed_from(70 + seed);
    let model = amalgam_models::lenet5(1, 8, 2, &mut rng);
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

/// A client that handshakes and then says nothing must not hold a proxy
/// session — or, through it, a backend session — past the idle timeout.
#[test]
fn a_silent_client_loses_its_session_and_its_backend_link() {
    let service = CloudService::builder().workers(1).build();
    let backend = CloudServer::bind(service, "127.0.0.1:0").expect("bind backend");
    let config = ProxyConfig::default()
        .transport(TransportConfig::default().idle_timeout(Duration::from_millis(300)));
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &[backend.local_addr().to_string()], config)
        .expect("bind proxy");

    let mut client = TcpStream::connect(proxy.addr()).expect("connect to proxy");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let hello = Frame::Hello {
        min_version: MIN_PROTOCOL_VERSION,
        max_version: PROTOCOL_VERSION,
        api_key: None,
    };
    write_frame(&mut client, &hello).expect("write Hello");
    let (welcome, _) = read_frame_blocking(&mut client, 1 << 20, FrameOrigin::Server)
        .expect("read handshake answer")
        .expect("proxy answered the Hello");
    assert!(matches!(welcome, Frame::Welcome { .. }), "{welcome:?}");
    assert_eq!(proxy.stats().connections_active, 1);

    // From here on the client is silent.
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let active = proxy.stats().connections_active;
        let linked = backend.session_count();
        if active == 0 && linked == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "2 s into the silence the proxy still holds {active} session(s) \
             and the backend {linked}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The proxy hung up on the client: EOF (or a reset), never a frame.
    let mut byte = [0u8; 1];
    assert_eq!(client.read(&mut byte).unwrap_or(0), 0);

    proxy.shutdown();
    backend.shutdown();
}

/// The converse: a live client that only pings keeps its session, and the
/// proxy's own keep-alive pings keep the backend link up under a backend
/// idle timeout shorter than the wait.
#[test]
fn a_pinging_client_keeps_its_session_and_its_backend_link() {
    let idle = TransportConfig::default()
        .idle_timeout(Duration::from_millis(300))
        .keepalive_interval(Duration::from_millis(100));
    let service = CloudService::builder().workers(1).build();
    let backend =
        CloudServer::bind_with(service, "127.0.0.1:0", idle.clone()).expect("bind backend");
    let proxy = AmalgamProxy::bind(
        "127.0.0.1:0",
        &[backend.local_addr().to_string()],
        ProxyConfig::default().transport(idle.clone()),
    )
    .expect("bind proxy");
    let client = RemoteCloudClient::connect_with(proxy.addr(), idle).expect("connect via proxy");

    std::thread::sleep(Duration::from_secs(1));
    let result = client.train(&tiny_job(1)).expect("train after idling");
    assert!(!result.trained_model.is_empty());
    let stats = proxy.stats();
    assert_eq!(stats.connections_active, 1);
    assert_eq!(
        stats.failovers, 0,
        "the backend link never dropped: {stats:?}"
    );

    client.close();
    proxy.shutdown();
    backend.shutdown();
}

/// Pins each training batch to a fixed floor, so a job outlasts the idle
/// timeout under test.
struct SlowBatches(Duration);

impl amalgam_cloud::CloudObserver for SlowBatches {
    fn on_model(&mut self, _model: &amalgam_nn::graph::GraphModel) {}

    fn on_batch(&mut self, _inputs: &Tensor, _labels: &[usize]) {
        std::thread::sleep(self.0);
    }
}

/// A client that submits a job and then stays silent past the idle timeout
/// still gets its reply, as it would talking to the backend directly: the
/// idle timeout drains the client connection, and draining waits for the
/// replies the session owes.
#[test]
fn a_silent_client_waiting_on_a_job_still_gets_its_reply() {
    let service = CloudService::builder()
        .workers(1)
        .observer(Arc::new(parking_lot::Mutex::new(SlowBatches(
            Duration::from_millis(400),
        ))))
        .build();
    let backend = CloudServer::bind(service, "127.0.0.1:0").expect("bind backend");
    let expected = backend
        .local_client()
        .train(&tiny_job(3))
        .expect("local train")
        .trained_model;
    let idle = TransportConfig::default().idle_timeout(Duration::from_millis(300));
    let proxy = AmalgamProxy::bind(
        "127.0.0.1:0",
        &[backend.local_addr().to_string()],
        ProxyConfig::default().transport(idle),
    )
    .expect("bind proxy");

    // The client's own keep-alive (10 s by default) stays quiet throughout.
    let client = RemoteCloudClient::connect(proxy.addr()).expect("connect via proxy");
    let result = client
        .submit(&tiny_job(3))
        .expect("submit")
        .wait_timeout(Duration::from_secs(30))
        .expect("no reply within 30 s")
        .expect("the reply survived the idle timeout");
    assert_eq!(result.trained_model, expected);

    // Then the drained session closes, and its backend link with it.
    let deadline = Instant::now() + Duration::from_secs(2);
    while proxy.stats().connections_active > 0 || backend.session_count() > 0 {
        assert!(
            Instant::now() < deadline,
            "the drained session never closed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    client.close();
    proxy.shutdown();
    backend.shutdown();
}

/// A backend that accepts TCP but never answers the `Hello` (a black hole)
/// costs only the sessions homed on it a handshake timeout, after which
/// they fail over. Dialed handshakes run side by side, so links to a
/// healthy backend never sit unanswered behind the black hole's until that
/// backend's own handshake deadline closes them — it is never ejected, and
/// every session trains.
#[test]
fn a_black_holed_backend_never_gets_a_healthy_one_ejected() {
    const PER_BACKEND: usize = 6;
    // Backends drop a silent opener after 200 ms; the proxy waits 1 s for a
    // backend's Welcome.
    let quick = TransportConfig::default().handshake_timeout(Duration::from_millis(200));
    let mut servers = Vec::new();
    let mut injectors = Vec::new();
    for _ in 0..2 {
        let service = CloudService::builder().workers(1).build();
        let server =
            CloudServer::bind_with(service, "127.0.0.1:0", quick.clone()).expect("bind backend");
        injectors.push(FaultInjector::spawn(server.local_addr()).expect("spawn injector"));
        servers.push(server);
    }
    let addrs: Vec<String> = injectors.iter().map(|i| i.addr().to_string()).collect();
    let config = ProxyConfig::default()
        .transport(TransportConfig::default().handshake_timeout(Duration::from_secs(1)))
        // Probe successes would reset the healthy backend's failure count;
        // keep the prober out of the way so only the data path judges.
        .probe_interval(Duration::from_secs(60));
    let vnodes = config.vnodes;
    let proxy = AmalgamProxy::bind("127.0.0.1:0", &addrs, config).expect("bind proxy");
    let (dark, lit) = (0, 1);
    injectors[dark].set_fault(Fault::BlackHole);

    let ring = HashRing::new(&addrs, vnodes);
    let tenants = |home: usize| -> Vec<String> {
        (0..)
            .map(|i| format!("tenant-{i}"))
            .filter(|key| ring.route(key) == addrs[home])
            .take(PER_BACKEND)
            .collect()
    };
    // Sessions for both backends arrive interleaved, 20 ms apart.
    let proxy_addr = proxy.addr();
    let mut sessions = Vec::new();
    for (dark_key, lit_key) in tenants(dark).into_iter().zip(tenants(lit)) {
        for key in [dark_key, lit_key] {
            sessions.push(std::thread::spawn(move || {
                let config = TransportConfig::default().api_key(key.clone());
                let client = RemoteCloudClient::connect_with(proxy_addr, config)
                    .unwrap_or_else(|e| panic!("{key} could not connect: {e}"));
                let result = client
                    .train(&tiny_job(1))
                    .unwrap_or_else(|e| panic!("{key} could not train: {e}"));
                client.close();
                result.trained_model
            }));
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    for session in sessions {
        assert!(!session.join().expect("session thread").is_empty());
    }

    let stats = proxy.stats();
    let row = |i: usize| {
        stats
            .backends
            .iter()
            .find(|b| b.addr == addrs[i])
            .expect("backend row present")
    };
    assert_eq!(
        (row(lit).ejections, row(lit).health),
        (0, BackendHealth::Closed),
        "the healthy backend was ejected: {stats:?}"
    );
    assert!(
        row(dark).ejections >= 1,
        "timed-out handshakes must eject the black hole: {stats:?}"
    );

    proxy.shutdown();
    for (injector, server) in injectors.into_iter().zip(servers) {
        injector.shutdown();
        server.shutdown();
    }
}
