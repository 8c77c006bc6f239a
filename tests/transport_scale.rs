//! The reactor's headline claim, asserted: server-side thread count is
//! O(io_threads), not O(connections). 128 concurrent loopback sessions must
//! not add a single server transport thread beyond the fixed reactor pool —
//! the thread-per-connection transport this replaced would have spawned
//! 256 (a reader and a writer per session). The same holds through the
//! proxy, which runs on the same connection engine: acceptor + prober +
//! dialer + reactors, however many sessions it relays.

use amalgam::cloud::transport::TransportConfig;
use amalgam::cloud::CloudService;
use amalgam::prelude::*;
use amalgam::proxy::{AmalgamProxy, ProxyConfig};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Thread names of this process, read from /proc (Linux). Names are
/// truncated to 15 bytes by the kernel, which still separates every
/// `cloud-*` family this test cares about.
fn thread_names() -> Vec<String> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let comm = entry.expect("task entry").path().join("comm");
        if let Ok(name) = std::fs::read_to_string(comm) {
            names.push(name.trim().to_string());
        }
    }
    names
}

fn count_prefix(names: &[String], prefix: &str) -> usize {
    names.iter().filter(|n| n.starts_with(prefix)).count()
}

fn tiny_job() -> CloudJob {
    let mut rng = Rng::seed_from(70);
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
        train: TrainConfig::new(1, 4, 0.05).with_seed(1),
    }
}

/// Thread counts are process-wide: the two tests here take turns, so
/// neither counts the other's threads.
static SERIAL: Mutex<()> = Mutex::new(());

/// Polls `done` every 5 ms until it holds, panicking with `what` after 10 s.
fn await_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_hundred_and_twenty_eight_connections_run_on_a_fixed_thread_pool() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const CONNECTIONS: usize = 128;
    const IO_THREADS: usize = 2;
    const WORKERS: usize = 2;

    let service = CloudService::builder().workers(WORKERS).build();
    let config = TransportConfig::default()
        .io_threads(IO_THREADS)
        .max_connections(CONNECTIONS + 8);
    let server = CloudServer::bind_with(service, "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();

    // Open every session up front and hold them all live at once.
    let clients: Vec<RemoteCloudClient> = (0..CONNECTIONS)
        .map(|i| RemoteCloudClient::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();

    // Wait until the server has adopted all of them.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.session_count() < CONNECTIONS {
        assert!(
            std::time::Instant::now() < deadline,
            "only {}/{CONNECTIONS} sessions established",
            server.session_count()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let names = thread_names();
    // The old transport's per-connection threads must not exist at all.
    assert_eq!(
        count_prefix(&names, "cloud-session"),
        0,
        "per-connection session threads resurrected: {names:?}"
    );
    // The server side is exactly: the acceptor, the reactor pool, and the
    // service's worker pool — independent of the 128 open connections.
    assert_eq!(count_prefix(&names, "cloud-acceptor"), 1);
    assert_eq!(count_prefix(&names, "cloud-reactor"), IO_THREADS);
    let server_threads = count_prefix(&names, "cloud-acceptor")
        + count_prefix(&names, "cloud-reactor")
        + count_prefix(&names, "cloud-worker");
    assert!(
        server_threads <= IO_THREADS + WORKERS + 1,
        "server thread count scales with connections: {server_threads} threads ({names:?})"
    );

    // The sessions are real, not just sockets in a backlog: a sample of
    // them trains end-to-end with per-submission results routed back.
    let mut rng = Rng::seed_from(70);
    let model = amalgam::models::lenet5(1, 8, 2, &mut rng);
    let inputs = Tensor::randn(&[8, 1, 8, 8], &mut rng);
    let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
    let job = CloudJob {
        model: model.to_bytes(),
        task: TaskPayload::Classification {
            inputs,
            labels,
            val_inputs: None,
            val_labels: vec![],
        },
        train: TrainConfig::new(1, 4, 0.05).with_seed(1),
    };
    let handles: Vec<_> = clients
        .iter()
        .step_by(16)
        .map(|c| c.submit(&job).expect("submit"))
        .collect();
    for handle in handles {
        let id = handle.id();
        let result = handle.wait().expect("train over a pooled session");
        assert_eq!(result.job_id, id);
    }

    let stats = server.stats();
    assert_eq!(stats.connections_accepted as usize, CONNECTIONS);
    assert!(
        stats.reactor_registered_fds >= CONNECTIONS,
        "reactor gauge missed connections: {}",
        stats.reactor_registered_fds
    );
    assert!(stats.reactor_events > 0);

    for client in clients {
        client.close();
    }
    server.shutdown();
}

#[test]
fn a_hundred_and_twenty_eight_proxied_sessions_run_on_a_fixed_thread_pool() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const SESSIONS: usize = 128;
    const IO_THREADS: usize = 2;
    const CYCLES: usize = 256;

    let backends: Vec<CloudServer> = (0..2)
        .map(|_| {
            let service = CloudService::builder().workers(1).build();
            let config = TransportConfig::default().max_connections(SESSIONS + 8);
            CloudServer::bind_with(service, "127.0.0.1:0", config).expect("bind backend")
        })
        .collect();
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let transport = TransportConfig::default()
        .io_threads(IO_THREADS)
        .max_connections(SESSIONS + 8);
    let proxy = AmalgamProxy::bind(
        "127.0.0.1:0",
        &addrs,
        ProxyConfig::default().transport(transport),
    )
    .expect("bind proxy");

    let clients: Vec<RemoteCloudClient> = (0..SESSIONS)
        .map(|i| {
            RemoteCloudClient::connect(proxy.addr()).unwrap_or_else(|e| panic!("connect {i}: {e}"))
        })
        .collect();
    await_until("every proxied session", || {
        proxy.stats().connections_active == SESSIONS
    });

    let names = thread_names();
    // The thread-per-session relay this replaced must not exist at all.
    assert_eq!(count_prefix(&names, "proxy-session"), 0, "{names:?}");
    assert_eq!(count_prefix(&names, "proxy-backend"), 0, "{names:?}");
    // The proxy is exactly: acceptor, prober, dialer and its reactors.
    assert_eq!(count_prefix(&names, "proxy-acceptor"), 1);
    assert_eq!(count_prefix(&names, "proxy-prober"), 1);
    assert_eq!(count_prefix(&names, "proxy-dialer"), 1);
    assert_eq!(count_prefix(&names, "proxy-reactor"), IO_THREADS);
    assert_eq!(
        count_prefix(&names, "proxy-"),
        3 + IO_THREADS,
        "proxy thread count scales with sessions: {names:?}"
    );

    // A sample of the sessions trains end to end, each result carrying its
    // own request id back through the relay.
    let job = tiny_job();
    let handles: Vec<_> = clients
        .iter()
        .step_by(16)
        .map(|c| c.submit(&job).expect("submit via proxy"))
        .collect();
    for handle in handles {
        let id = handle.id();
        let result = handle.wait().expect("train through a proxied session");
        assert_eq!(result.job_id, id);
    }
    for client in clients {
        client.close();
    }

    // Session churn costs no threads: open/close cycles leave the server-
    // side thread set exactly as it was, and every session slot — at the
    // proxy and behind it — comes back.
    let server_threads = || {
        let mut names: Vec<String> = thread_names()
            .into_iter()
            .filter(|n| {
                n.starts_with("proxy-") || n.starts_with("cloud-") && !n.starts_with("cloud-remote")
            })
            .collect();
        names.sort();
        names
    };
    let before = server_threads();
    for i in 0..CYCLES {
        RemoteCloudClient::connect(proxy.addr())
            .unwrap_or_else(|e| panic!("cycle {i}: {e}"))
            .close();
    }
    assert_eq!(
        server_threads(),
        before,
        "session churn changed the thread set"
    );
    await_until("the proxy's sessions to close", || {
        proxy.stats().connections_active == 0
    });
    for backend in &backends {
        await_until("the backend links to close", || {
            backend.session_count() == 0
        });
    }

    proxy.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}
