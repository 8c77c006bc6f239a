//! The system under test over loopback: `CloudServer` backends behind one
//! `AmalgamProxy`, reached by `RemoteCloudClient` sessions — plus the
//! snapshots of its own counters that every run is judged by.

use crate::stats::HistDelta;
use amalgam_cloud::{
    ClientStats, CloudServer, CloudService, RemoteCloudClient, ServiceStats, Stage, TransportConfig,
};
use amalgam_proxy::{AmalgamProxy, HashRing, ProxyConfig};
use std::time::Duration;

/// Each backend's result-cache bound. A cached obfuscated reply is ~1.4 MB
/// and a plain one ~0.4 MB: 16 MiB holds the cached workload's whole pool,
/// while on the training workloads (unique jobs, never a hit) it fills
/// within a few jobs, so memory plateaus instead of growing with the
/// number of jobs a run completes.
const CACHE_BYTES: usize = 16 << 20;

/// A running proxy → backends fleet with its client sessions.
pub struct Topology {
    pub backends: Vec<CloudServer>,
    pub proxy: AmalgamProxy,
    pub clients: Vec<RemoteCloudClient>,
}

impl Topology {
    /// Binds `backends` single-worker backends with result caches, the
    /// proxy in front of them, and `sessions` client sessions — session
    /// `s` homed on backend `s % backends`, so the routing is the same on
    /// every run.
    pub fn bind(backends: usize, sessions: usize) -> Result<Topology, String> {
        let servers: Vec<CloudServer> = (0..backends)
            .map(|_| {
                let service = CloudService::builder()
                    .workers(1)
                    .result_cache(CACHE_BYTES, Duration::from_secs(3600))
                    .build();
                CloudServer::bind(service, "127.0.0.1:0").map_err(|e| format!("bind backend: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let config = ProxyConfig::default();
        let ring = HashRing::new(&addrs, config.vnodes);
        let proxy = AmalgamProxy::bind("127.0.0.1:0", &addrs, config)
            .map_err(|e| format!("bind proxy: {e}"))?;
        let clients = (0..sessions)
            .map(|s| {
                // The session key is the routing key: pick the first one
                // the proxy's ring sends to this session's home backend.
                let home = &addrs[s % addrs.len()];
                let key = (0..)
                    .map(|i| format!("session-{s}-{i}"))
                    .find(|k| ring.route(k) == home)
                    .expect("some key routes to every backend");
                RemoteCloudClient::connect_with(
                    proxy.addr(),
                    TransportConfig::default().api_key(key),
                )
                .map_err(|e| format!("connect session {s}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Topology {
            backends: servers,
            proxy,
            clients,
        })
    }

    /// Every tier's own counters, now.
    pub fn counters(&self) -> Counters {
        Counters {
            backends: self.backends.iter().map(CloudServer::stats).collect(),
            proxy: self.proxy.stats(),
            clients: self.clients.iter().map(RemoteCloudClient::stats).collect(),
        }
    }

    /// Closes the sessions, then the proxy, then the backends, joining
    /// every thread they started.
    pub fn shutdown(self) {
        for c in self.clients {
            c.close();
        }
        self.proxy.shutdown();
        for b in self.backends {
            b.shutdown();
        }
    }
}

/// One snapshot of every tier's counters.
pub struct Counters {
    pub backends: Vec<ServiceStats>,
    pub proxy: ServiceStats,
    pub clients: Vec<ClientStats>,
}

/// What the system counted between two [`Counters`] snapshots.
#[derive(Debug, Default)]
pub struct Delta {
    pub submitted: u64,
    pub failed: u64,
    pub rejected: u64,
    pub panicked: u64,
    pub cache_hits: u64,
    pub frames: u64,
    pub control_frames: u64,
    pub relay_frames: u64,
    pub reactor_wakeups: u64,
    pub reactor_events: u64,
    pub progress_emitted: u64,
    pub progress_delivered: u64,
    pub progress_dropped: u64,
    pub failovers: u64,
    pub proxy_resubmitted: u64,
    pub client_resubmitted: u64,
    pub reconnects: u64,
    /// Mean client RPC minus mean proxy backend round trip, ms: the proxy
    /// hop (relay both ways plus its session bookkeeping).
    pub hop_ms: f64,
    /// Per backend stage: the summed histogram delta across backends.
    pub stages: Vec<(Stage, HistDelta)>,
}

impl Delta {
    pub fn between(a: &Counters, b: &Counters) -> Delta {
        let mut d = Delta::default();
        for (x, y) in a.backends.iter().zip(&b.backends) {
            let n = |f: fn(&ServiceStats) -> u64| f(y) - f(x);
            d.submitted += n(|s| s.jobs_submitted);
            d.failed += n(|s| s.jobs_failed);
            d.rejected += n(|s| s.jobs_rejected);
            d.panicked += n(|s| s.jobs_panicked);
            d.cache_hits += n(|s| s.cache_hits);
            d.frames += n(|s| s.frames_received + s.frames_sent);
            d.control_frames += n(|s| s.control_frames_received + s.control_frames_sent);
            d.reactor_wakeups += n(|s| s.reactor_wakeups);
            d.reactor_events += n(|s| s.reactor_events);
            d.progress_emitted += n(|s| s.progress_frames_emitted);
            d.progress_delivered += n(|s| s.progress_frames_delivered);
            d.progress_dropped += n(|s| s.progress_frames_dropped);
        }
        for stage in BACKEND_STAGES {
            let mut total = HistDelta::default();
            for (x, y) in a.backends.iter().zip(&b.backends) {
                let h = HistDelta::between(x.hist(stage), y.hist(stage));
                total.count += h.count;
                total.sum_us += h.sum_us;
            }
            d.stages.push((stage, total));
        }
        let (x, y) = (&a.proxy, &b.proxy);
        d.relay_frames = (y.relay_frames_received + y.relay_frames_sent)
            - (x.relay_frames_received + x.relay_frames_sent);
        d.failovers = y.failovers - x.failovers;
        d.proxy_resubmitted = y.jobs_resubmitted - x.jobs_resubmitted;
        let mut rpc = HistDelta::default();
        for (x, y) in a.clients.iter().zip(&b.clients) {
            d.client_resubmitted += y.jobs_resubmitted - x.jobs_resubmitted;
            d.reconnects += y.reconnects - x.reconnects;
            let h = HistDelta::between(Some(&x.rtt), Some(&y.rtt));
            rpc.count += h.count;
            rpc.sum_us += h.sum_us;
        }
        let relay = HistDelta::between(
            a.proxy.hist(Stage::BackendRtt),
            b.proxy.hist(Stage::BackendRtt),
        );
        d.hop_ms = rpc.mean_ms() - relay.mean_ms();
        d
    }

    /// The run-integrity laws, judged on this window: nothing failed,
    /// was refused, failed over or was resubmitted; progress frames are
    /// conserved; and the cache hit exactly `expect_hits` times. Returns
    /// every law broken.
    pub fn integrity_violations(&self, expect_hits: u64) -> Vec<String> {
        let mut v = Vec::new();
        let zero = [
            ("jobs_failed", self.failed),
            ("jobs_rejected", self.rejected),
            ("jobs_panicked", self.panicked),
            ("failovers", self.failovers),
            ("proxy jobs_resubmitted", self.proxy_resubmitted),
            ("client jobs_resubmitted", self.client_resubmitted),
            ("reconnects", self.reconnects),
        ];
        for (name, n) in zero {
            if n != 0 {
                v.push(format!("{name} = {n}, expected 0"));
            }
        }
        if self.progress_emitted != self.progress_delivered + self.progress_dropped {
            v.push(format!(
                "progress frames not conserved: emitted {} != delivered {} + dropped {}",
                self.progress_emitted, self.progress_delivered, self.progress_dropped
            ));
        }
        if self.cache_hits != expect_hits {
            v.push(format!(
                "cache_hits = {}, expected {expect_hits}",
                self.cache_hits
            ));
        }
        v
    }
}

/// The backend stages that fire in a measured window with this fleet's
/// configuration: no admission limit, rate limit, auth, observer or
/// checkpoints are installed. Cache hits are answered at submit time,
/// before any stage runs; misses pass the dedup stage on their way in.
pub const BACKEND_STAGES: [Stage; 7] = [
    Stage::QueueWait,
    Stage::Panic,
    Stage::Dedup,
    Stage::Decode,
    Stage::Validate,
    Stage::Train,
    Stage::ReactorFlush,
];
