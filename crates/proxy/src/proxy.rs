//! The front door itself: accept sessions, route them, and keep jobs
//! alive across backend deaths.
//!
//! One [`AmalgamProxy`] fronts N `CloudServer` backends. Each accepted
//! client connection becomes a *session*: the proxy terminates the client's
//! handshake, picks the session's home backend on the consistent-hash ring
//! (so per-session QoS, dedup and fairness state live on exactly one
//! backend), opens its own framed connection there, and from then on
//! relays `Submit` frames forward and `Reply` frames back.
//!
//! The proxy runs on the same connection engine as `CloudServer`
//! ([`amalgam_cloud::transport::Engine`]), with a relay handler. A
//! session's client connection and its current backend link live on the
//! same reactor thread, which owns the whole session: relaying is a push
//! onto the other connection's write queue, and the retained in-flight
//! jobs, their link stamps and the link itself are plain fields of that
//! thread. The only blocking call — the TCP connect to a backend — runs on
//! one dialer thread, which hands the connected socket back through the
//! reactor's mailbox; the link's `Hello`/`Welcome` exchange then runs on
//! the reactor like any other I/O, so no session's handshake waits on
//! another's. The proxy's thread count is acceptor + prober + dialer +
//! `io_threads`, whatever the number of sessions.
//! Every retained job owes its client a reply, so a drained client
//! connection (idle timeout, violation, `Goodbye`) stays until its relayed
//! replies are flushed, as on a `CloudServer`; a client gone for good
//! (EOF, broken sink) takes its backend link down at once.
//!
//! The proxy retains every in-flight `Submit` payload ([`bytes::Bytes`]
//! refcount clones, not copies) keyed by request id. When a backend link
//! dies mid-flight, the session *fails over*: the breaker records the
//! failure, the ring is walked again past ejected backends, the session
//! re-handshakes with the survivor, and every retained job is resubmitted
//! under its original request id. Replays are safe by construction —
//! training jobs are seeded and deterministic, and the backends'
//! content-addressed dedup collapses duplicate executions — so the client
//! simply sees its replies arrive late, never lost. Backends sharing a
//! checkpoint store (`CloudServiceBuilder::checkpoint_store`) do better
//! still: a failed-over job resumes from its last epoch-boundary snapshot
//! on the survivor instead of recomputing from scratch, bitwise identical
//! either way. Only when the *whole*
//! fleet is unroutable does the session answer its in-flight jobs with
//! [`CloudError::ServiceUnavailable`], which a reconnecting
//! `RemoteCloudClient` treats as retry-with-backoff.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use amalgam_cloud::transport::{
    ConnState, Engine, Frame, Handler, Io, Mailbox, TransportConfig, Welcome,
};
use amalgam_cloud::{
    CloudError, Counter, JobTrace, ServiceMetrics, ServiceStats, SpanRecord, Stage, TraceId,
};
use bytes::Bytes;

use crate::breaker::{BreakerConfig, BreakerRegistry, Transition};
use crate::health::spawn_prober;
use crate::ring::HashRing;

/// Front-door tunables. The embedded [`TransportConfig`] governs both
/// faces: its limits are enforced on clients and respected toward
/// backends.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Frame/session limits and timeouts for both sides of the proxy.
    pub transport: TransportConfig,
    /// Virtual nodes per backend on the routing ring (default 64).
    pub vnodes: usize,
    /// Circuit-breaker thresholds applied to every backend.
    pub breaker: BreakerConfig,
    /// How often the health prober sweeps the fleet (default 500 ms).
    pub probe_interval: Duration,
    /// Per-probe I/O deadline: dial, handshake and ping round-trip
    /// (default 1 s).
    pub probe_timeout: Duration,
    /// How long a session waits on a silent backend that owes it replies
    /// before declaring the link dead (default 60 s — must exceed the
    /// worst-case job runtime).
    pub reply_timeout: Duration,
}

impl Default for ProxyConfig {
    fn default() -> ProxyConfig {
        ProxyConfig {
            transport: TransportConfig::default(),
            vnodes: 64,
            breaker: BreakerConfig::default(),
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(1),
            reply_timeout: Duration::from_secs(60),
        }
    }
}

impl ProxyConfig {
    /// Sets the transport limits/timeouts for both proxy faces.
    #[must_use]
    pub fn transport(mut self, transport: TransportConfig) -> ProxyConfig {
        self.transport = transport;
        self
    }

    /// Sets the virtual nodes per backend on the routing ring.
    #[must_use]
    pub fn vnodes(mut self, vnodes: usize) -> ProxyConfig {
        self.vnodes = vnodes;
        self
    }

    /// Sets the circuit-breaker thresholds.
    #[must_use]
    pub fn breaker(mut self, breaker: BreakerConfig) -> ProxyConfig {
        self.breaker = breaker;
        self
    }

    /// Sets the health prober's sweep interval.
    #[must_use]
    pub fn probe_interval(mut self, interval: Duration) -> ProxyConfig {
        self.probe_interval = interval;
        self
    }

    /// Sets the per-probe I/O deadline.
    #[must_use]
    pub fn probe_timeout(mut self, timeout: Duration) -> ProxyConfig {
        self.probe_timeout = timeout;
        self
    }

    /// Sets the silent-backend deadline for sessions with replies owed.
    #[must_use]
    pub fn reply_timeout(mut self, timeout: Duration) -> ProxyConfig {
        self.reply_timeout = timeout;
        self
    }
}

/// State shared by the reactors, the dialer and the health prober.
#[derive(Debug)]
pub(crate) struct ProxyShared {
    pub(crate) config: ProxyConfig,
    pub(crate) ring: HashRing,
    pub(crate) breakers: BreakerRegistry,
    pub(crate) metrics: Arc<ServiceMetrics>,
    pub(crate) stop: AtomicBool,
    next_anon: AtomicU64,
}

impl ProxyShared {
    /// Feeds a data-path or probe failure to `addr`'s breaker, mirroring
    /// an ejection into the metrics.
    pub(crate) fn record_backend_failure(&self, addr: &str) {
        let t = self
            .breakers
            .with(addr, |b| b.record_failure(Instant::now()));
        if t == Transition::Ejected {
            self.metrics.backend_ejected(addr);
        }
    }

    /// Feeds a probe success to `addr`'s breaker, mirroring a readmission
    /// into the metrics.
    pub(crate) fn record_backend_success(&self, addr: &str) {
        let t = self.breakers.with(addr, |b| b.record_success());
        if t == Transition::Readmitted {
            self.metrics.backend_readmitted(addr);
        }
    }
}

/// The routing tier: a TCP front door over N framed backends.
#[derive(Debug)]
pub struct AmalgamProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    engine: Engine<Dialed>,
    dialer: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl AmalgamProxy {
    /// Binds the front door on `addr` over `backends` (dial addresses of
    /// running `CloudServer`s) and starts accepting sessions.
    ///
    /// # Errors
    ///
    /// Returns the listener's bind error.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty (see [`HashRing::new`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: &[String],
        config: ProxyConfig,
    ) -> std::io::Result<AmalgamProxy> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let metrics = Arc::new(ServiceMetrics::new());
        for b in backends {
            metrics.backend_registered(b);
        }
        let shared = Arc::new(ProxyShared {
            ring: HashRing::new(backends, config.vnodes),
            breakers: BreakerRegistry::new(config.breaker, backends),
            config,
            metrics,
            stop: AtomicBool::new(false),
            next_anon: AtomicU64::new(0),
        });
        let (dial_tx, dial_rx) = channel();
        let engine = Engine::start(
            "proxy",
            listener,
            shared.config.transport.clone(),
            Arc::clone(&shared.metrics),
            None,
            |reactor, _| Relay {
                shared: Arc::clone(&shared),
                reactor,
                dialer: dial_tx.clone(),
                sessions: HashMap::new(),
                links: HashMap::new(),
            },
        )?;
        drop(dial_tx);
        let dialer = {
            let (shared, mailboxes) = (Arc::clone(&shared), engine.mailboxes().to_vec());
            std::thread::Builder::new()
                .name("proxy-dialer".into())
                .spawn(move || dialer_loop(&shared, &dial_rx, &mailboxes))
                .expect("spawn proxy dialer")
        };
        let prober = spawn_prober(Arc::clone(&shared));
        Ok(AmalgamProxy {
            addr: local,
            shared,
            engine,
            dialer: Some(dialer),
            prober: Some(prober),
        })
    }

    /// The address clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the proxy's own telemetry: connections, frames,
    /// failovers, resubmissions and the per-backend health table.
    pub fn stats(&self) -> ServiceStats {
        self.shared.metrics.snapshot()
    }

    /// The proxy's telemetry plane: the backend round-trip histogram
    /// ([`Stage::BackendRtt`]) and the routing tier's flight recorder —
    /// the middle of the three vantage points a trace id is visible at.
    pub fn telemetry(&self) -> &amalgam_cloud::Telemetry {
        self.shared.metrics.telemetry()
    }

    /// Stops accepting, severs every client session and joins all proxy
    /// threads. Backends are untouched.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.prober.take() {
            let _ = handle.join();
        }
        self.engine.stop();
        self.engine.join();
        // The reactors held the dial queue's senders: with them gone the
        // dialer finishes its queue (dialing nothing under stop) and exits.
        if let Some(handle) = self.dialer.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for AmalgamProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One dial for a session, run on the dialer thread.
#[derive(Debug)]
struct DialRequest {
    /// The reactor that owns the session, and the session's client token.
    reactor: usize,
    client: u64,
    route_key: String,
    /// Backends that already failed this session, skipped on the ring walk.
    skip: Vec<String>,
}

/// A dial's outcome, posted back to the session's reactor: the backend's
/// address and the connected stream — or `None` when no admissible backend
/// took the connection.
#[derive(Debug)]
struct Dialed {
    client: u64,
    link: Option<(String, TcpStream)>,
}

/// The dialer thread: walks each session's ring order for the first
/// admissible backend that accepts a TCP connection — the only blocking
/// call the data path has, kept off the reactors.
fn dialer_loop(
    shared: &ProxyShared,
    requests: &Receiver<DialRequest>,
    mailboxes: &[Mailbox<Dialed>],
) {
    for request in requests {
        let link = shared
            .ring
            .ordered(&request.route_key)
            .into_iter()
            .filter(|addr| {
                !request.skip.iter().any(|s| s == addr)
                    && !shared.stop.load(Ordering::SeqCst)
                    && shared.breakers.admits_traffic(addr)
            })
            .find_map(|addr| {
                let sock_addr = addr.to_socket_addrs().ok().and_then(|mut a| a.next());
                let timeout = shared.config.transport.connect_timeout;
                match sock_addr.and_then(|a| TcpStream::connect_timeout(&a, timeout).ok()) {
                    Some(stream) => Some((addr.to_string(), stream)),
                    None => {
                        shared.record_backend_failure(addr);
                        None
                    }
                }
            });
        let client = request.client;
        mailboxes[request.reactor].post(Dialed { client, link });
    }
}

/// One retained in-flight job.
#[derive(Debug)]
struct InFlightJob {
    /// The serialized `CloudJob`, retained until its `Reply` arrives
    /// (refcount clone of the client's upload, not a copy).
    payload: Bytes,
    /// The end-to-end trace id the client minted ([`TraceId::NONE`] from a
    /// v1 client); forwarded to v2 backends and echoed on the Reply.
    trace: TraceId,
    /// Generation of the backend link this job was last written to — the
    /// link's connection token, never reused (0 = never sent). Failover
    /// resubmits exactly the jobs whose `sent_gen` differs from the new
    /// link's.
    sent_gen: u64,
    /// When the job last hit a backend link, so its Reply scores the
    /// backend round trip ([`Stage::BackendRtt`]).
    sent_at: Instant,
}

/// A session's connection to its backend.
#[derive(Debug)]
struct Link {
    /// The link's connection token, which doubles as its generation.
    token: u64,
    addr: String,
    /// The protocol version the backend negotiated, 0 while the handshake
    /// runs; `Cancel` only goes to v2 backends (the engine strips trace
    /// extensions toward v1 itself).
    version: u32,
}

/// One client session, keyed by its client connection's token.
#[derive(Debug, Default)]
struct Session {
    /// The routing key: the session's API key, or a unique anonymous tag.
    route_key: String,
    api_key: Option<String>,
    jobs: HashMap<u64, InFlightJob>,
    link: Option<Link>,
    /// A dial for this session is queued or running.
    dialing: bool,
    /// Backends that failed this session since its last link came up.
    failed: Vec<String>,
    /// The client said `Goodbye`: the link only carries the owed replies,
    /// and its close ends the session instead of failing it over.
    leaving: bool,
}

impl Session {
    /// Answers every retained job with `ServiceUnavailable`, which a
    /// reconnecting client treats as retry-with-backoff.
    fn answer_unavailable(&mut self, io: &mut Io, client: u64) {
        for (id, job) in self.jobs.drain() {
            io.reply(client, id, Err(CloudError::ServiceUnavailable), job.trace);
        }
    }
}

/// The proxy's [`Handler`]: every client connection is a [`Session`] whose
/// backend link lives on the same reactor.
struct Relay {
    shared: Arc<ProxyShared>,
    reactor: usize,
    dialer: Sender<DialRequest>,
    sessions: HashMap<u64, Session>,
    /// Backend link token → the client token of the session it serves.
    links: HashMap<u64, u64>,
}

impl Relay {
    /// Queues a dial for `client`'s session unless it has a link or a dial
    /// is already running.
    fn dial(&mut self, client: u64) {
        let Some(session) = self.sessions.get_mut(&client) else {
            return;
        };
        if !session.dialing && session.link.is_none() {
            session.dialing = true;
            let _ = self.dialer.send(DialRequest {
                reactor: self.reactor,
                client,
                route_key: session.route_key.clone(),
                skip: session.failed.clone(),
            });
        }
    }

    /// A frame from `client`'s backend link.
    fn on_backend_frame(&mut self, io: &mut Io, client: u64, link: u64, frame: Frame) {
        let Some(session) = self.sessions.get_mut(&client) else {
            return;
        };
        match frame {
            Frame::Reply {
                request_id, result, ..
            } => {
                // The retained entry's trace is authoritative — a v1 backend
                // echoes nothing, yet the client still gets its id back.
                let job = session.jobs.remove(&request_id);
                let trace = job.as_ref().map_or(TraceId::NONE, |j| j.trace);
                if let Some(job) = &job {
                    record_backend_rtt(&self.shared.metrics, request_id, job, result.is_ok());
                }
                io.reply(client, request_id, result, trace);
            }
            // Mid-job streaming is a v2 extension: forward only to clients
            // that negotiated it. The retained entry guards against
            // replaying progress for a job already answered.
            Frame::Progress { request_id, update } => {
                if io.version(client) >= 2 && session.jobs.contains_key(&request_id) {
                    io.send(client, &Frame::Progress { request_id, update });
                }
            }
            // A backend speaking anything else mid-session is broken: its
            // link closes, and the close fails the session over.
            _ => io.close(link),
        }
    }
}

/// Sends every retained job not yet written to the session's current link,
/// in request-id order, stamping each with the link's generation.
fn resubmit_unsent(session: &mut Session, io: &mut Io, metrics: &ServiceMetrics) {
    let Some(link) = &session.link else {
        return;
    };
    let mut ids: Vec<u64> = session
        .jobs
        .iter()
        .filter(|(_, job)| job.sent_gen != link.token)
        .map(|(id, _)| *id)
        .collect();
    ids.sort_unstable();
    for id in &ids {
        let job = session.jobs.get_mut(id).expect("collected above");
        job.sent_gen = link.token;
        job.sent_at = Instant::now();
        io.submit(link.token, *id, job.payload.clone(), job.trace);
    }
    if !ids.is_empty() {
        metrics.backend_jobs_resubmitted(&link.addr, ids.len() as u64);
    }
}

/// Scores one answered job into the proxy's telemetry plane: the
/// submit-to-reply backend round trip lands in the [`Stage::BackendRtt`]
/// histogram and the flight recorder gains this tier's view of the trace
/// (the middle of the three tiers).
fn record_backend_rtt(metrics: &ServiceMetrics, request_id: u64, job: &InFlightJob, ok: bool) {
    let tel = metrics.telemetry();
    if !tel.enabled() {
        return;
    }
    let rtt = job.sent_at.elapsed();
    tel.record(Stage::BackendRtt, rtt);
    let dur_us = u64::try_from(rtt.as_micros()).unwrap_or(u64::MAX);
    tel.recorder().push(JobTrace {
        trace: job.trace,
        job_id: request_id,
        total_us: dur_us,
        ok,
        spans: vec![SpanRecord {
            stage: Stage::BackendRtt,
            start_us: 0,
            dur_us,
            ok,
        }],
    });
}

impl Handler for Relay {
    type Msg = Dialed;

    /// Routes before welcoming: the `Welcome` waits for the dialed link, so
    /// a session the fleet can't take is Rejected outright and the client's
    /// connect() fails loudly instead of its first submit failing quietly.
    fn on_hello(&mut self, _io: &mut Io, client: u64, _version: u32, api_key: Option<String>) {
        let route_key = api_key.clone().unwrap_or_else(|| {
            let n = self.shared.next_anon.fetch_add(1, Ordering::Relaxed);
            format!("anon#{n}")
        });
        let session = Session {
            route_key,
            api_key,
            ..Session::default()
        };
        self.sessions.insert(client, session);
        self.dial(client);
    }

    fn on_frame(&mut self, io: &mut Io, conn: u64, frame: Frame) {
        if let Some(&client) = self.links.get(&conn) {
            return self.on_backend_frame(io, client, conn, frame);
        }
        let Some(session) = self.sessions.get_mut(&conn) else {
            return;
        };
        match frame {
            Frame::Submit {
                request_id,
                payload,
                trace,
            } => {
                let mut job = InFlightJob {
                    payload,
                    trace: trace.unwrap_or(TraceId::NONE),
                    sent_gen: 0,
                    sent_at: Instant::now(),
                };
                if let Some(link) = session.link.as_ref().filter(|l| l.version > 0) {
                    job.sent_gen = link.token;
                    io.submit(link.token, request_id, job.payload.clone(), job.trace);
                }
                // The client is owed this job's reply: a draining client
                // connection waits for it to be flushed.
                if session.jobs.insert(request_id, job).is_none() {
                    io.owe(conn);
                }
                self.dial(conn);
            }
            // Best effort, like everywhere else in the cancel path: the
            // request reaches the backend only while a v2 link is up. The
            // job stays retained — its Reply (normally Cancelled) settles
            // it; if the link dies first, failover resubmits and the job's
            // ordinary outcome answers the client. Never a hung handle.
            Frame::Cancel { request_id } => {
                if let Some(link) = session.link.as_ref().filter(|l| l.version >= 2) {
                    io.send(link.token, &Frame::Cancel { request_id });
                }
            }
            // The proxy answers stats queries itself: its snapshot is the
            // routing tier's view (failovers, per-backend health,
            // backend-RTT quantiles), which no single backend can report.
            Frame::GetStats { request_id } => {
                let body = Ok(self.shared.metrics.snapshot().to_bytes());
                io.send(conn, &Frame::Stats { request_id, body });
            }
            // A polite leave is passed on, so the backend finishes the
            // session's work, flushes its replies (relayed to the draining
            // client) and hangs up. Without a live link there is nobody to
            // finish the work: the retained jobs are answered now.
            Frame::Goodbye => {
                session.leaving = true;
                match &session.link {
                    Some(link) if link.version > 0 => {
                        io.send(link.token, &Frame::Goodbye);
                    }
                    pending => {
                        if let Some(link) = pending {
                            io.close(link.token);
                        }
                        session.answer_unavailable(io, conn);
                    }
                }
                io.drain(conn);
            }
            // Clients must not speak server frames or a second Hello.
            _ => io.drain(conn),
        }
    }

    fn on_message(&mut self, io: &mut Io, Dialed { client, link }: Dialed) {
        let Some(session) = self.sessions.get_mut(&client) else {
            return; // the session ended meanwhile; the stream closes on drop
        };
        session.dialing = false;
        if io.stopping() {
            io.close(client);
            return;
        }
        if session.leaving {
            return;
        }
        let Some((addr, stream)) = link else {
            if io.state(client) == Some(ConnState::Handshaking) {
                io.reject(client, "no healthy backend".into());
            } else {
                // Fleet exhausted: answer every retained job so a
                // reconnecting client can back off and resubmit rather
                // than hang. The next submit dials afresh.
                session.failed.clear();
                session.answer_unavailable(io, client);
            }
            return;
        };
        match io.connect(stream, session.api_key.clone()) {
            Some(token) => {
                session.link = Some(Link {
                    token,
                    addr,
                    version: 0,
                });
                self.links.insert(token, client);
            }
            None => {
                session.failed.push(addr);
                self.dial(client);
            }
        }
    }

    fn on_welcome(&mut self, io: &mut Io, link: u64, welcome: Welcome) {
        let Some(&client) = self.links.get(&link) else {
            return;
        };
        let Some(session) = self.sessions.get_mut(&client) else {
            return;
        };
        let Some(l) = session.link.as_mut() else {
            return;
        };
        l.version = welcome.version;
        session.failed.clear();
        let metrics = &self.shared.metrics;
        metrics.backend_session_routed(&l.addr);
        io.arm(link, Instant::now() + self.shared.config.reply_timeout);
        if io.state(client) == Some(ConnState::Handshaking) {
            // Advertise the *tighter* of our limits and the home backend's,
            // so a client honoring the Welcome can never trip either hop's
            // caps.
            let t = &self.shared.config.transport;
            let max_in_flight = welcome.max_in_flight.min(t.max_in_flight as u32);
            let max_frame_len = welcome.max_frame_len.min(t.max_frame_len as u64);
            io.welcome(client, max_in_flight, max_frame_len);
        } else {
            metrics.add(Counter::Reconnects, 1);
        }
        resubmit_unsent(session, io, metrics);
    }

    /// The reply-stall detector. A backend owing replies that says nothing
    /// for the whole `reply_timeout` is wedged (hung, black-holed, or
    /// crashed mid-write) even though TCP looks alive: its link is closed,
    /// which fails the session over.
    fn on_timer(&mut self, io: &mut Io, link: u64) {
        let Some(session) = self.links.get(&link).and_then(|c| self.sessions.get(c)) else {
            return;
        };
        let limit = self.shared.config.reply_timeout;
        let quiet = io.idle_for(link);
        if !session.jobs.is_empty() && quiet >= limit {
            io.close(link);
        } else {
            io.arm(
                link,
                Instant::now() + limit.saturating_sub(quiet).max(limit / 4),
            );
        }
    }

    /// A client that can never receive another frame is not waited on:
    /// closing it takes its backend link down too.
    fn on_peer_lost(&mut self, io: &mut Io, conn: u64) {
        if self.sessions.contains_key(&conn) {
            io.close(conn);
        }
    }

    fn on_close(&mut self, io: &mut Io, conn: u64) {
        if let Some(client) = self.links.remove(&conn) {
            let Some(session) = self.sessions.get_mut(&client) else {
                return;
            };
            let Some(link) = session.link.take() else {
                return;
            };
            if io.stopping() {
                // The proxy is shutting down: the session is severed, and
                // an expected teardown must not poison the breaker.
                io.close(client);
            } else if session.leaving {
                // The backend finished the departed session's work and
                // hung up (or died first): nothing left to fail over.
                session.answer_unavailable(io, client);
            } else {
                // The link died, or its handshake failed: try the ring's
                // next admissible backend.
                self.shared.record_backend_failure(&link.addr);
                if link.version > 0 {
                    self.shared.metrics.backend_failover(&link.addr);
                }
                session.failed.push(link.addr);
                self.dial(client);
            }
        } else if let Some(session) = self.sessions.remove(&conn) {
            // The client is gone: its backend session goes with it.
            if let Some(link) = session.link {
                self.links.remove(&link.token);
                io.close(link.token);
            }
        }
    }
}
