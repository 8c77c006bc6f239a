//! The TCP front of a [`CloudService`]: bounded acceptor, a small pool of
//! reactor (event-loop) threads, and graceful drain on shutdown.
//!
//! Each accepted connection is one *session*, owned by exactly one reactor
//! thread — there are no per-connection threads. The reactor decodes
//! [`Frame::Submit`]s as their bytes arrive and feeds them into the
//! service's shared job queue via the multiplexed reply path
//! (`CloudClient::submit_routed`); completions — in whatever order the pool
//! finishes them — wake the owning reactor, which frames them back as
//! [`Frame::Reply`]s through the connection's write queue. The middleware
//! stack sees remote jobs exactly as it sees in-process ones, plus the
//! session's API key and [`crate::SessionKey`] in the job context, so
//! per-session rate limits and DRR fairness apply to remote traffic with no
//! transport-specific code: a QoS rejection (`RateLimited`, `Overloaded`)
//! is just an error outcome riding the same Reply frame, tallied against
//! the session in [`ServiceStats::sessions`].
//!
//! The transport's own per-connection in-flight cap is judged in the
//! reactor (it is connection state, not payload state); its sheds are
//! counted per session too, and queued-but-unflushed replies hold their
//! in-flight slots so a peer that stops reading stops being allowed to
//! submit. The connection state machine, write-queue backpressure and
//! timer handling live in the sibling `event_loop` module.

use super::event_loop::{ConnState, Engine, Handler, Io, Mailbox};
use super::frame::Frame;
use super::TransportConfig;
use crate::metrics::{Counter, ServiceMetrics, ServiceStats};
use crate::middleware::SessionKey;
use crate::service::{CancelFlag, CloudClient, CloudService, RoutedMsg, RoutedSender};
use crate::telemetry::TraceId;
use crate::CloudError;
use crossbeam::channel::{unbounded, Receiver};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A [`CloudService`] behind a real TCP listener.
///
/// ```no_run
/// use amalgam_cloud::{CloudServer, CloudService, RemoteCloudClient};
///
/// let service = CloudService::builder().workers(2).build();
/// let server = CloudServer::bind(service, "127.0.0.1:0").unwrap();
/// let client = RemoteCloudClient::connect(server.local_addr()).unwrap();
/// // … client.submit(&job) …
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct CloudServer {
    engine: Engine<u64>,
    metrics: Arc<ServiceMetrics>,
    service: Option<CloudService>,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
}

impl CloudServer {
    /// Binds `addr` (use port 0 for an ephemeral port) in front of
    /// `service` with the default [`TransportConfig`].
    ///
    /// # Errors
    ///
    /// Returns the listener's I/O error; the service is dropped (and thus
    /// cleanly shut down) in that case.
    pub fn bind(service: CloudService, addr: impl ToSocketAddrs) -> std::io::Result<CloudServer> {
        CloudServer::bind_with(service, addr, TransportConfig::default())
    }

    /// [`bind`](Self::bind) with explicit transport tunables.
    ///
    /// # Errors
    ///
    /// Returns the listener's (or reactor setup's) I/O error.
    pub fn bind_with(
        service: CloudService,
        addr: impl ToSocketAddrs,
        config: TransportConfig,
    ) -> std::io::Result<CloudServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // The Prometheus exporter is served by reactor 0's poller — a second
        // nonblocking listener, not a second thread.
        let exporter = match service.metrics_exporter_addr() {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let metrics_addr = match &exporter {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let metrics = service.metrics_arc();
        let (client, api_keys) = (service.client(), service.api_keys());
        let limits = (config.max_in_flight, config.max_frame_len);
        let engine = Engine::start(
            "cloud",
            listener,
            config,
            Arc::clone(&metrics),
            exporter,
            |_, mailbox| Backend {
                client: client.clone(),
                api_keys: api_keys.clone(),
                metrics: Arc::clone(&metrics),
                max_in_flight: limits.0,
                max_frame_len: limits.1,
                mailbox: mailbox.clone(),
                sessions: HashMap::new(),
            },
        )?;
        Ok(CloudServer {
            engine,
            metrics,
            service: Some(service),
            local_addr,
            metrics_addr,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Where the Prometheus exporter listens (ephemeral port resolved), if
    /// [`crate::CloudServiceBuilder::metrics_exporter`] configured one.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Point-in-time service + transport telemetry.
    pub fn stats(&self) -> ServiceStats {
        self.metrics.snapshot()
    }

    /// The fronted service's telemetry plane: per-stage histograms and the
    /// flight recorder holding the backend tier's view of each trace.
    pub fn telemetry(&self) -> &crate::telemetry::Telemetry {
        self.metrics.telemetry()
    }

    /// An in-process client of the same service the listener fronts —
    /// useful for comparing remote and local submissions of one pool.
    pub fn local_client(&self) -> CloudClient {
        self.service
            .as_ref()
            .expect("service present until shutdown")
            .client()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.engine.session_count()
    }

    /// Graceful shutdown: stop accepting, stop reading, drain every job
    /// already accepted (they train to completion), answer all stranded
    /// request ids, flush the replies, then close the sockets.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        let Some(service) = self.service.take() else {
            return;
        };
        // Once the engine has stopped, no connection can submit any more;
        // the service drain below therefore answers every routed reply —
        // completed jobs with results, jobs it never reached with
        // ServiceUnavailable. Each answer wakes its owning reactor, which
        // flushes it and closes the connection once nothing is owed;
        // reactors exit when their last connection closes.
        self.engine.stop();
        service.shutdown();
        self.engine.join();
    }
}

impl Drop for CloudServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// The backend's [`Handler`]: every established connection is one service
/// session. Its mailbox carries the tokens of connections whose reply
/// channel has completions waiting.
struct Backend {
    client: CloudClient,
    /// Accepted API keys, for the `GetStats` authorization check (`None`
    /// when the service takes anonymous sessions — then any established
    /// session may ask).
    api_keys: Option<Arc<[String]>>,
    metrics: Arc<ServiceMetrics>,
    max_in_flight: usize,
    max_frame_len: usize,
    mailbox: Mailbox<u64>,
    sessions: HashMap<u64, Session>,
}

/// One established connection's service session.
struct Session {
    /// Scheduling/rate-limiting identity for everything the connection
    /// submits: the handshake's key, or a fresh anonymous session.
    client: CloudClient,
    replies: Receiver<(u64, RoutedMsg)>,
    routed: RoutedSender,
    /// Shared with every [`RoutedSender`] clone handed to workers; cleared
    /// when the peer is gone for good. Trainers probe it through progress
    /// emission: once it clears, an in-flight job knows nobody can receive
    /// its result and cancels itself at the next epoch boundary, keeping
    /// its checkpoint for a resumed resubmission.
    peer_alive: Arc<AtomicBool>,
    /// Trace id of each accepted submit, echoed onto its Reply frame.
    traces: HashMap<u64, TraceId>,
    /// Cancellation flag of each accepted submit still executing; a Cancel
    /// frame for the request id flips it, the reply retires it.
    cancels: HashMap<u64, CancelFlag>,
}

impl Session {
    /// Queues one reply, retiring the request's trace and cancel flag.
    fn reply(
        &mut self,
        io: &mut Io,
        conn: u64,
        id: u64,
        result: Result<crate::JobResult, CloudError>,
    ) {
        let trace = self.traces.remove(&id).unwrap_or(TraceId::NONE);
        self.cancels.remove(&id);
        io.reply(conn, id, result, trace);
    }
}

impl Handler for Backend {
    type Msg = u64;

    fn on_hello(&mut self, io: &mut Io, conn: u64, _version: u32, api_key: Option<String>) {
        let (tx, replies) = unbounded();
        let mailbox = self.mailbox.clone();
        let notify = Arc::new(move || mailbox.post(conn)) as Arc<dyn Fn() + Send + Sync>;
        let peer_alive = Arc::new(AtomicBool::new(true));
        let auth: Option<Arc<str>> = api_key.map(|k| Arc::from(k.into_boxed_str()));
        let session = Session {
            client: self.client.for_transport_session(auth),
            replies,
            routed: RoutedSender::new(tx, notify, Arc::clone(&peer_alive)),
            peer_alive,
            traces: HashMap::new(),
            cancels: HashMap::new(),
        };
        self.sessions.insert(conn, session);
        io.welcome(conn, self.max_in_flight as u32, self.max_frame_len as u64);
    }

    fn on_frame(&mut self, io: &mut Io, conn: u64, frame: Frame) {
        let Some(session) = self.sessions.get_mut(&conn) else {
            return;
        };
        match frame {
            Frame::Submit {
                request_id,
                payload,
                trace,
            } => {
                let trace = trace.unwrap_or(TraceId::NONE);
                // The cap judges accepted-but-unflushed replies too: submits
                // are shed while earlier replies sit in the write queue.
                let owed = io.owe(conn);
                if owed >= self.max_in_flight {
                    self.metrics.session_shed(session.client.session_key());
                    let shed = CloudError::Overloaded {
                        queue_depth: owed,
                        max_queue_depth: self.max_in_flight,
                    };
                    session.reply(io, conn, request_id, Err(shed));
                    return;
                }
                // Remember the trace for the Reply (including dedup-served
                // replies, which also arrive through the routed channel).
                if !trace.is_none() {
                    session.traces.insert(request_id, trace);
                }
                let routed = session.routed.clone();
                match session
                    .client
                    .submit_routed(payload, request_id, routed, trace)
                {
                    Ok(cancel) => {
                        session.cancels.insert(request_id, cancel);
                    }
                    Err(e) => session.reply(io, conn, request_id, Err(e)),
                }
            }
            Frame::GetStats { request_id } => {
                // Authorization: with API keys configured only a session
                // keyed by one of them may scrape; otherwise any established
                // session is as trusted as the service gets. The refusal is
                // in-band so callers see *why* instead of a dead connection.
                let authorized = match (&self.api_keys, session.client.session_key()) {
                    (None, _) => true,
                    (Some(keys), SessionKey::ApiKey(k)) => keys.iter().any(|key| **key == **k),
                    (Some(_), SessionKey::Anonymous(_)) => false,
                };
                let body = if authorized {
                    Ok(self.metrics.snapshot().to_bytes())
                } else {
                    Err(CloudError::Unauthorized(
                        "stats require a recognized API key".into(),
                    ))
                };
                io.send(conn, &Frame::Stats { request_id, body });
            }
            Frame::Cancel { request_id } => {
                // Best-effort: flip the job's flag if it is still in flight.
                // An id with no flag means the reply already settled (or the
                // submit never landed) — a benign race, not a protocol
                // offense. The reply still arrives; cancellation surfaces as
                // its payload.
                if let Some(flag) = session.cancels.get(&request_id) {
                    flag.store(true, Ordering::Relaxed);
                }
            }
            // Goodbye, or a protocol violation (a second Hello, a
            // server-side frame): stop reading, settle what is owed, close.
            _ => io.drain(conn),
        }
    }

    /// Moves completions from the connection's reply channel onto the wire.
    fn on_message(&mut self, io: &mut Io, conn: u64) {
        let Some(session) = self.sessions.get_mut(&conn) else {
            return;
        };
        while let Ok((request_id, msg)) = session.replies.try_recv() {
            match msg {
                RoutedMsg::Reply(result) => session.reply(io, conn, request_id, result),
                // Progress is advisory: it holds no owed slot, so a v1 peer,
                // a broken sink or a draining connection just drops it.
                RoutedMsg::Progress(update) => {
                    let delivered = io.version(conn) >= 2
                        && io.state(conn) == Some(ConnState::Established)
                        && io.send(conn, &Frame::Progress { request_id, update });
                    self.metrics.add(
                        if delivered {
                            Counter::ProgressFramesDelivered
                        } else {
                            Counter::ProgressFramesDropped
                        },
                        1,
                    );
                }
            }
        }
    }

    fn on_peer_lost(&mut self, _io: &mut Io, conn: u64) {
        if let Some(session) = self.sessions.get(&conn) {
            session.peer_alive.store(false, Ordering::SeqCst);
        }
    }

    /// Progress the workers posted that will never reach the wire counts as
    /// dropped. (Sends that race past this fail once the channel's receiver
    /// is gone and are counted dropped at the send site.)
    fn on_close(&mut self, _io: &mut Io, conn: u64) {
        let Some(session) = self.sessions.remove(&conn) else {
            return;
        };
        session.peer_alive.store(false, Ordering::SeqCst);
        while let Ok((_, msg)) = session.replies.try_recv() {
            if let RoutedMsg::Progress(_) = msg {
                self.metrics.add(Counter::ProgressFramesDropped, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_binds_ephemeral_port_and_shuts_down() {
        let service = CloudService::builder().workers(1).build();
        let server = CloudServer::bind(service, "127.0.0.1:0").unwrap();
        assert_ne!(server.local_addr().port(), 0);
        assert_eq!(server.session_count(), 0);
        server.shutdown();
    }
}
