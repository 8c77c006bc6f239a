//! The connection engine: reactor threads that own nonblocking connections
//! and drive each one as an explicit state machine, on behalf of a
//! [`Handler`].
//!
//! The engine owns everything mechanical about a connection: poller
//! registration and interest, incremental [`FrameDecoder`] reads, the
//! [`WriteQueue`] and its write-stall timer, the handshake and idle
//! timers, `Hello` → `Welcome`/`Reject` version negotiation (as server on
//! accepted connections, as client on dialed ones), keep-alive
//! `Ping`/`Pong`, and Draining → Closed teardown. A handler owns what a
//! connection *means*: [`crate::CloudServer`]'s handler turns frames into
//! service jobs, and the routing tier's handler relays them to a backend
//! link that lives on the same reactor — so relaying is a push onto the
//! other connection's write queue, with no locks and no extra threads.
//!
//! # Connection state machine
//!
//! ```text
//!  accepted (round-robin to a reactor)   dialed (Io::connect sends Hello)
//!                     │                              │
//!                     ▼                              │
//!              ┌─────────────┐◄──────────────────────┘
//!              │ Handshaking │  bad opener / version / timeout /
//!              └──────┬──────┘  Io::reject / the server's Reject ────┐
//!                     │ accepted: Hello ok, then Io::welcome (now or │
//!                     │ later); dialed: the server's Welcome         │
//!                     ▼                                              │
//!              ┌─────────────┐                                       │
//!              │ Established │                                       │
//!              └──────┬──────┘                                       │
//!                     │ Io::drain, Goodbye, EOF, idle,               │
//!                     ▼ violation, stop                              │
//!              ┌─────────────┐                                       │
//!              │  Draining   │ (Reject flushed first where one       │
//!              └──────┬──────┘  is owed)                             │
//!      owed = 0 and   │ queue flushed (or sink broken)               │
//!                     ▼                                              ▼
//!                 ┌──────────────────────────────────────────────────┐
//!                 │                      Closed                      │
//!                 └──────────────────────────────────────────────────┘
//! ```
//!
//! A connection is owned by exactly one reactor thread, so its state needs
//! no locks. Cross-thread signals — new connections from the acceptor,
//! messages for the handler (completed jobs, dialed backend links),
//! shutdown — go through each reactor's [`Mailbox`] plus a
//! [`reactor::Waker`].
//!
//! # Backpressure
//!
//! Writes never block: frames the socket won't take queue on the
//! connection's [`WriteQueue`], write interest is registered, and the
//! reactor flushes on writability. A handler that accepts work marks a
//! reply as *owed* ([`Io::owe`]); the slot is released only when the
//! reply's bytes are fully flushed, so a peer that stops reading stops
//! being allowed to submit. A queue that makes no progress for
//! [`TransportConfig::write_timeout`] marks the sink broken: the socket is
//! torn down and remaining replies are drained without writing, so owed
//! accounting still reaches zero and drain completes.

use super::client::{hello, Welcome};
use super::frame::{self, Frame, FrameDecoder, FrameOrigin};
use super::timer::{Fired, TimerKind, TimerWheel};
use super::{TransportConfig, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION};
use crate::metrics::{Counter, ServiceMetrics};
use crate::protocol::JobResult;
use crate::telemetry::{Stage, TraceId};
use crate::CloudError;
use bytes::Bytes;
use parking_lot::Mutex;
use reactor::{Event, Interest, Poller, WakeReceiver, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token reserved for the reactor's own wake pipe.
const WAKER_TOKEN: u64 = u64::MAX;

/// Token reserved for the Prometheus exporter's listener (reactor 0 only).
const EXPORTER_TOKEN: u64 = u64::MAX - 1;

/// Cap on one exporter request's header bytes; enough for any scraper's
/// `GET /metrics` preamble, small enough that a hostile peer buys nothing.
const HTTP_REQUEST_CAP: usize = 4096;

/// Timer wheel granularity. Deadlines fire within one tick of their due
/// time, never early.
const WHEEL_TICK: Duration = Duration::from_millis(5);

/// Timer wheel slots (one revolution = `WHEEL_TICK * WHEEL_SLOTS`; longer
/// deadlines lap).
const WHEEL_SLOTS: usize = 512;

/// Write bound for refusals the acceptor writes itself, before any reactor
/// owns the connection.
const REJECT_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// What a connection means: the policy half of a reactor. Every callback
/// runs on the reactor thread that owns the connection, with [`Io`] as the
/// only way to act on connections.
pub trait Handler: Send + 'static {
    /// What other threads post to this handler through its [`Mailbox`].
    type Msg: Send + 'static;

    /// A client's `Hello` passed version negotiation at `version`. The
    /// handler answers with [`Io::welcome`] or [`Io::reject`], now or from
    /// a later callback. The handshake deadline only covers the wait for
    /// the `Hello`: from here on the answer is the handler's to give.
    fn on_hello(&mut self, io: &mut Io, conn: u64, version: u32, api_key: Option<String>);

    /// A link dialed with [`Io::connect`] got its server's `Welcome` and is
    /// established. (A link whose handshake fails just closes.)
    fn on_welcome(&mut self, _io: &mut Io, _conn: u64, _welcome: Welcome) {}

    /// One frame on an established (or draining-but-owed) connection. The
    /// engine itself answers `Ping` on accepted connections and absorbs
    /// `Pong` on dialed ones.
    fn on_frame(&mut self, io: &mut Io, conn: u64, frame: Frame);

    /// A message posted through this reactor's [`Mailbox`].
    fn on_message(&mut self, io: &mut Io, msg: Self::Msg);

    /// A deadline armed with [`Io::arm`] fell due (the connection may have
    /// moved on since; the handler checks).
    fn on_timer(&mut self, _io: &mut Io, _conn: u64) {}

    /// The peer can never receive another frame (abrupt EOF or read error
    /// on an established connection, or a broken sink). The connection may
    /// linger in Draining while owed replies settle.
    fn on_peer_lost(&mut self, _io: &mut Io, _conn: u64) {}

    /// The connection closed for good; its token is never reused.
    fn on_close(&mut self, io: &mut Io, conn: u64);
}

/// Lifecycle of one connection; see the module diagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Accepted: waiting for the client's `Hello` or the handler's answer.
    /// Dialed: waiting for the server's answer to our `Hello`.
    Handshaking,
    /// Frames flow both ways.
    Established,
    /// No longer read; lives until owed replies are flushed or discarded.
    Draining,
    /// Gone.
    Closed,
}

impl ConnState {
    fn reading(self) -> bool {
        matches!(self, ConnState::Handshaking | ConnState::Established)
    }
}

/// Something queued for a reactor: an accepted socket, or a handler message.
enum Inbound<M> {
    Accepted(TcpStream),
    Msg(M),
}

struct MailboxInner<M> {
    waker: Waker,
    inbox: Mutex<Vec<Inbound<M>>>,
    metrics: Arc<ServiceMetrics>,
}

/// The cross-thread face of one reactor: post a message to its handler and
/// wake it. Cheap to clone.
pub struct Mailbox<M>(Arc<MailboxInner<M>>);

impl<M> Clone for Mailbox<M> {
    fn clone(&self) -> Mailbox<M> {
        Mailbox(Arc::clone(&self.0))
    }
}

impl<M> Mailbox<M> {
    /// Queues `msg` for [`Handler::on_message`] and wakes the reactor.
    pub fn post(&self, msg: M) {
        self.push(Inbound::Msg(msg));
    }

    fn push(&self, item: Inbound<M>) {
        self.0.inbox.lock().push(item);
        self.kick();
    }

    fn kick(&self) {
        if self.0.waker.wake() {
            self.0.metrics.add(Counter::ReactorWakeups, 1);
        }
    }
}

/// State every thread of one engine shares.
struct Core {
    config: TransportConfig,
    metrics: Arc<ServiceMetrics>,
    stop: AtomicBool,
    /// Accepted connections not yet closed, judged against
    /// [`TransportConfig::max_connections`].
    sessions: AtomicUsize,
    /// Reactors that have applied the stop: none of their connections can
    /// start new work any more.
    stopped: AtomicUsize,
}

/// A running engine: one acceptor thread dealing sockets round-robin to
/// [`TransportConfig::io_threads`] reactor threads, each driving its
/// connections for its own [`Handler`]. Its thread count is
/// `1 + io_threads`, whatever the number of connections.
pub struct Engine<M> {
    core: Arc<Core>,
    mailboxes: Vec<Mailbox<M>>,
    acceptor: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
}

impl<M> std::fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("io_threads", &self.mailboxes.len())
            .field("sessions", &self.session_count())
            .finish_non_exhaustive()
    }
}

impl<M: Send + 'static> Engine<M> {
    /// Starts accepting on `listener`. Threads are named `{name}-acceptor`
    /// and `{name}-reactor-{i}`; `handler(i, mailbox)` builds reactor `i`'s
    /// handler. Reactor 0 also serves `exporter`, if given, as a
    /// Prometheus endpoint over `metrics`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of setting up a listener, poller or wake pipe.
    pub fn start<H: Handler<Msg = M>>(
        name: &str,
        listener: TcpListener,
        config: TransportConfig,
        metrics: Arc<ServiceMetrics>,
        mut exporter: Option<TcpListener>,
        mut handler: impl FnMut(usize, &Mailbox<M>) -> H,
    ) -> std::io::Result<Engine<M>> {
        listener.set_nonblocking(true)?;
        let io_threads = config.effective_io_threads();
        let core = Arc::new(Core {
            config,
            metrics: Arc::clone(&metrics),
            stop: AtomicBool::new(false),
            sessions: AtomicUsize::new(0),
            stopped: AtomicUsize::new(0),
        });
        let mut reactors = Vec::with_capacity(io_threads);
        for i in 0..io_threads {
            let (waker, wake_rx) = Waker::new()?;
            let mut poller = Poller::new()?;
            poller.register(wake_rx.fd(), WAKER_TOKEN, Interest::READABLE)?;
            metrics.add(Counter::ReactorRegisteredFds, 1);
            let exporter = if i == 0 { exporter.take() } else { None };
            if let Some(l) = &exporter {
                l.set_nonblocking(true)?;
                poller.register(l.as_raw_fd(), EXPORTER_TOKEN, Interest::READABLE)?;
                metrics.add(Counter::ReactorRegisteredFds, 1);
            }
            let mailbox = Mailbox(Arc::new(MailboxInner {
                waker,
                inbox: Mutex::new(Vec::new()),
                metrics: Arc::clone(&metrics),
            }));
            reactors.push(Reactor {
                io: Io {
                    conns: HashMap::new(),
                    cx: Cx {
                        core: Arc::clone(&core),
                        poller,
                        wheel: TimerWheel::new(WHEEL_TICK, WHEEL_SLOTS),
                        next_token: 1,
                        dirty: Vec::new(),
                        notes: Vec::new(),
                    },
                },
                handler: handler(i, &mailbox),
                mailbox,
                wake_rx,
                events: Vec::new(),
                fired: Vec::new(),
                exporter,
                http_conns: HashMap::new(),
                stop_applied: false,
            });
        }
        let mailboxes: Vec<Mailbox<M>> = reactors.iter().map(|r| r.mailbox.clone()).collect();
        let reactors = reactors
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                std::thread::Builder::new()
                    .name(format!("{name}-reactor-{i}"))
                    .spawn(move || r.run())
                    .expect("spawn reactor")
            })
            .collect();
        let acceptor = {
            let (core, mailboxes) = (Arc::clone(&core), mailboxes.clone());
            std::thread::Builder::new()
                .name(format!("{name}-acceptor"))
                .spawn(move || accept_loop(&listener, &core, &mailboxes))
                .expect("spawn acceptor")
        };
        Ok(Engine {
            core,
            mailboxes,
            acceptor: Some(acceptor),
            reactors,
        })
    }
}

impl<M> Engine<M> {
    /// One mailbox per reactor, in reactor order.
    pub fn mailboxes(&self) -> &[Mailbox<M>] {
        &self.mailboxes
    }

    /// Accepted connections that have not closed yet.
    pub fn session_count(&self) -> usize {
        self.core.sessions.load(Ordering::SeqCst)
    }

    /// Stops accepting and reading: joins the acceptor, then waits until
    /// every reactor has closed its handshakes and moved its established
    /// connections to Draining — after which no connection starts new work.
    pub fn stop(&mut self) {
        self.core.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for mailbox in &self.mailboxes {
            mailbox.kick();
        }
        while self.core.stopped.load(Ordering::SeqCst) < self.mailboxes.len() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Waits for every reactor to settle its last connection and exit.
    pub fn join(&mut self) {
        for reactor in self.reactors.drain(..) {
            let _ = reactor.join();
        }
    }
}

impl<M> Drop for Engine<M> {
    fn drop(&mut self) {
        self.stop();
        self.join();
    }
}

fn accept_loop<M>(listener: &TcpListener, core: &Core, mailboxes: &[Mailbox<M>]) {
    let mut next = 0usize;
    while !core.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if core.sessions.load(Ordering::SeqCst) >= core.config.max_connections {
                    // Best-effort refusal, written synchronously: the
                    // connection never reaches a reactor.
                    core.metrics.add(Counter::ConnectionsRejected, 1);
                    let _ = stream.set_write_timeout(Some(REJECT_WRITE_TIMEOUT));
                    let reason = "server at connection capacity".into();
                    let _ = frame::write_frame(&mut stream, &Frame::Reject { reason });
                    continue;
                }
                core.sessions.fetch_add(1, Ordering::SeqCst);
                mailboxes[next % mailboxes.len()].push(Inbound::Accepted(stream));
                next = next.wrapping_add(1);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// How a queued frame is tallied: job replies toward the client-face totals,
/// protocol overhead toward the control sub-counters too, and everything on
/// a dialed (backend-face) link as relayed traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Reply,
    Control,
    Relay,
}

/// How one flush attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushOutcome {
    /// Queue fully flushed.
    Drained,
    /// Socket stopped taking bytes; write interest is needed.
    Blocked,
    /// Write error: the sink is gone.
    Broken,
}

/// One queued chunk of outbound bytes. A frame is one chunk (control
/// frames, error replies) or two or three (bulk frames: prefixed head,
/// uncopied payload, trace tail); the last chunk carries the frame
/// accounting.
struct Pending {
    buf: Bytes,
    pos: usize,
    /// `(wire_len, kind)` on a frame's final chunk.
    end_of_frame: Option<(usize, Kind)>,
}

/// Per-connection outbound queue; only touched by the owning reactor.
#[derive(Default)]
struct WriteQueue {
    q: VecDeque<Pending>,
    /// Unflushed bytes across all chunks (mirrored into the service-wide
    /// backpressure gauge).
    bytes: usize,
}

impl WriteQueue {
    fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    fn push(&mut self, buf: Bytes, end_of_frame: Option<(usize, Kind)>, metrics: &ServiceMetrics) {
        self.bytes += buf.len();
        metrics.add(Counter::ReactorWriteQueueBytes, buf.len() as u64);
        // The frame counters move at *commit* time, not flush time: once a
        // frame is queued its delivery is ordered before any observer can
        // see the peer react to it, so a client that received a reply is
        // guaranteed to find it already counted in the server's stats.
        // (Counting at flush races: on a busy box the completing write can
        // wake the peer, which reads the stats before the writing thread
        // gets to increment.) Frames discarded unsent are uncounted again.
        match end_of_frame {
            Some((wire, Kind::Reply)) => metrics.frame_sent(wire),
            Some((wire, Kind::Control)) => metrics.control_frame_sent(wire),
            Some((wire, Kind::Relay)) => metrics.relay_frame_sent(wire),
            None => {}
        }
        self.q.push_back(Pending {
            buf,
            pos: 0,
            end_of_frame,
        });
    }

    /// Queues a whole frame as one prefixed chunk.
    fn push_frame(&mut self, frame: &Frame, kind: Kind, metrics: &ServiceMetrics) {
        let body = frame.encode();
        let mut v = Vec::with_capacity(4 + body.len());
        v.extend_from_slice(&(body.len() as u32).to_le_bytes());
        v.extend_from_slice(&body);
        let wire = v.len();
        self.push(Bytes::from(v), Some((wire, kind)), metrics);
    }

    /// Queues a bulk frame — `head`, then `payload` uncopied, then the
    /// optional protocol-v2 trace extension — whose wire bytes match the
    /// equivalent whole [`Frame`] exactly. Returns `false` if the frame
    /// would overflow the u32 length prefix.
    fn push_split(
        &mut self,
        head: Bytes,
        payload: Bytes,
        trace: Option<TraceId>,
        kind: Kind,
        metrics: &ServiceMetrics,
    ) -> bool {
        let tail = trace.map(frame::trace_tail);
        let total = head.len() + payload.len() + tail.map_or(0, |t| t.len());
        if total > u32::MAX as usize {
            return false;
        }
        let mut v = Vec::with_capacity(4 + head.len());
        v.extend_from_slice(&(total as u32).to_le_bytes());
        v.extend_from_slice(&head);
        self.push(Bytes::from(v), None, metrics);
        match tail {
            Some(t) => {
                self.push(payload, None, metrics);
                self.push(Bytes::from(t.to_vec()), Some((4 + total, kind)), metrics);
            }
            None => self.push(payload, Some((4 + total, kind)), metrics),
        }
        true
    }

    /// Writes as much as the socket will take. Returns completed reply
    /// frames (their owed slots free up) and how the attempt ended.
    fn flush(&mut self, stream: &mut TcpStream, metrics: &ServiceMetrics) -> (usize, FlushOutcome) {
        let mut replies = 0;
        loop {
            // Pop chunks that are already fully written (including any
            // zero-length ones) before gathering.
            while let Some(front) = self.q.front() {
                if front.pos < front.buf.len() {
                    break;
                }
                if matches!(front.end_of_frame, Some((_, Kind::Reply))) {
                    replies += 1;
                }
                self.q.pop_front();
            }
            if self.q.is_empty() {
                return (replies, FlushOutcome::Drained);
            }
            // Gather the front chunks into one vectored write: a frame
            // split into prefix/head, payload and trace-tail chunks leaves
            // in a single syscall, not one small TCP segment per chunk.
            let mut iov = [std::io::IoSlice::new(&[]); 8];
            let mut n_iov = 0;
            for p in self.q.iter() {
                if n_iov == iov.len() {
                    break;
                }
                if p.pos < p.buf.len() {
                    iov[n_iov] = std::io::IoSlice::new(&p.buf[p.pos..]);
                    n_iov += 1;
                }
            }
            match stream.write_vectored(&iov[..n_iov]) {
                Ok(0) => return (replies, FlushOutcome::Broken),
                Ok(mut n) => {
                    self.bytes -= n;
                    metrics.sub(Counter::ReactorWriteQueueBytes, n as u64);
                    while n > 0 {
                        let front = self.q.front_mut().expect("wrote beyond queued bytes");
                        let take = n.min(front.buf.len() - front.pos);
                        front.pos += take;
                        n -= take;
                        if front.pos == front.buf.len() {
                            if matches!(front.end_of_frame, Some((_, Kind::Reply))) {
                                replies += 1;
                            }
                            self.q.pop_front();
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return (replies, FlushOutcome::Blocked)
                }
                Err(_) => return (replies, FlushOutcome::Broken),
            }
        }
    }

    /// Drops everything (broken sink), returning how many queued reply
    /// frames were discarded so their owed slots free up. Frames that
    /// never fully flushed are uncounted from the totals they were
    /// committed to.
    fn discard(&mut self, metrics: &ServiceMetrics) -> usize {
        let mut replies = 0;
        for p in self.q.drain(..) {
            match p.end_of_frame {
                Some((wire, Kind::Relay)) => {
                    metrics.sub(Counter::RelayFramesSent, 1);
                    metrics.sub(Counter::TransportBytesSent, wire as u64);
                }
                Some((wire, kind)) => {
                    metrics.frame_send_aborted(wire, kind == Kind::Control);
                    replies += usize::from(kind == Kind::Reply);
                }
                None => {}
            }
        }
        metrics.sub(Counter::ReactorWriteQueueBytes, self.bytes as u64);
        self.bytes = 0;
        replies
    }
}

/// One connection's entire engine-side state, owned by its reactor thread.
struct Conn {
    stream: TcpStream,
    token: u64,
    state: ConnState,
    /// Dialed by this side (a backend link) rather than accepted.
    outbound: bool,
    decoder: FrameDecoder,
    writes: WriteQueue,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Protocol version negotiated at the handshake (0 until a `Hello`
    /// passed). Trace extensions and v2 frames only go to peers at ≥ 2.
    version: u32,
    /// Replies owed to the peer: work the handler accepted whose reply
    /// bytes are not yet flushed (or discarded). Draining waits for zero.
    owed: usize,
    /// A `Welcome` went out, so the active-connections gauge is owed a
    /// decrement.
    welcomed: bool,
    /// A write failed or stalled out: never write again (the byte stream
    /// may sit mid-frame), just settle accounting.
    sink_broken: bool,
    /// Queued for the next flush pass.
    dirty: bool,
    last_activity: Instant,
    last_write_progress: Instant,
    /// Generation of the currently-armed Idle timer (stale fires ignored).
    idle_gen: u64,
    /// Generation of the currently-armed WriteStall timer.
    write_gen: u64,
    write_timer_armed: bool,
}

/// The reactor's plumbing, split from the connection map so a connection
/// and the plumbing can be borrowed together.
struct Cx {
    core: Arc<Core>,
    poller: Poller,
    wheel: TimerWheel,
    next_token: u64,
    /// Connections with queued bytes or changed accounting, flushed after
    /// the current callback.
    dirty: Vec<u64>,
    /// Handler notifications raised by the engine: `(token, closed)` —
    /// closed, or else the peer was lost.
    notes: Vec<(u64, bool)>,
}

/// A reactor's connections, as its [`Handler`] sees them. Every method
/// takes the connection's token; a token that has closed is ignored.
/// Queued frames are flushed when the current callback returns.
pub struct Io {
    conns: HashMap<u64, Conn>,
    cx: Cx,
}

impl Io {
    /// The connection's state, `None` once it is gone.
    pub fn state(&self, conn: u64) -> Option<ConnState> {
        self.conns.get(&conn).map(|c| c.state)
    }

    /// The protocol version negotiated with the connection's peer.
    pub fn version(&self, conn: u64) -> u32 {
        self.conns.get(&conn).map_or(0, |c| c.version)
    }

    /// How long since bytes last arrived from the connection's peer.
    pub fn idle_for(&self, conn: u64) -> Duration {
        self.conns
            .get(&conn)
            .map_or(Duration::MAX, |c| c.last_activity.elapsed())
    }

    /// The engine is shutting down.
    pub fn stopping(&self) -> bool {
        self.cx.core.stop.load(Ordering::SeqCst)
    }

    /// Takes one owed-reply slot, returning how many were owed before.
    pub fn owe(&mut self, conn: u64) -> usize {
        self.conns.get_mut(&conn).map_or(0, |c| {
            c.owed += 1;
            c.owed - 1
        })
    }

    /// Answers a pending `Hello` and establishes the connection, advertising
    /// these limits. Returns `false` if the connection is not awaiting one.
    pub fn welcome(&mut self, conn: u64, max_in_flight: u32, max_frame_len: u64) -> bool {
        let Some(c) = self.conns.get_mut(&conn) else {
            return false;
        };
        if c.state != ConnState::Handshaking || c.version == 0 {
            return false;
        }
        let cx = &mut self.cx;
        let welcome = Frame::Welcome {
            version: c.version,
            max_in_flight,
            max_frame_len,
        };
        c.writes
            .push_frame(&welcome, Kind::Control, &cx.core.metrics);
        cx.core.metrics.conn_opened();
        c.welcomed = true;
        c.state = ConnState::Established;
        // Swap the handshake deadline for the (usually longer, possibly
        // shorter) idle deadline.
        let at = c.last_activity + cx.core.config.idle_timeout;
        arm_idle(c, cx, at);
        touch(c, cx);
        true
    }

    /// Refuses the handshake with `reason` (counted as a rejected
    /// connection), then closes once the `Reject` is flushed.
    pub fn reject(&mut self, conn: u64, reason: String) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        let cx = &mut self.cx;
        cx.core.metrics.add(Counter::ConnectionsRejected, 1);
        c.writes
            .push_frame(&Frame::Reject { reason }, Kind::Control, &cx.core.metrics);
        enter_draining(c, cx);
    }

    /// Queues one frame. Returns `false` if the connection can no longer be
    /// written to.
    pub fn send(&mut self, conn: u64, frame: &Frame) -> bool {
        let Some(c) = writable(&mut self.conns, conn) else {
            return false;
        };
        let kind = match frame {
            _ if c.outbound => Kind::Relay,
            Frame::Reply { .. } => Kind::Reply,
            _ => Kind::Control,
        };
        c.writes.push_frame(frame, kind, &self.cx.core.metrics);
        touch(c, &mut self.cx);
        true
    }

    /// Queues the reply that settles one owed slot. A successful result is
    /// written without copying its serialized bytes into a frame buffer,
    /// carrying `request_id` as its job id (the id the caller's handle
    /// knows); `trace` is echoed to peers that negotiated protocol ≥ 2.
    /// On a connection that can no longer be written the slot is settled
    /// unwritten.
    pub fn reply(
        &mut self,
        conn: u64,
        request_id: u64,
        result: Result<JobResult, CloudError>,
        trace: TraceId,
    ) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        let cx = &mut self.cx;
        let trace = (c.version >= 2 && !trace.is_none()).then_some(trace);
        let metrics = &cx.core.metrics;
        let written = if c.sink_broken || c.state == ConnState::Closed {
            false
        } else {
            match result {
                Ok(mut r) => {
                    r.job_id = request_id;
                    let bytes = r.to_bytes();
                    let head = frame::reply_ok_head(request_id, bytes.len());
                    let ok = c
                        .writes
                        .push_split(head, bytes, trace, Kind::Reply, metrics);
                    if !ok {
                        // Un-encodable (>4 GiB): the framing cannot carry it.
                        mark_sink_broken(c, cx);
                    }
                    ok
                }
                Err(e) => {
                    let reply = Frame::Reply {
                        request_id,
                        result: Err(e),
                        trace,
                    };
                    c.writes.push_frame(&reply, Kind::Reply, metrics);
                    true
                }
            }
        };
        if !written {
            c.owed = c.owed.saturating_sub(1);
        }
        touch(c, cx);
    }

    /// Queues a `Submit` on a dialed link with its payload uncopied; `trace`
    /// rides only to peers that negotiated protocol ≥ 2. Returns `false` if
    /// the link can no longer be written to.
    pub fn submit(&mut self, conn: u64, request_id: u64, payload: Bytes, trace: TraceId) -> bool {
        let Some(c) = writable(&mut self.conns, conn) else {
            return false;
        };
        let trace = (c.version >= 2 && !trace.is_none()).then_some(trace);
        let head = frame::submit_head(request_id, payload.len());
        let metrics = &self.cx.core.metrics;
        if !c
            .writes
            .push_split(head, payload, trace, Kind::Relay, metrics)
        {
            mark_sink_broken(c, &mut self.cx);
            return false;
        }
        touch(c, &mut self.cx);
        true
    }

    /// Stops reading; the connection closes once nothing is owed.
    pub fn drain(&mut self, conn: u64) {
        if let Some(c) = self.conns.get_mut(&conn) {
            enter_draining(c, &mut self.cx);
        }
    }

    /// Closes the connection now, discarding anything unflushed.
    pub fn close(&mut self, conn: u64) {
        if let Some(c) = self.conns.get_mut(&conn) {
            close_conn(c, &mut self.cx);
        }
    }

    /// Adopts a socket connected to a server and sends a `Hello` offering
    /// `api_key`; the server's `Welcome` establishes the link
    /// ([`Handler::on_welcome`]), anything else or the handshake deadline
    /// closes it. A link counts its traffic as relayed and is pinged when
    /// nothing was written to it for [`TransportConfig::keepalive_interval`].
    /// Returns its token, or `None` if it could not be registered.
    pub fn connect(&mut self, stream: TcpStream, api_key: Option<String>) -> Option<u64> {
        let mut c = open(&mut self.cx, stream, true)?;
        let token = c.token;
        c.writes
            .push_frame(&hello(api_key), Kind::Relay, &self.cx.core.metrics);
        touch(&mut c, &mut self.cx);
        self.conns.insert(token, c);
        Some(token)
    }

    /// Arms [`Handler::on_timer`] for `conn` at `at`.
    pub fn arm(&mut self, conn: u64, at: Instant) {
        self.cx.wheel.insert(at, conn, TimerKind::Handler, 0);
    }
}

/// The connection, if it can still be written to.
fn writable(conns: &mut HashMap<u64, Conn>, conn: u64) -> Option<&mut Conn> {
    conns
        .get_mut(&conn)
        .filter(|c| c.state != ConnState::Closed && !c.sink_broken)
}

/// Registers a fresh socket and builds its connection, Handshaking under
/// the handshake deadline.
fn open(cx: &mut Cx, stream: TcpStream, outbound: bool) -> Option<Conn> {
    let _ = stream.set_nodelay(true);
    stream.set_nonblocking(true).ok()?;
    let token = cx.next_token;
    cx.poller
        .register(stream.as_raw_fd(), token, Interest::READABLE)
        .ok()?;
    cx.next_token += 1;
    cx.core.metrics.add(Counter::ReactorRegisteredFds, 1);
    let now = Instant::now();
    let mut c = Conn {
        stream,
        token,
        state: ConnState::Handshaking,
        outbound,
        decoder: FrameDecoder::for_peer(if outbound {
            FrameOrigin::Server
        } else {
            FrameOrigin::Client
        }),
        writes: WriteQueue::default(),
        interest: Interest::READABLE,
        version: 0,
        owed: 0,
        welcomed: false,
        sink_broken: false,
        dirty: false,
        last_activity: now,
        last_write_progress: now,
        idle_gen: 0,
        write_gen: 0,
        write_timer_armed: false,
    };
    let at = now + cx.core.config.handshake_timeout;
    arm_idle(&mut c, cx, at);
    Some(c)
}

/// (Re-)arms the connection's one Idle timer; older generations go stale.
fn arm_idle(c: &mut Conn, cx: &mut Cx, at: Instant) {
    c.idle_gen += 1;
    cx.wheel.insert(at, c.token, TimerKind::Idle, c.idle_gen);
}

/// Queues the connection for the flush pass that ends the current callback.
fn touch(c: &mut Conn, cx: &mut Cx) {
    if !c.dirty {
        c.dirty = true;
        cx.dirty.push(c.token);
    }
}

/// Flushes the write queue, updates interest/timers, and completes a drain
/// when everything owed has been settled.
fn flush(c: &mut Conn, cx: &mut Cx) {
    c.dirty = false;
    if c.state == ConnState::Closed {
        return;
    }
    if !c.sink_broken && !c.writes.is_empty() {
        let metrics = Arc::clone(&cx.core.metrics);
        let tel = metrics.telemetry();
        let flush_started = tel.enabled().then(Instant::now);
        let bytes_before = c.writes.bytes;
        let (replies, outcome) = c.writes.flush(&mut c.stream, &metrics);
        c.owed = c.owed.saturating_sub(replies);
        if c.writes.bytes < bytes_before {
            // Any bytes accepted count as progress for the stall timer;
            // Blocked with zero bytes written does not.
            c.last_write_progress = Instant::now();
            if let Some(t0) = flush_started {
                tel.record(Stage::ReactorFlush, t0.elapsed());
            }
        }
        match outcome {
            FlushOutcome::Drained => {}
            FlushOutcome::Blocked => {
                if !c.write_timer_armed {
                    c.write_timer_armed = true;
                    c.write_gen += 1;
                    let at = c.last_write_progress + cx.core.config.write_timeout;
                    cx.wheel
                        .insert(at, c.token, TimerKind::WriteStall, c.write_gen);
                }
            }
            FlushOutcome::Broken => {
                mark_sink_broken(c, cx);
                return;
            }
        }
    }
    let want = Interest {
        readable: c.state.reading(),
        writable: !c.writes.is_empty() && !c.sink_broken,
    };
    if want != c.interest
        && cx
            .poller
            .reregister(c.stream.as_raw_fd(), c.token, want)
            .is_ok()
    {
        c.interest = want;
    }
    if c.state == ConnState::Draining && c.owed == 0 && (c.writes.is_empty() || c.sink_broken) {
        close_conn(c, cx);
    }
}

/// The socket can no longer be written: tear it down, discard queued bytes,
/// and keep settling owed replies without writing.
fn mark_sink_broken(c: &mut Conn, cx: &mut Cx) {
    if c.sink_broken {
        return;
    }
    c.sink_broken = true;
    // Nothing can ever reach the peer again — its orphaned work may as
    // well find out now instead of at close time.
    cx.notes.push((c.token, false));
    let discarded = c.writes.discard(&cx.core.metrics);
    c.owed = c.owed.saturating_sub(discarded);
    let _ = c.stream.shutdown(Shutdown::Both);
    enter_draining(c, cx);
    touch(c, cx);
}

/// Stops reading; the connection now exists only to settle what it owes.
fn enter_draining(c: &mut Conn, cx: &mut Cx) {
    if !c.state.reading() {
        return;
    }
    c.state = ConnState::Draining;
    let _ = c.stream.shutdown(Shutdown::Read);
    touch(c, cx);
}

/// Terminal: releases the fd, the session slot and the gauges.
fn close_conn(c: &mut Conn, cx: &mut Cx) {
    if c.state == ConnState::Closed {
        return;
    }
    c.state = ConnState::Closed;
    let metrics = &cx.core.metrics;
    if cx.poller.deregister(c.stream.as_raw_fd()).is_ok() {
        metrics.sub(Counter::ReactorRegisteredFds, 1);
    }
    let _ = c.stream.shutdown(Shutdown::Both);
    c.writes.discard(metrics);
    if c.welcomed {
        metrics.sub(Counter::ConnectionsActive, 1);
    }
    if !c.outbound {
        cx.core.sessions.fetch_sub(1, Ordering::SeqCst);
    }
    cx.notes.push((c.token, true));
}

/// One event-loop thread: the handler plus the connections it owns.
struct Reactor<H: Handler> {
    io: Io,
    handler: H,
    mailbox: Mailbox<H::Msg>,
    wake_rx: WakeReceiver,
    /// Reused buffers for poll results and fired timers.
    events: Vec<Event>,
    fired: Vec<Fired>,
    /// The Prometheus exporter's listener (reactor 0 only).
    exporter: Option<TcpListener>,
    /// In-progress exporter scrapes, keyed by poller token.
    http_conns: HashMap<u64, HttpConn>,
    stop_applied: bool,
}

/// One Prometheus scrape in flight: read the request head, write one
/// `HTTP/1.0` response, close. No keep-alive, no routing — every path gets
/// the metrics body.
struct HttpConn {
    stream: TcpStream,
    /// Request bytes read so far (only until the header terminator).
    request: Vec<u8>,
    /// The rendered response once the request head is complete.
    response: Option<Bytes>,
    /// Bytes of `response` already written.
    written: usize,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl<H: Handler> Reactor<H> {
    fn run(mut self) {
        loop {
            let timeout = self
                .io
                .cx
                .wheel
                .next_deadline()
                .map(|dl| dl.saturating_duration_since(Instant::now()));
            let mut events = std::mem::take(&mut self.events);
            if self.io.cx.poller.wait(&mut events, timeout).is_err() {
                // A broken poller would spin; back off and keep draining via
                // wake-ups and timers.
                std::thread::sleep(Duration::from_millis(1));
            }
            let core = Arc::clone(&self.io.cx.core);
            core.metrics
                .add(Counter::ReactorEvents, events.len() as u64);
            // Read stop *after* wait: the shutdown kick interrupts the wait,
            // and this ordering guarantees the same iteration that drains
            // the kick also observes the flag and applies it.
            let stopped = core.stop.load(Ordering::SeqCst);
            for ev in &events {
                if ev.token == WAKER_TOKEN {
                    self.wake_rx.drain();
                } else if ev.token == EXPORTER_TOKEN {
                    self.accept_http(stopped);
                } else if self.http_conns.contains_key(&ev.token) {
                    self.handle_http_io(ev.token, ev.readable);
                } else {
                    self.handle_io(ev.token, ev.readable, ev.writable);
                }
            }
            self.events = events;

            let inbox = std::mem::take(&mut *self.mailbox.0.inbox.lock());
            for item in inbox {
                match item {
                    Inbound::Accepted(stream) => self.adopt(stream, stopped),
                    Inbound::Msg(msg) => self.handler.on_message(&mut self.io, msg),
                }
                self.settle();
            }
            if stopped {
                self.apply_stop();
            }

            let mut fired = std::mem::take(&mut self.fired);
            self.io.cx.wheel.advance(Instant::now(), &mut fired);
            for f in fired.drain(..) {
                self.handle_timer(f);
                self.settle();
            }
            self.fired = fired;

            self.io.conns.retain(|_, c| c.state != ConnState::Closed);
            if stopped && self.io.conns.is_empty() && self.mailbox.0.inbox.lock().is_empty() {
                self.io
                    .cx
                    .poller
                    .deregister(self.wake_rx.fd())
                    .expect("deregister reactor waker");
                core.metrics.sub(Counter::ReactorRegisteredFds, 1);
                return;
            }
        }
    }

    /// Flushes every touched connection and delivers the engine's
    /// notifications, until neither produces more.
    fn settle(&mut self) {
        loop {
            for token in std::mem::take(&mut self.io.cx.dirty) {
                if let Some(c) = self.io.conns.get_mut(&token) {
                    flush(c, &mut self.io.cx);
                }
            }
            if self.io.cx.notes.is_empty() {
                return;
            }
            for (token, closed) in std::mem::take(&mut self.io.cx.notes) {
                if closed {
                    self.handler.on_close(&mut self.io, token);
                } else {
                    self.handler.on_peer_lost(&mut self.io, token);
                }
            }
        }
    }

    /// Registers a connection the acceptor handed over. Under stop it is
    /// closed instead (the acceptor has already quit; this one raced the
    /// flag).
    fn adopt(&mut self, stream: TcpStream, stopped: bool) {
        match open(&mut self.io.cx, stream, false).filter(|_| !stopped) {
            Some(c) => {
                self.io.conns.insert(c.token, c);
            }
            None => {
                self.io.cx.core.sessions.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Readiness for one connection's socket.
    fn handle_io(&mut self, token: u64, readable: bool, writable: bool) {
        let Some(c) = self.io.conns.get_mut(&token) else {
            return; // stale event for an already-closed token
        };
        if writable {
            flush(c, &mut self.io.cx);
        }
        if readable {
            self.read(token);
        }
        self.settle();
    }

    /// Reads everything the socket has, decoding and dispatching frames as
    /// they complete, until the connection leaves a reading state.
    fn read(&mut self, token: u64) {
        loop {
            let Some(c) = self.io.conns.get_mut(&token).filter(|c| c.state.reading()) else {
                return;
            };
            let cx = &mut self.io.cx;
            match c.decoder.read_from(&mut c.stream) {
                Ok(0) => {
                    // EOF. Mid-frame bytes mean a truncated frame — under
                    // the handshake that counts as a rejected connection.
                    // After it, EOF is an abrupt disconnect: this protocol's
                    // peers never half-close (a graceful leave sends Goodbye
                    // first), so the peer is gone and its work orphaned.
                    let truncated = c.decoder.buffered() > 0;
                    peer_gone(c, cx, truncated);
                    return;
                }
                Ok(_) => {
                    c.last_activity = Instant::now();
                    self.decode(token);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // A read error (reset, broken pipe): same as EOF.
                Err(_) => {
                    peer_gone(c, cx, true);
                    return;
                }
            }
        }
    }

    /// Dispatches every complete frame buffered for `token`.
    fn decode(&mut self, token: u64) {
        loop {
            let Some(c) = self.io.conns.get_mut(&token).filter(|c| c.state.reading()) else {
                return;
            };
            let core = &self.io.cx.core;
            match c.decoder.next_frame(core.config.max_frame_len) {
                Ok(Some((frame, wire))) => {
                    // Job traffic (Submit) moves only the totals; the rest
                    // is protocol overhead and also bumps the control
                    // sub-counter. Backend-face traffic is relayed, never
                    // counted against the client-face totals.
                    match &frame {
                        _ if c.outbound => core.metrics.relay_frame_received(wire),
                        Frame::Submit { .. } => core.metrics.frame_received(wire),
                        _ => core.metrics.control_frame_received(wire),
                    }
                    self.dispatch(token, frame);
                }
                Ok(None) => return,
                // Oversized or malformed input. Before the handshake that is
                // a rejected connection (closed with no reply); afterwards
                // it is a protocol violation that ends the session but still
                // settles owed replies.
                Err(_) if c.state == ConnState::Handshaking => {
                    peer_gone(c, &mut self.io.cx, true);
                    return;
                }
                Err(_) => {
                    enter_draining(c, &mut self.io.cx);
                    return;
                }
            }
        }
    }

    /// One decoded frame against the state machine.
    fn dispatch(&mut self, token: u64, frame: Frame) {
        let c = self
            .io
            .conns
            .get_mut(&token)
            .expect("dispatching a live conn");
        match (c.state, frame) {
            // A dialed link's handshake answer. A refusal (or anything but
            // a Welcome) closes the link, which tells the handler.
            (ConnState::Handshaking, frame) if c.outbound => match Welcome::from_answer(frame) {
                Ok(welcome) => {
                    c.version = welcome.version;
                    c.state = ConnState::Established;
                    let at = Instant::now() + self.io.cx.core.config.keepalive_interval;
                    arm_idle(c, &mut self.io.cx, at);
                    self.handler.on_welcome(&mut self.io, token, welcome);
                }
                Err(_) => self.io.close(token),
            },
            (
                ConnState::Handshaking,
                Frame::Hello {
                    min_version,
                    max_version,
                    api_key,
                },
            ) if c.version == 0 => {
                let version = PROTOCOL_VERSION.min(max_version);
                if version < MIN_PROTOCOL_VERSION.max(min_version) {
                    let reason = format!(
                        "no common protocol version (server speaks \
                         {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}, \
                         client {min_version}..={max_version})"
                    );
                    self.io.reject(token, reason);
                    return;
                }
                c.version = version;
                self.handler.on_hello(&mut self.io, token, version, api_key);
            }
            // Anything but one Hello before the Welcome is refused.
            (ConnState::Handshaking, _) => self.io.reject(token, "expected Hello".into()),
            (_, Frame::Ping { nonce }) if !c.outbound => {
                self.io.send(token, &Frame::Pong { nonce });
            }
            (_, Frame::Pong { .. }) if c.outbound => {}
            (_, frame) => self.handler.on_frame(&mut self.io, token, frame),
        }
    }

    /// Stop ordering: every connection that could still start work stops
    /// being able to (handshakes die, established connections drain), and
    /// only then does this reactor count as stopped.
    fn apply_stop(&mut self) {
        // The exporter dies first: no new scrapes, and in-flight ones are
        // dropped (a scraper retries; a half-written metrics page is junk
        // either way once the server is gone).
        let metrics = Arc::clone(&self.io.cx.core.metrics);
        let poller = &mut self.io.cx.poller;
        if let Some(listener) = self.exporter.take() {
            if poller.deregister(listener.as_raw_fd()).is_ok() {
                metrics.sub(Counter::ReactorRegisteredFds, 1);
            }
        }
        for (_, http) in self.http_conns.drain() {
            if poller.deregister(http.stream.as_raw_fd()).is_ok() {
                metrics.sub(Counter::ReactorRegisteredFds, 1);
            }
            let _ = http.stream.shutdown(Shutdown::Both);
        }
        let Io { conns, cx } = &mut self.io;
        for c in conns.values_mut() {
            match c.state {
                ConnState::Handshaking => close_conn(c, cx),
                ConnState::Established => enter_draining(c, cx),
                ConnState::Draining | ConnState::Closed => {}
            }
        }
        self.settle();
        if !self.stop_applied {
            self.stop_applied = true;
            self.io.cx.core.stopped.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A deadline fired; stale generations and states that outgrew the
    /// timer are ignored (lazy cancellation).
    fn handle_timer(&mut self, f: Fired) {
        if f.kind == TimerKind::Handler {
            if self
                .io
                .state(f.token)
                .is_some_and(|s| s != ConnState::Closed)
            {
                self.handler.on_timer(&mut self.io, f.token);
            }
            return;
        }
        let Io { conns, cx } = &mut self.io;
        let Some(c) = conns.get_mut(&f.token) else {
            return;
        };
        let core = Arc::clone(&cx.core);
        let config = &core.config;
        match f.kind {
            TimerKind::Handler => {}
            TimerKind::Idle if f.generation != c.idle_gen => {}
            // On an established dialed link the Idle timer is the
            // keep-alive: ping when nothing was written for a whole interval.
            TimerKind::Idle if c.outbound && c.state == ConnState::Established => {
                let due = c.last_write_progress + config.keepalive_interval;
                if Instant::now() >= due {
                    let ping = Frame::Ping { nonce: c.idle_gen };
                    c.writes.push_frame(&ping, Kind::Relay, &core.metrics);
                    touch(c, cx);
                    arm_idle(c, cx, Instant::now() + config.keepalive_interval);
                } else {
                    arm_idle(c, cx, due);
                }
            }
            TimerKind::Idle => {
                let budget = match c.state {
                    // The client's Hello passed: the handler holds the
                    // answer (it may be dialing for it), so no deadline.
                    ConnState::Handshaking if c.version != 0 => return,
                    ConnState::Handshaking => config.handshake_timeout,
                    ConnState::Established => config.idle_timeout,
                    // Draining ignores idleness: it lives until its replies
                    // are settled (the write-stall timer bounds that).
                    ConnState::Draining | ConnState::Closed => return,
                };
                if c.last_activity.elapsed() < budget {
                    // Activity moved the deadline; re-arm lazily.
                    arm_idle(c, cx, c.last_activity + budget);
                } else if c.state == ConnState::Handshaking {
                    // A silent opener (or, on a dialed link, a silent
                    // server) is not a protocol offense — just close.
                    close_conn(c, cx);
                } else {
                    enter_draining(c, cx);
                }
            }
            TimerKind::WriteStall => {
                if f.generation != c.write_gen {
                    return;
                }
                c.write_timer_armed = false;
                if c.writes.is_empty() || c.sink_broken || c.state == ConnState::Closed {
                    return;
                }
                if c.last_write_progress.elapsed() >= config.write_timeout {
                    mark_sink_broken(c, cx);
                } else {
                    c.write_timer_armed = true;
                    c.write_gen += 1;
                    let at = c.last_write_progress + config.write_timeout;
                    cx.wheel
                        .insert(at, c.token, TimerKind::WriteStall, c.write_gen);
                }
            }
        }
    }

    /// Accepts pending exporter connections onto this reactor's poller.
    fn accept_http(&mut self, stopped: bool) {
        let Some(listener) = &self.exporter else {
            return;
        };
        let cx = &mut self.io.cx;
        while let Ok((stream, _peer)) = listener.accept() {
            if stopped || stream.set_nonblocking(true).is_err() {
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            let token = cx.next_token;
            if cx
                .poller
                .register(stream.as_raw_fd(), token, Interest::READABLE)
                .is_err()
            {
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            cx.next_token += 1;
            cx.core.metrics.add(Counter::ReactorRegisteredFds, 1);
            self.http_conns.insert(
                token,
                HttpConn {
                    stream,
                    request: Vec::new(),
                    response: None,
                    written: 0,
                    interest: Interest::READABLE,
                },
            );
        }
    }

    /// Drives one exporter scrape: read until the request head is complete,
    /// render the metrics page once, write it out, close.
    fn handle_http_io(&mut self, token: u64, readable: bool) {
        let Some(http) = self.http_conns.get_mut(&token) else {
            return;
        };
        let cx = &mut self.io.cx;
        let mut dead = false;
        if readable && http.response.is_none() {
            let mut buf = [0u8; 1024];
            loop {
                match http.stream.read(&mut buf) {
                    Ok(0) => {
                        // EOF before the terminator: answer what we have
                        // anyway (curl-with---http0.9-style minimal peers).
                        break;
                    }
                    Ok(n) => {
                        http.request.extend_from_slice(&buf[..n]);
                        if http.request.len() >= HTTP_REQUEST_CAP
                            || http.request.windows(4).any(|w| w == b"\r\n\r\n")
                        {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        if http.request.is_empty()
                            || !http.request.windows(4).any(|w| w == b"\r\n\r\n")
                        {
                            return; // head still incomplete; wait for more
                        }
                        break;
                    }
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead {
                let body = cx.core.metrics.snapshot().to_prometheus();
                let mut resp = Vec::with_capacity(body.len() + 128);
                resp.extend_from_slice(b"HTTP/1.0 200 OK\r\n");
                resp.extend_from_slice(b"Content-Type: text/plain; version=0.0.4\r\n");
                resp.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
                resp.extend_from_slice(b"Connection: close\r\n\r\n");
                resp.extend_from_slice(body.as_bytes());
                http.response = Some(Bytes::from(resp));
            }
        }
        if !dead {
            if let Some(resp) = &http.response {
                let done = loop {
                    if http.written >= resp.len() {
                        break true;
                    }
                    match http.stream.write(&resp[http.written..]) {
                        Ok(0) => break true,
                        Ok(n) => http.written += n,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                        Err(_) => break true,
                    }
                };
                if !done {
                    let want = Interest {
                        readable: false,
                        writable: true,
                    };
                    if http.interest != want
                        && cx
                            .poller
                            .reregister(http.stream.as_raw_fd(), token, want)
                            .is_ok()
                    {
                        http.interest = want;
                    }
                    return; // the write resumes on the next event
                }
                dead = true; // response fully written (or broken): close
            }
        }
        if dead {
            if cx.poller.deregister(http.stream.as_raw_fd()).is_ok() {
                cx.core.metrics.sub(Counter::ReactorRegisteredFds, 1);
            }
            let _ = http.stream.shutdown(Shutdown::Both);
            self.http_conns.remove(&token);
        }
    }
}

/// The peer vanished (EOF or read error) or broke the framing (`offense`).
/// Before the handshake completes that just closes — an accepted one
/// counted as rejected when there was an offense; afterwards the peer is
/// lost and the connection drains what it owes.
fn peer_gone(c: &mut Conn, cx: &mut Cx, offense: bool) {
    if c.state == ConnState::Handshaking {
        if offense && !c.outbound {
            cx.core.metrics.add(Counter::ConnectionsRejected, 1);
        }
        close_conn(c, cx);
    } else {
        cx.notes.push((c.token, false));
        enter_draining(c, cx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ServiceMetrics;
    use std::io::Read;
    use std::net::TcpListener;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn write_queue_flushes_split_replies_bitwise_like_whole_frames() {
        use amalgam_nn::metrics::History;
        let metrics = ServiceMetrics::new();
        let (mut server_side, mut client_side) = loopback_pair();
        let result = JobResult {
            job_id: 3,
            trained_model: Bytes::from(vec![9u8; 1000]),
            history: History::new(),
            bytes_received: 1,
            bytes_sent: 2,
            train_seconds: 0.1,
        };
        let mut q = WriteQueue::default();
        let bytes = result.to_bytes();
        let head = frame::reply_ok_head(3, bytes.len());
        assert!(q.push_split(head, bytes, None, Kind::Reply, &metrics));
        loop {
            let (_, outcome) = q.flush(&mut server_side, &metrics);
            match outcome {
                FlushOutcome::Drained => break,
                FlushOutcome::Blocked => std::thread::sleep(Duration::from_millis(1)),
                FlushOutcome::Broken => panic!("loopback write broke"),
            }
        }
        assert_eq!(q.bytes, 0);

        let mut expect = Vec::new();
        frame::write_frame(
            &mut expect,
            &Frame::Reply {
                request_id: 3,
                result: Ok(result),
                trace: None,
            },
        )
        .unwrap();
        let mut got = vec![0u8; expect.len()];
        client_side.read_exact(&mut got).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn write_queue_survives_one_byte_at_a_time_sinks() {
        // Stuttering sink: accepts one byte, then WouldBlocks, alternating —
        // the slow-loris of the write side. Every boundary must be safe.
        struct Stutter {
            out: Vec<u8>,
            ready: bool,
        }
        impl Write for Stutter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.ready {
                    self.ready = false;
                    self.out.push(buf[0]);
                    Ok(1)
                } else {
                    self.ready = true;
                    Err(std::io::Error::from(ErrorKind::WouldBlock))
                }
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let metrics = ServiceMetrics::new();
        let mut q = WriteQueue::default();
        q.push_frame(&Frame::Pong { nonce: 7 }, Kind::Control, &metrics);
        q.push_frame(
            &Frame::Reply {
                request_id: 1,
                result: Err(CloudError::ServiceUnavailable),
                trace: None,
            },
            Kind::Reply,
            &metrics,
        );

        let mut sink = Stutter {
            out: Vec::new(),
            ready: false,
        };
        let mut reply_frames = 0;
        // Emulate flush() against a generic Write (flush() itself wants a
        // TcpStream, so drive the queue's chunks directly).
        while let Some(front) = q.q.front_mut() {
            if front.pos < front.buf.len() {
                match sink.write(&front.buf[front.pos..]) {
                    Ok(n) => {
                        front.pos += n;
                        q.bytes -= n;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            if front.pos == front.buf.len() {
                if matches!(front.end_of_frame, Some((_, Kind::Reply))) {
                    reply_frames += 1;
                }
                q.q.pop_front();
            }
        }
        assert_eq!(reply_frames, 1);
        assert_eq!(q.bytes, 0);

        let mut expect = Vec::new();
        frame::write_frame(&mut expect, &Frame::Pong { nonce: 7 }).unwrap();
        frame::write_frame(
            &mut expect,
            &Frame::Reply {
                request_id: 1,
                result: Err(CloudError::ServiceUnavailable),
                trace: None,
            },
        )
        .unwrap();
        assert_eq!(sink.out, expect);
    }

    #[test]
    fn discarding_a_queue_frees_reply_slots_and_the_gauge() {
        let metrics = ServiceMetrics::new();
        let mut q = WriteQueue::default();
        q.push_frame(&Frame::Pong { nonce: 1 }, Kind::Control, &metrics);
        let head = frame::reply_ok_head(2, 17);
        q.push_split(
            head,
            Bytes::from_static(b"not a real result"),
            None,
            Kind::Reply,
            &metrics,
        );
        q.push_frame(
            &Frame::Reply {
                request_id: 3,
                result: Err(CloudError::ServiceUnavailable),
                trace: None,
            },
            Kind::Reply,
            &metrics,
        );
        q.push_frame(&Frame::Goodbye, Kind::Relay, &metrics);
        assert!(metrics.snapshot().reactor_write_queue_bytes > 0);
        let replies = q.discard(&metrics);
        assert_eq!(replies, 2);
        let stats = metrics.snapshot();
        assert_eq!(stats.reactor_write_queue_bytes, 0);
        // The aborted Pong unwinds its control sub-count with the totals,
        // and the aborted relay frame its relay count.
        assert!(stats.control_frames_sent <= stats.frames_sent, "{stats}");
        assert_eq!((stats.frames_sent, stats.control_frames_sent), (0, 0));
        assert_eq!(
            (stats.relay_frames_sent, stats.transport_bytes_sent),
            (0, 0)
        );
        assert!(q.is_empty());
    }
}
