//! Service telemetry: lock-free counters shared by the client handles, the
//! metrics layer and the worker pool — plus a per-session table keyed by
//! [`SessionKey`] for the QoS counters — snapshot into [`ServiceStats`].
//!
//! Every scalar of [`ServiceStats`] is one row of the `stats_table!` below
//! (field, [`Counter`] slot, `Display` section, Prometheus name and HELP),
//! from which the counter array, snapshot, `Stats` wire codec, Prometheus
//! gauges and `Display` rows are all derived. **Table order is wire
//! order**: append rows, never reorder (a golden test pins the bytes).

use crate::middleware::SessionKey;
use crate::protocol::JobResult;
use crate::telemetry::{HistogramSnapshot, Stage, Telemetry, TelemetryConfig};
use crate::CloudError;
use amalgam_tensor::wire::{Reader, Writer};
use amalgam_tensor::TensorError;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How one value crosses the `Stats` wire: every table scalar, every
/// backend/session row field, and the row lists themselves.
trait Wire: Sized {
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader) -> Result<Self, CloudError>;
}

fn stats_err(e: TensorError) -> CloudError {
    CloudError::Decode(e.to_string())
}

/// `Wire` for the fixed-width numbers; a `usize` travels as a `u64`.
macro_rules! wire_number {
    ($($ty:ty => $put:ident($wire:ty), $get:ident;)*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                w.$put(*self as $wire);
            }
            fn get(r: &mut Reader) -> Result<$ty, CloudError> {
                Ok(r.$get().map_err(stats_err)? as $ty)
            }
        }
    )*};
}

wire_number! {
    u64 => put_u64(u64), get_u64;
    usize => put_u64(u64), get_u64;
    f64 => put_f64(f64), get_f64;
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn get(r: &mut Reader) -> Result<String, CloudError> {
        r.get_str().map_err(stats_err)
    }
}

impl Wire for BackendHealth {
    fn put(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
    fn get(r: &mut Reader) -> Result<BackendHealth, CloudError> {
        let tag = r.get_u8().map_err(stats_err)?;
        [
            BackendHealth::Closed,
            BackendHealth::Open,
            BackendHealth::HalfOpen,
        ]
        .get(tag as usize)
        .copied()
        .ok_or_else(|| CloudError::Decode(format!("unknown health tag {tag}")))
    }
}

impl Wire for (Stage, HistogramSnapshot) {
    fn put(&self, w: &mut Writer) {
        w.put_u8(self.0 as u8);
        self.1.encode_into(w);
    }
    fn get(r: &mut Reader) -> Result<Self, CloudError> {
        let stage = Stage::from_u8(r.get_u8().map_err(stats_err)?)?;
        Ok((stage, HistogramSnapshot::decode_from(r)?))
    }
}

/// A `u32` count, then the items.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.put_u32(self.len() as u32);
        self.iter().for_each(|x| x.put(w));
    }
    fn get(r: &mut Reader) -> Result<Vec<T>, CloudError> {
        (0..r.get_u32().map_err(stats_err)?)
            .map(|_| T::get(r))
            .collect()
    }
}

/// One scalar's presentation metadata, in table order.
struct ScalarRow {
    field: &'static str,
    section: &'static str,
    prom: &'static str,
    help: &'static str,
}

/// Generates [`Counter`], [`ServiceStats`] and their table-driven helpers
/// from the scalar rows. A row reads
/// `field: type [= CounterVariant], section, "prometheus_name", "HELP";`.
/// Rows without a variant are rates, derived in
/// [`ServiceMetrics::snapshot`].
macro_rules! stats_table {
    ($(
        $(#[$doc:meta])*
        $field:ident: $ty:ty $(= $counter:ident)?, $section:ident, $prom:literal, $help:literal;
    )*) => {
        /// One atomic slot of [`ServiceMetrics`]: a tally or gauge behind a
        /// [`ServiceStats`] field. Bump it with [`ServiceMetrics::add`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(
                #[doc = concat!("The [`ServiceStats::", stringify!($field), "`] slot.")]
                $counter,
            )?)*
        }

        impl Counter {
            /// Every counter, in table (and wire) order.
            pub(crate) const ALL: &'static [Counter] = &[$($(Counter::$counter,)?)*];
        }

        const N_COUNTERS: usize = Counter::ALL.len();
        const N_SCALARS: usize = [$(stringify!($field)),*].len();

        const SCALARS: [ScalarRow; N_SCALARS] = [$(ScalarRow {
            field: stringify!($field),
            section: stringify!($section),
            prom: $prom,
            help: $help,
        }),*];

        /// A point-in-time view of the service's telemetry.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct ServiceStats {
            $($(#[$doc])* pub $field: $ty,)*
            /// Per-backend health rows (breaker state, ejections/readmissions,
            /// probe tallies), sorted by address; populated by a routing tier
            /// (`amalgam-proxy`), empty otherwise.
            pub backends: Vec<BackendStats>,
            /// Per-session QoS rows (queue depth, dispatch/shed tallies), sorted by
            /// session name; every session that ever submitted has a row.
            pub sessions: Vec<SessionStats>,
            /// Per-stage latency histograms (only stages that recorded at least
            /// one value), in [`Stage`] order.
            pub histograms: Vec<(Stage, HistogramSnapshot)>,
        }

        impl ServiceStats {
            /// The counters' current values; rates zero, row tables empty.
            fn load(slots: &[AtomicU64; N_COUNTERS]) -> ServiceStats {
                let mut s = ServiceStats::default();
                $($(s.$field = slots[Counter::$counter as usize].load(Ordering::Relaxed) as $ty;)?)*
                s
            }

            /// Each scalar as its `Display` form and Prometheus value.
            fn values(&self) -> [(&dyn fmt::Display, f64); N_SCALARS] {
                [$((&self.$field as &dyn fmt::Display, self.$field as f64)),*]
            }
        }

        impl Wire for ServiceStats {
            fn put(&self, w: &mut Writer) {
                $(self.$field.put(w);)*
                self.backends.put(w);
                self.sessions.put(w);
                self.histograms.put(w);
            }
            fn get(r: &mut Reader) -> Result<ServiceStats, CloudError> {
                Ok(ServiceStats {
                    $($field: Wire::get(r)?,)*
                    backends: Wire::get(r)?,
                    sessions: Wire::get(r)?,
                    histograms: Wire::get(r)?,
                })
            }
        }
    };
}

stats_table! {
    /// Jobs waiting in the channel right now.
    queue_depth: usize = QueueDepth, queue, "queue_depth", "Jobs waiting right now.";
    /// Jobs inside the middleware stack right now.
    in_flight: usize = InFlight, queue, "in_flight", "Jobs inside the stack right now.";
    /// Jobs ever submitted (including rejected ones).
    jobs_submitted: u64 = JobsSubmitted, jobs, "jobs_submitted_total", "Jobs ever submitted.";
    /// Jobs trained to completion.
    jobs_completed: u64 = JobsCompleted, jobs, "jobs_completed_total", "Jobs trained to completion.";
    /// Jobs answered with an error (decode/validation/panic).
    jobs_failed: u64 = JobsFailed, jobs, "jobs_failed_total", "Jobs answered with an error.";
    /// Jobs shed by admission control.
    jobs_rejected: u64 = JobsRejected, jobs, "jobs_rejected_total", "Jobs shed by admission control.";
    /// Jobs whose processing panicked (also counted in `jobs_failed`).
    jobs_panicked: u64 = JobsPanicked, jobs, "jobs_panicked_total", "Jobs whose processing panicked.";
    /// Total uploaded bytes seen by the metrics layer.
    bytes_received: u64 = BytesReceived, bytes, "job_bytes_received_total", "Uploaded job bytes.";
    /// Total bytes returned for completed jobs.
    bytes_sent: u64 = BytesSent, bytes, "job_bytes_sent_total", "Result bytes returned.";
    /// Mean wall-clock seconds per completed job.
    mean_job_seconds: f64, rates, "mean_job_seconds", "Mean wall-clock seconds per completed job.";
    /// Completed jobs per second of service uptime.
    jobs_per_second: f64, rates, "jobs_per_second", "Completed jobs per uptime second.";
    /// Seconds since the service started.
    uptime_seconds: f64, rates, "uptime_seconds", "Seconds since service start.";
    /// TCP sessions that completed a handshake (0 without a
    /// [`crate::CloudServer`] in front).
    connections_accepted: u64 = ConnectionsAccepted, transport, "connections_accepted_total",
        "Sessions that completed a handshake.";
    /// Connections refused before a session existed (capacity, bad
    /// handshake, version mismatch).
    connections_rejected: u64 = ConnectionsRejected, transport, "connections_rejected_total",
        "Connections refused before a session existed.";
    /// Sessions open right now.
    connections_active: usize = ConnectionsActive, transport, "connections_active",
        "Sessions open right now.";
    /// Framed messages received over all sessions (client face for a
    /// routing tier; includes control frames).
    frames_received: u64 = FramesReceived, transport, "frames_received_total",
        "Frames received (client face).";
    /// Framed messages sent over all sessions (client face; includes
    /// control frames).
    frames_sent: u64 = FramesSent, transport, "frames_sent_total", "Frames sent (client face).";
    /// Protocol-overhead frames received (keep-alive Ping/Pong, handshake,
    /// admin) — a sub-count of [`frames_received`](Self::frames_received),
    /// so `frames_received - control_frames_received` tracks job traffic.
    control_frames_received: u64 = ControlFramesReceived, transport,
        "control_frames_received_total",
        "Protocol-overhead frames received (subset of frames_received_total).";
    /// Protocol-overhead frames sent — a sub-count of
    /// [`frames_sent`](Self::frames_sent).
    control_frames_sent: u64 = ControlFramesSent, transport, "control_frames_sent_total",
        "Protocol-overhead frames sent (subset of frames_sent_total).";
    /// Frames a routing tier received on its backend-face links. Kept out
    /// of [`frames_received`](Self::frames_received) so one proxied job is
    /// counted once per face, not twice on one counter.
    relay_frames_received: u64 = RelayFramesReceived, transport, "relay_frames_received_total",
        "Frames received on backend-face links (routing tier).";
    /// Frames a routing tier sent on its backend-face links.
    relay_frames_sent: u64 = RelayFramesSent, transport, "relay_frames_sent_total",
        "Frames sent on backend-face links (routing tier).";
    /// Wire bytes received (frame payloads plus length prefixes).
    transport_bytes_received: u64 = TransportBytesReceived, bytes,
        "transport_bytes_received_total", "Wire bytes received.";
    /// Wire bytes sent (frame payloads plus length prefixes).
    transport_bytes_sent: u64 = TransportBytesSent, bytes, "transport_bytes_sent_total",
        "Wire bytes sent.";
    /// Jobs refused by the per-session rate limiter
    /// ([`crate::CloudError::RateLimited`]).
    jobs_rate_limited: u64 = JobsRateLimited, jobs, "jobs_rate_limited_total",
        "Jobs refused by the per-session rate limiter.";
    /// Sockets currently registered with the transport's event-loop pollers
    /// (connections plus one waker per I/O thread; 0 without a
    /// [`crate::CloudServer`]).
    reactor_registered_fds: usize = ReactorRegisteredFds, reactor, "reactor_registered_fds",
        "Sockets registered with the event-loop pollers.";
    /// Cross-thread wake-ups delivered to the event loops (new connections,
    /// completed jobs, shutdown). Coalesced wakes count once.
    reactor_wakeups: u64 = ReactorWakeups, reactor, "reactor_wakeups_total",
        "Cross-thread event-loop wake-ups.";
    /// Readiness events the event loops have processed.
    reactor_events: u64 = ReactorEvents, reactor, "reactor_events_total",
        "Readiness events processed.";
    /// Bytes sitting in per-connection write queues right now (frames the
    /// sockets weren't ready to take — the backpressure gauge).
    reactor_write_queue_bytes: usize = ReactorWriteQueueBytes, reactor,
        "reactor_write_queue_bytes", "Bytes parked in write queues (backpressure gauge).";
    /// Submissions answered straight from the result cache
    /// ([`crate::CloudServiceBuilder::result_cache`]) — counted in
    /// [`jobs_submitted`](Self::jobs_submitted), but they never occupied
    /// the queue or a worker, so they are *not* in
    /// [`jobs_completed`](Self::jobs_completed).
    cache_hits: u64 = CacheHits, dedup, "cache_hits_total",
        "Submissions answered from the result cache.";
    /// Submissions that attached as waiters to an identical in-flight job
    /// and were answered by its one execution.
    coalesced: u64 = Coalesced, dedup, "coalesced_total",
        "Submissions coalesced onto in-flight duplicates.";
    /// Lost links re-established by a self-healing component (a routing
    /// tier's backend redials; 0 without one in front).
    reconnects: u64 = Reconnects, healing, "reconnects_total", "Lost links re-established.";
    /// In-flight jobs replayed after a reconnect or failover. Replays are
    /// content-addressed, so they dedup instead of training twice.
    jobs_resubmitted: u64 = JobsResubmitted, healing, "jobs_resubmitted_total",
        "In-flight jobs replayed after failover.";
    /// Live sessions that abandoned a dying backend mid-flight.
    failovers: u64 = Failovers, healing, "failovers_total",
        "Sessions that abandoned a dying backend.";
    /// Progress frames emitted toward any sink (one per waiter per epoch).
    /// Conservation law: `progress_frames_emitted ==
    /// progress_frames_delivered + progress_frames_dropped`.
    progress_frames_emitted: u64 = ProgressFramesEmitted, lifecycle,
        "progress_frames_emitted_total", "Progress frames emitted toward any sink.";
    /// Progress frames that reached their sink (queued on a live v2
    /// connection, or received by an in-process handle).
    progress_frames_delivered: u64 = ProgressFramesDelivered, lifecycle,
        "progress_frames_delivered_total", "Progress frames that reached their sink.";
    /// Progress frames dropped (v1 peer, dead handle, broken or closing
    /// connection). Progress is advisory, so drops are legal — but always
    /// counted.
    progress_frames_dropped: u64 = ProgressFramesDropped, lifecycle,
        "progress_frames_dropped_total", "Progress frames dropped (v1 peer or dead sink).";
    /// Jobs resolved with [`crate::CloudError::Cancelled`] (kept out of
    /// [`jobs_failed`](Self::jobs_failed): the submitter asked for this).
    jobs_cancelled: u64 = JobsCancelled, lifecycle, "jobs_cancelled_total",
        "Jobs resolved with Cancelled at the submitter's request.";
    /// Jobs that resumed from a checkpoint instead of recomputing from
    /// epoch 0.
    jobs_resumed: u64 = JobsResumed, lifecycle, "jobs_resumed_total",
        "Jobs resumed from a checkpoint instead of epoch 0.";
    /// Mid-training checkpoints encoded and stored.
    checkpoints_written: u64 = CheckpointsWritten, lifecycle, "checkpoints_written_total",
        "Mid-training checkpoints stored.";
    /// Stored checkpoints that failed validation (checksum, truncation,
    /// impossible epoch) and were scrubbed before an epoch-0 recompute.
    checkpoints_rejected: u64 = CheckpointsRejected, lifecycle, "checkpoints_rejected_total",
        "Corrupt or stale checkpoints scrubbed before recompute.";
    /// Training epochs actually executed. After a kill-and-resume, the
    /// restarted server's count stays strictly below the job's total —
    /// the observable proof that resume skipped work.
    epochs_trained: u64 = EpochsTrained, lifecycle, "epochs_trained_total",
        "Training epochs actually executed.";
}

/// Declares a per-backend or per-session row struct whose fields cross the
/// `Stats` wire in declaration order and render as `name value` pairs in
/// its `Display` line.
macro_rules! stats_row {
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $($(#[$doc:meta])* pub $field:ident: $ty:ty,)* }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $name { $($(#[$doc])* pub $field: $ty,)* }

        impl Wire for $name {
            fn put(&self, w: &mut Writer) {
                $(self.$field.put(w);)*
            }
            fn get(r: &mut Reader) -> Result<$name, CloudError> {
                Ok($name { $($field: Wire::get(r)?,)* })
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                $(write!(f, " {} {}", stringify!($field), self.$field)?;)*
                Ok(())
            }
        }
    };
}

stats_row! {
    /// One backend's slice of a routing tier's telemetry: where its circuit
    /// breaker stands and how often it has been ejected, probed, readmitted,
    /// and failed away from.
    pub struct BackendStats {
        /// The backend's dial address.
        pub addr: String,
        /// Current circuit-breaker position.
        pub health: BackendHealth,
        /// Sessions ever routed (or failed over) to this backend.
        pub sessions_routed: u64,
        /// Times the breaker opened (closed/half-open → open).
        pub ejections: u64,
        /// Times the breaker closed again after probation.
        pub readmissions: u64,
        /// Health probes that succeeded.
        pub probes_ok: u64,
        /// Health probes that failed.
        pub probes_failed: u64,
        /// Live sessions that abandoned this backend mid-flight.
        pub failovers: u64,
        /// In-flight jobs replayed onto this backend after failovers.
        pub jobs_resubmitted: u64,
    }
}

stats_row! {
    /// One session's slice of the service telemetry.
    ///
    /// A *session* is a [`SessionKey`]: an API key (shared by every connection
    /// and client presenting it) or one anonymous client/connection. Rows are
    /// how the fairness and rate-limit tests observe who actually got the
    /// workers. They persist while a session has work queued; once the table
    /// holds thousands of rows, idle sessions' rows may be evicted (aggregate
    /// counters like [`ServiceStats::jobs_completed`] are unaffected).
    pub struct SessionStats {
        /// [`SessionKey::display_name`] of the session.
        pub key: String,
        /// The DRR weight the scheduler grants the session (default 1.0).
        pub weight: f64,
        /// Jobs waiting in this session's queue right now.
        pub queue_depth: usize,
        /// Jobs this session ever submitted (including later-refused ones).
        pub jobs_submitted: u64,
        /// Jobs the DRR scheduler handed to workers — the fairness counter:
        /// under contention, dispatch shares track session weights.
        pub jobs_dispatched: u64,
        /// Jobs trained to completion.
        pub jobs_completed: u64,
        /// Jobs answered with a non-QoS error (decode/validation/panic/auth).
        pub jobs_failed: u64,
        /// Jobs refused by the session's token bucket (also counted in
        /// [`jobs_shed`](Self::jobs_shed)).
        pub jobs_rate_limited: u64,
        /// Jobs shed by any QoS gate: rate limiter, admission control, or the
        /// transport's per-connection in-flight cap.
        pub jobs_shed: u64,
        /// This session's submissions answered straight from the result cache.
        pub cache_hits: u64,
        /// This session's submissions coalesced onto an identical in-flight
        /// job.
        pub coalesced: u64,
        /// Progress frames emitted for this session's jobs (each coalesced
        /// waiter counts its own copy).
        pub progress_frames: u64,
    }
}

/// Shared atomic counters. Writers are the submit path (queue gauge), the
/// worker loop (dequeue), the transport and [`crate::middleware::MetricsLayer`];
/// readers call [`snapshot`](Self::snapshot) at any time.
#[derive(Debug)]
pub struct ServiceMetrics {
    started_at: Instant,
    counters: [AtomicU64; N_COUNTERS],
    // Wall time jobs spent in the stack; feeds `mean_job_seconds`.
    busy_nanos: AtomicU64,
    // Per-backend health rows, keyed by the backend's dial address.
    backends: Mutex<HashMap<String, BackendStats>>,
    // QoS counters per session, keyed by the SessionKey itself (cheap
    // clones: a u64 or an Arc<str>); the display name is rendered once,
    // when the row is created.
    sessions: Mutex<HashMap<SessionKey, SessionStats>>,
    // Per-stage latency histograms and the flight recorder.
    telemetry: Telemetry,
}

/// Per-session rows beyond this count trigger eviction of idle rows
/// (empty queue), bounding the table against anonymous-connection churn.
/// Aggregate [`ServiceStats`] counters are unaffected by eviction.
const MAX_SESSION_ROWS: usize = 4096;

/// A circuit breaker's reported position for one backend, as surfaced in
/// [`BackendStats`]. The state machine itself lives in the routing tier
/// (`amalgam-proxy`); this is its observable shadow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendHealth {
    /// Traffic flows; failures are being counted.
    #[default]
    Closed,
    /// Ejected: no session traffic, only cooldown-gated probes.
    Open,
    /// Probation: probes decide between readmission and re-ejection.
    HalfOpen,
}

impl fmt::Display for BackendHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendHealth::Closed => write!(f, "closed"),
            BackendHealth::Open => write!(f, "open"),
            BackendHealth::HalfOpen => write!(f, "half-open"),
        }
    }
}

impl ServiceMetrics {
    /// Zeroed counters with the uptime clock started and default
    /// [`TelemetryConfig`] (histograms and flight recorder on).
    pub fn new() -> ServiceMetrics {
        ServiceMetrics::with_telemetry(&TelemetryConfig::default())
    }

    /// Zeroed counters with an explicit telemetry configuration.
    pub fn with_telemetry(telemetry: &TelemetryConfig) -> ServiceMetrics {
        ServiceMetrics {
            started_at: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            busy_nanos: AtomicU64::new(0),
            backends: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            telemetry: Telemetry::new(telemetry),
        }
    }

    /// The latency histograms and flight recorder riding these counters.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Adds `n` to one counter: one relaxed atomic add, since counters are
    /// statistics that publish no other data.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Takes `n` back off a gauge (or rolls back an [`add`](Self::add)).
    #[inline]
    pub fn sub(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_sub(n, Ordering::Relaxed);
    }

    /// Runs `f` on the session's row, creating it on first use. When the
    /// table is about to outgrow [`MAX_SESSION_ROWS`], rows of idle
    /// sessions (nothing queued) are evicted first.
    fn with_session(&self, session: &SessionKey, f: impl FnOnce(&mut SessionStats)) {
        let mut sessions = self.sessions.lock();
        if sessions.len() >= MAX_SESSION_ROWS && !sessions.contains_key(session) {
            sessions.retain(|_, c| c.queue_depth > 0);
        }
        f(sessions
            .entry(session.clone())
            .or_insert_with(|| SessionStats {
                key: session.display_name(),
                ..SessionStats::default()
            }))
    }

    /// Submit path: one job entered `session`'s queue (recording the DRR
    /// `weight` the scheduler grants it). Counts the job in the service
    /// and session tallies and bumps both queue gauges, returning the
    /// depth the job found (jobs already waiting).
    pub(crate) fn job_queued(&self, session: &SessionKey, weight: f64) -> usize {
        self.add(Counter::JobsSubmitted, 1);
        let depth = self.counters[Counter::QueueDepth as usize].fetch_add(1, Ordering::Relaxed);
        self.with_session(session, |s| {
            s.weight = weight;
            s.jobs_submitted += 1;
            s.queue_depth += 1;
        });
        depth as usize
    }

    /// Submit path rollback when the queue refused the envelope. The
    /// session row saturates, like [`job_dispatched`](Self::job_dispatched):
    /// if eviction ever hands this a fresh zeroed row, a wrapped counter
    /// must not poison every later snapshot.
    pub(crate) fn job_unqueued(&self, session: &SessionKey) {
        self.sub(Counter::JobsSubmitted, 1);
        self.sub(Counter::QueueDepth, 1);
        self.with_session(session, |s| {
            s.jobs_submitted = s.jobs_submitted.saturating_sub(1);
            s.queue_depth = s.queue_depth.saturating_sub(1);
        });
    }

    /// Worker path: the DRR scheduler handed one of `session`'s jobs to a
    /// worker (the fairness counter), or shutdown drained it unrun.
    pub(crate) fn job_dispatched(&self, session: &SessionKey) {
        self.sub(Counter::QueueDepth, 1);
        self.with_session(session, |s| {
            s.jobs_dispatched += 1;
            s.queue_depth = s.queue_depth.saturating_sub(1);
        });
    }

    /// Metrics layer: one of `session`'s jobs left the stack with `result`.
    pub(crate) fn session_finished(
        &self,
        session: &SessionKey,
        result: &Result<JobResult, CloudError>,
    ) {
        self.with_session(session, |s| match result {
            Ok(_) => s.jobs_completed += 1,
            Err(CloudError::RateLimited { .. }) => {
                s.jobs_rate_limited += 1;
                s.jobs_shed += 1;
            }
            Err(CloudError::Overloaded { .. }) => s.jobs_shed += 1,
            Err(_) => s.jobs_failed += 1,
        });
    }

    /// Transport path: the per-connection in-flight cap refused one of
    /// `session`'s submits before it reached the queue.
    pub(crate) fn session_shed(&self, session: &SessionKey) {
        self.with_session(session, |s| s.jobs_shed += 1);
    }

    /// Dedup path: a submission was answered straight from the result
    /// cache — it counts as submitted, but never touched the queue.
    pub(crate) fn job_cache_hit(&self, session: &SessionKey) {
        self.add(Counter::JobsSubmitted, 1);
        self.add(Counter::CacheHits, 1);
        self.with_session(session, |s| {
            s.jobs_submitted += 1;
            s.cache_hits += 1;
        });
    }

    /// Dedup path: a submission attached as a waiter to an in-flight
    /// duplicate instead of enqueueing its own execution.
    pub(crate) fn job_coalesced(&self, session: &SessionKey) {
        self.add(Counter::JobsSubmitted, 1);
        self.add(Counter::Coalesced, 1);
        self.with_session(session, |s| {
            s.jobs_submitted += 1;
            s.coalesced += 1;
        });
    }

    /// Dedup path: the rate limiter refused a would-be cache hit or
    /// coalesced attach at submit time (bumping the same counters an
    /// in-stack [`crate::RateLimitLayer`] rejection would).
    pub(crate) fn job_rate_limited_at_submit(&self, session: &SessionKey) {
        self.add(Counter::JobsSubmitted, 1);
        self.add(Counter::JobsRateLimited, 1);
        self.with_session(session, |s| {
            s.jobs_submitted += 1;
            s.jobs_rate_limited += 1;
            s.jobs_shed += 1;
        });
    }

    /// Transport path: a connection completed its handshake.
    pub fn conn_opened(&self) {
        self.add(Counter::ConnectionsAccepted, 1);
        self.add(Counter::ConnectionsActive, 1);
    }

    /// Transport path: one framed message arrived (`wire_len` includes the
    /// length prefix).
    pub fn frame_received(&self, wire_len: usize) {
        self.add(Counter::FramesReceived, 1);
        self.add(Counter::TransportBytesReceived, wire_len as u64);
    }

    /// Transport path: one framed message was committed to a connection's
    /// write queue. Counted at commit so a peer that has observed the
    /// frame is guaranteed to find it counted; frames later discarded
    /// unsent are rolled back via `frame_send_aborted`.
    pub fn frame_sent(&self, wire_len: usize) {
        self.add(Counter::FramesSent, 1);
        self.add(Counter::TransportBytesSent, wire_len as u64);
    }

    /// Transport path: a committed frame was discarded before its bytes
    /// fully reached the socket (broken sink). Unwinds everything its
    /// commit counted — the control sub-count too, for a `control` frame,
    /// so `control_frames_sent <= frames_sent` survives the abort.
    pub(crate) fn frame_send_aborted(&self, wire_len: usize, control: bool) {
        self.sub(Counter::FramesSent, 1);
        self.sub(Counter::TransportBytesSent, wire_len as u64);
        if control {
            self.sub(Counter::ControlFramesSent, 1);
        }
    }

    /// Transport path: a protocol-overhead frame arrived (keep-alive,
    /// handshake, admin). Counted in the frame totals *and* the control
    /// sub-count, so `frames_received - control_frames_received` is job
    /// throughput.
    pub fn control_frame_received(&self, wire_len: usize) {
        self.frame_received(wire_len);
        self.add(Counter::ControlFramesReceived, 1);
    }

    /// Transport path: a protocol-overhead frame was committed for send.
    pub fn control_frame_sent(&self, wire_len: usize) {
        self.frame_sent(wire_len);
        self.add(Counter::ControlFramesSent, 1);
    }

    /// Routing tier: one frame arrived on a *backend-face* link. Wire
    /// bytes count toward the transport totals (it is real wire traffic),
    /// but the frame lands in `relay_frames_received` instead of
    /// `frames_received`, so a proxied job is not double-counted.
    pub fn relay_frame_received(&self, wire_len: usize) {
        self.add(Counter::RelayFramesReceived, 1);
        self.add(Counter::TransportBytesReceived, wire_len as u64);
    }

    /// Routing tier: one frame was written to a *backend-face* link.
    pub fn relay_frame_sent(&self, wire_len: usize) {
        self.add(Counter::RelayFramesSent, 1);
        self.add(Counter::TransportBytesSent, wire_len as u64);
    }

    /// Metrics layer: a job entered the stack. The returned guard restores
    /// the in-flight gauge even if the job panics out of the stack (with
    /// `catch_panics(false)` the unwind would otherwise leak it forever).
    pub(crate) fn job_started(&self) -> InFlightGuard<'_> {
        self.add(Counter::InFlight, 1);
        InFlightGuard(self)
    }

    /// Metrics layer: a job left the stack with `result` after `elapsed`.
    pub(crate) fn job_finished(
        &self,
        bytes_in: usize,
        result: &Result<JobResult, CloudError>,
        elapsed: Duration,
    ) {
        self.busy_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.add(Counter::BytesReceived, bytes_in as u64);
        match result {
            Ok(r) => {
                self.add(Counter::JobsCompleted, 1);
                self.add(Counter::BytesSent, r.bytes_sent as u64);
            }
            Err(CloudError::Overloaded { .. }) => self.add(Counter::JobsRejected, 1),
            Err(CloudError::RateLimited { .. }) => self.add(Counter::JobsRateLimited, 1),
            Err(CloudError::Panicked(_)) => {
                self.add(Counter::JobsPanicked, 1);
                self.add(Counter::JobsFailed, 1);
            }
            Err(CloudError::Cancelled) => self.add(Counter::JobsCancelled, 1),
            Err(_) => self.add(Counter::JobsFailed, 1),
        }
    }

    /// Runs `f` on a backend's row, creating it on first use. Rows are
    /// bounded by the fleet size a router is configured with, so no
    /// eviction is needed.
    fn with_backend(&self, addr: &str, f: impl FnOnce(&mut BackendStats)) {
        let mut backends = self.backends.lock();
        f(backends
            .entry(addr.to_string())
            .or_insert_with(|| BackendStats {
                addr: addr.to_string(),
                ..BackendStats::default()
            }))
    }

    /// Routing tier: declares a backend so its row exists (healthy, all
    /// zeros) before any traffic or incident touches it.
    pub fn backend_registered(&self, addr: &str) {
        self.with_backend(addr, |_| {});
    }

    /// Routing tier: the backend's circuit breaker moved to `health`
    /// (probation entry/exit; ejections and readmissions have their own
    /// recorders which also set it).
    pub fn backend_health(&self, addr: &str, health: BackendHealth) {
        self.with_backend(addr, |b| b.health = health);
    }

    /// Routing tier: the breaker opened — the backend is ejected from
    /// routing.
    pub fn backend_ejected(&self, addr: &str) {
        self.with_backend(addr, |b| {
            b.health = BackendHealth::Open;
            b.ejections += 1;
        });
    }

    /// Routing tier: the breaker closed again — the backend is readmitted.
    pub fn backend_readmitted(&self, addr: &str) {
        self.with_backend(addr, |b| {
            b.health = BackendHealth::Closed;
            b.readmissions += 1;
        });
    }

    /// Routing tier: one health probe finished.
    pub fn backend_probe(&self, addr: &str, ok: bool) {
        self.with_backend(addr, |b| {
            if ok {
                b.probes_ok += 1;
            } else {
                b.probes_failed += 1;
            }
        });
    }

    /// Routing tier: a session was routed (or failed over) to this
    /// backend.
    pub fn backend_session_routed(&self, addr: &str) {
        self.with_backend(addr, |b| b.sessions_routed += 1);
    }

    /// Routing tier: a live session abandoned this backend mid-flight.
    pub fn backend_failover(&self, addr: &str) {
        self.add(Counter::Failovers, 1);
        self.with_backend(addr, |b| b.failovers += 1);
    }

    /// Routing tier: `n` in-flight jobs were replayed onto this backend
    /// after a failover (content-addressed, so replays dedup server-side).
    pub fn backend_jobs_resubmitted(&self, addr: &str, n: u64) {
        self.add(Counter::JobsResubmitted, n);
        self.with_backend(addr, |b| b.jobs_resubmitted += n);
    }

    /// Streaming path: one progress frame was emitted toward `session` (one
    /// per waiter — a dedup-coalesced execution emits once per attached
    /// session, so every waiter's row gets its own accounting). Every emit
    /// later resolves to exactly one [`Counter::ProgressFramesDelivered`]
    /// or [`Counter::ProgressFramesDropped`] — dropping is legal (progress
    /// is advisory); losing *count* of a drop is not.
    pub fn progress_frame_emitted(&self, session: &SessionKey) {
        self.add(Counter::ProgressFramesEmitted, 1);
        self.with_session(session, |s| s.progress_frames += 1);
    }

    /// A point-in-time copy of every counter plus derived rates.
    pub fn snapshot(&self) -> ServiceStats {
        let mut s = ServiceStats::load(&self.counters);
        let busy = Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed));
        let uptime = self.started_at.elapsed().as_secs_f64();
        if s.jobs_completed > 0 {
            s.mean_job_seconds = busy.as_secs_f64() / s.jobs_completed as f64;
        }
        if uptime > 0.0 {
            s.jobs_per_second = s.jobs_completed as f64 / uptime;
        }
        s.uptime_seconds = uptime;
        s.backends = self.backends.lock().values().cloned().collect();
        s.backends.sort_by(|a, b| a.addr.cmp(&b.addr));
        s.sessions = self.sessions.lock().values().cloned().collect();
        s.sessions.sort_by(|a, b| a.key.cmp(&b.key));
        s.histograms = self.telemetry.snapshot();
        s
    }
}

impl Default for ServiceMetrics {
    fn default() -> ServiceMetrics {
        ServiceMetrics::new()
    }
}

/// Decrements the in-flight gauge on drop, surviving unwinds.
pub(crate) struct InFlightGuard<'a>(&'a ServiceMetrics);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.sub(Counter::InFlight, 1);
    }
}

impl ServiceStats {
    /// The snapshot's histogram for `stage`, if that stage recorded
    /// anything.
    pub fn hist(&self, stage: Stage) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, h)| h)
    }

    /// Checks the snapshot against the accounting laws the counters
    /// document; returns one message per broken law. The laws hold once the
    /// service is quiescent — a snapshot racing live traffic can see one
    /// half of a paired update.
    pub fn conservation_violations(&self) -> Vec<String> {
        let s = self;
        let progress_resolved = s.progress_frames_delivered + s.progress_frames_dropped;
        let laws = [
            (
                "progress_frames_emitted == progress_frames_delivered + progress_frames_dropped",
                s.progress_frames_emitted == progress_resolved,
            ),
            (
                "jobs_panicked <= jobs_failed",
                s.jobs_panicked <= s.jobs_failed,
            ),
            (
                "control_frames_received <= frames_received",
                s.control_frames_received <= s.frames_received,
            ),
            (
                "control_frames_sent <= frames_sent",
                s.control_frames_sent <= s.frames_sent,
            ),
        ];
        laws.iter()
            .filter(|(_, holds)| !holds)
            .map(|(law, _)| format!("violated: {law}"))
            .collect()
    }

    /// Serializes the full snapshot — every counter, the backend and
    /// session tables, and the histograms — into the byte body a
    /// [`crate::transport::Frame::Stats`] carries.
    pub fn to_bytes(&self) -> Bytes {
        let mut w = Writer::new();
        self.put(&mut w);
        w.finish()
    }

    /// Decodes a snapshot produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Decode`] on truncation, trailing bytes, or an
    /// unknown health/stage tag.
    pub fn from_bytes(bytes: Bytes) -> Result<ServiceStats, CloudError> {
        let mut r = Reader::new(bytes);
        let stats = ServiceStats::get(&mut r)?;
        match r.remaining() {
            0 => Ok(stats),
            n => Err(CloudError::Decode(format!(
                "{n} trailing bytes after stats snapshot"
            ))),
        }
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (version 0.0.4): one `amalgam_*` gauge per table scalar, plus
    /// summary-style quantile series per stage histogram. This is the body
    /// the HTTP exporter ([`crate::CloudServiceBuilder::metrics_exporter`])
    /// serves on `/metrics`.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        for (row, (_, v)) in SCALARS.iter().zip(self.values()) {
            let (name, help) = (row.prom, row.help);
            let v = if v == v.trunc() && v.abs() < 1e15 {
                (v as i64).to_string()
            } else {
                v.to_string()
            };
            let _ = writeln!(
                out,
                "# HELP amalgam_{name} {help}\n# TYPE amalgam_{name} gauge\namalgam_{name} {v}"
            );
        }
        let _ = writeln!(
            out,
            "# HELP amalgam_latency_microseconds Per-stage latency quantiles (log-linear histogram, error <= 1/16)."
        );
        let _ = writeln!(out, "# TYPE amalgam_latency_microseconds summary");
        for (stage, hist) in &self.histograms {
            for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                let _ = writeln!(
                    out,
                    "amalgam_latency_microseconds{{stage=\"{stage}\",quantile=\"{label}\"}} {}",
                    hist.quantile(q)
                );
            }
            for (series, v) in [("sum", hist.sum), ("count", hist.count), ("max", hist.max)] {
                let _ = writeln!(
                    out,
                    "amalgam_latency_microseconds_{series}{{stage=\"{stage}\"}} {v}"
                );
            }
        }
        out
    }
}

impl fmt::Display for ServiceStats {
    /// An operator-facing table: one line per table section (its fields as
    /// `name value` pairs, in table order), then one line per latency
    /// histogram, backend and session.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let values = self.values();
        for (i, first) in SCALARS.iter().enumerate() {
            if SCALARS[..i].iter().any(|r| r.section == first.section) {
                continue; // section already printed
            }
            write!(f, "{:<10}", first.section)?;
            for (row, (v, _)) in SCALARS.iter().zip(&values) {
                if row.section == first.section {
                    write!(f, " {} {v}", row.field)?;
                }
            }
            writeln!(f)?;
        }
        for (stage, h) in &self.histograms {
            let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
            let (max, count) = (h.max, h.count);
            writeln!(
                f,
                "latency µs {stage} p50 {p50} p95 {p95} p99 {p99} max {max} count {count}"
            )?;
        }
        for b in &self.backends {
            writeln!(f, "backend{b}")?;
        }
        for s in &self.sessions {
            writeln!(f, "session{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalgam_nn::metrics::History;
    use bytes::Bytes;

    fn ok_result(bytes_sent: usize) -> Result<JobResult, CloudError> {
        Ok(JobResult {
            job_id: 0,
            trained_model: Bytes::new(),
            history: History::new(),
            bytes_received: 0,
            bytes_sent,
            train_seconds: 0.0,
        })
    }

    /// Every counter at its table index + 1, distinct non-integral rates,
    /// one backend row and one session row, no histograms.
    fn fixed_snapshot() -> ServiceStats {
        let m = ServiceMetrics::new();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            m.add(c, i as u64 + 1);
        }
        let mut s = m.snapshot();
        s.mean_job_seconds = 0.5;
        s.jobs_per_second = 2.25;
        s.uptime_seconds = 1234.5;
        s.histograms.clear();
        s.backends = vec![BackendStats {
            addr: "10.0.0.1:4000".into(),
            health: BackendHealth::HalfOpen,
            sessions_routed: 1,
            ejections: 2,
            readmissions: 3,
            probes_ok: 4,
            probes_failed: 5,
            failovers: 6,
            jobs_resubmitted: 7,
        }];
        s.sessions = vec![SessionStats {
            key: "alpha".into(),
            weight: 1.0,
            queue_depth: 2,
            jobs_submitted: 3,
            jobs_dispatched: 4,
            jobs_completed: 5,
            jobs_failed: 6,
            jobs_rate_limited: 7,
            jobs_shed: 8,
            cache_hits: 9,
            coalesced: 10,
            progress_frames: 11,
        }];
        s
    }

    /// The `Stats` body of [`fixed_snapshot`] as encoded before the counter
    /// table existed, when every field was written out by hand. Peers
    /// decode positionally, so these bytes must never change.
    const GOLDEN_STATS_BODY: [&str; 16] = [
        "0100000000000000020000000000000003000000000000000400000000000000",
        "0500000000000000060000000000000007000000000000000800000000000000",
        "0900000000000000000000000000e03f000000000000024000000000004a9340",
        "0a000000000000000b000000000000000c000000000000000d00000000000000",
        "0e000000000000000f0000000000000010000000000000001100000000000000",
        "1200000000000000130000000000000014000000000000001500000000000000",
        "1600000000000000170000000000000018000000000000001900000000000000",
        "1a000000000000001b000000000000001c000000000000001d00000000000000",
        "1e000000000000001f0000000000000020000000000000002100000000000000",
        "2200000000000000230000000000000024000000000000002500000000000000",
        "2600000000000000010000000d00000031302e302e302e313a34303030020100",
        "0000000000000200000000000000030000000000000004000000000000000500",
        "000000000000060000000000000007000000000000000100000005000000616c",
        "706861000000000000f03f020000000000000003000000000000000400000000",
        "0000000500000000000000060000000000000007000000000000000800000000",
        "00000009000000000000000a000000000000000b0000000000000000000000",
    ];

    #[test]
    fn counters_roll_up_into_snapshot() {
        let m = ServiceMetrics::new();
        let session = SessionKey::Anonymous(1);
        assert_eq!(m.job_queued(&session, 1.0), 0);
        assert_eq!(m.job_queued(&session, 1.0), 1);
        m.job_dispatched(&session);
        m.job_started();
        m.job_finished(100, &ok_result(40), Duration::from_millis(2));
        m.job_started();
        m.job_finished(
            7,
            &Err(CloudError::Decode("x".into())),
            Duration::from_millis(1),
        );
        m.job_started();
        m.job_finished(
            7,
            &Err(CloudError::Panicked("boom".into())),
            Duration::from_millis(1),
        );
        m.job_started();
        m.job_finished(
            7,
            &Err(CloudError::Overloaded {
                queue_depth: 9,
                max_queue_depth: 1,
            }),
            Duration::ZERO,
        );
        let s = m.snapshot();
        assert_eq!(s.jobs_submitted, 2);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.jobs_completed, 1);
        assert_eq!(s.jobs_failed, 2);
        assert_eq!(s.jobs_panicked, 1);
        assert_eq!(s.jobs_rejected, 1);
        assert_eq!(s.bytes_received, 121);
        assert_eq!(s.bytes_sent, 40);
        assert!(s.mean_job_seconds > 0.0);
        assert!(s.uptime_seconds >= 0.0);
        assert_eq!(s.conservation_violations(), Vec::<String>::new());
    }

    #[test]
    fn control_and_relay_frames_split_out_of_job_traffic() {
        let m = ServiceMetrics::new();
        m.frame_received(100); // a Submit
        m.control_frame_received(9); // a Ping
        m.control_frame_sent(9); // the Pong
        m.frame_sent(50); // the Reply
        m.relay_frame_sent(100); // forwarded to a backend
        m.relay_frame_received(50); // the backend's reply
        let s = m.snapshot();
        assert_eq!(s.frames_received, 2);
        assert_eq!(s.control_frames_received, 1);
        assert_eq!(s.frames_sent, 2);
        assert_eq!(s.control_frames_sent, 1);
        assert_eq!(s.relay_frames_received, 1);
        assert_eq!(s.relay_frames_sent, 1);
        // Job throughput = totals minus control, unpolluted by the relay.
        assert_eq!(s.frames_received - s.control_frames_received, 1);
        // Wire bytes cover both faces.
        assert_eq!(s.transport_bytes_received, 100 + 9 + 50);
        assert_eq!(s.transport_bytes_sent, 9 + 50 + 100);
    }

    #[test]
    fn stats_snapshot_wire_roundtrip_is_identity() {
        let m = ServiceMetrics::new();
        m.telemetry()
            .record(Stage::Train, Duration::from_micros(850));
        m.telemetry()
            .record(Stage::QueueWait, Duration::from_micros(17));
        let mut s = fixed_snapshot();
        s.histograms = m.snapshot().histograms;
        let back = ServiceStats::from_bytes(s.to_bytes()).unwrap();
        assert_eq!(back, s);
        // And the quantiles survive the trip.
        assert_eq!(
            back.hist(Stage::Train).unwrap().quantile(0.5),
            s.hist(Stage::Train).unwrap().quantile(0.5)
        );

        // Every counter is distinct and non-zero, so each output must
        // carry each value under its own name.
        let prom = s.to_prometheus();
        let prom_lines: Vec<&str> = prom.lines().collect();
        for line in [
            "amalgam_queue_depth 1",
            "amalgam_in_flight 2",
            "amalgam_jobs_submitted_total 3",
            "amalgam_jobs_completed_total 4",
            "amalgam_jobs_failed_total 5",
            "amalgam_jobs_rejected_total 6",
            "amalgam_jobs_panicked_total 7",
            "amalgam_jobs_rate_limited_total 21",
            "amalgam_job_bytes_received_total 8",
            "amalgam_job_bytes_sent_total 9",
            "amalgam_jobs_per_second 2.25",
            "amalgam_uptime_seconds 1234.5",
            "amalgam_connections_accepted_total 10",
            "amalgam_connections_rejected_total 11",
            "amalgam_connections_active 12",
            "amalgam_frames_received_total 13",
            "amalgam_frames_sent_total 14",
            "amalgam_control_frames_received_total 15",
            "amalgam_control_frames_sent_total 16",
            "amalgam_relay_frames_received_total 17",
            "amalgam_relay_frames_sent_total 18",
            "amalgam_transport_bytes_received_total 19",
            "amalgam_transport_bytes_sent_total 20",
            "amalgam_reactor_registered_fds 22",
            "amalgam_reactor_wakeups_total 23",
            "amalgam_reactor_events_total 24",
            "amalgam_reactor_write_queue_bytes 25",
            "amalgam_cache_hits_total 26",
            "amalgam_coalesced_total 27",
            "amalgam_reconnects_total 28",
            "amalgam_jobs_resubmitted_total 29",
            "amalgam_failovers_total 30",
            "amalgam_progress_frames_emitted_total 31",
            "amalgam_progress_frames_delivered_total 32",
            "amalgam_progress_frames_dropped_total 33",
            "amalgam_jobs_cancelled_total 34",
            "amalgam_jobs_resumed_total 35",
            "amalgam_checkpoints_written_total 36",
            "amalgam_checkpoints_rejected_total 37",
            "amalgam_epochs_trained_total 38",
            "amalgam_mean_job_seconds 0.5",
        ] {
            assert!(prom_lines.contains(&line), "missing `{line}` in:\n{prom}");
        }
        let shown = s.to_string();
        for (row, (v, _)) in SCALARS.iter().zip(s.values()) {
            let pair = format!(" {} {v}", row.field);
            assert!(shown.contains(&pair), "missing `{pair}` in:\n{shown}");
        }
        assert!(shown.contains("backend addr 10.0.0.1:4000 health half-open sessions_routed 1"));
        assert!(shown.contains("session key alpha weight 1 queue_depth 2"));
    }

    #[test]
    fn stats_body_matches_the_golden_wire_layout() {
        let golden: Vec<u8> = GOLDEN_STATS_BODY
            .concat()
            .as_bytes()
            .chunks(2)
            .map(|h| u8::from_str_radix(std::str::from_utf8(h).unwrap(), 16).unwrap())
            .collect();
        let body = fixed_snapshot().to_bytes();
        assert_eq!(&body[..], &golden[..], "Stats wire layout changed");
        assert_eq!(
            ServiceStats::from_bytes(Bytes::from(golden)).unwrap(),
            fixed_snapshot()
        );
    }

    #[test]
    fn conservation_violations_name_each_broken_law() {
        let mut s = ServiceMetrics::new().snapshot();
        assert!(s.conservation_violations().is_empty());
        s.progress_frames_emitted = 3;
        s.progress_frames_delivered = 1;
        s.jobs_panicked = 1;
        s.control_frames_sent = 1;
        let v = s.conservation_violations();
        assert_eq!(
            v,
            [
                "violated: progress_frames_emitted == progress_frames_delivered + progress_frames_dropped",
                "violated: jobs_panicked <= jobs_failed",
                "violated: control_frames_sent <= frames_sent",
            ]
        );
    }

    #[test]
    fn prometheus_text_has_counters_and_stage_quantiles() {
        let m = ServiceMetrics::new();
        m.job_queued(&SessionKey::Anonymous(1), 1.0);
        for _ in 0..10 {
            m.telemetry()
                .record(Stage::Train, Duration::from_micros(500));
            m.telemetry()
                .record(Stage::QueueWait, Duration::from_micros(40));
        }
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE amalgam_jobs_submitted_total gauge"));
        assert!(text.contains("amalgam_jobs_submitted_total 1"));
        for stage in ["train", "queue_wait"] {
            for q in ["0.5", "0.95", "0.99"] {
                assert!(
                    text.contains(&format!(
                        "amalgam_latency_microseconds{{stage=\"{stage}\",quantile=\"{q}\"}}"
                    )),
                    "missing {stage} q{q} in:\n{text}"
                );
            }
            assert!(text.contains(&format!(
                "amalgam_latency_microseconds_count{{stage=\"{stage}\"}} 10"
            )));
        }
    }

    #[test]
    fn display_renders_quantile_table() {
        let m = ServiceMetrics::new();
        m.telemetry()
            .record(Stage::Train, Duration::from_micros(900));
        let text = m.snapshot().to_string();
        assert!(text.contains("jobs"), "{text}");
        assert!(text.contains("latency"), "{text}");
        assert!(text.contains("train"), "{text}");
    }
}
