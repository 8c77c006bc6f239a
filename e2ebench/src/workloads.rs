//! The benchmark's workloads and the closed-loop sessions that drive them.
//!
//! Every workload is a **closed loop**: each session sends its next job
//! only after the previous reply, so a slower system gets less load.
//! Jobs go `RemoteCloudClient` → `AmalgamProxy` → `CloudServer` over
//! loopback. Each obfuscated job is paired with its *plain twin* — the
//! same model, data and recipe, not obfuscated, sent through the same
//! path just before it — whose trained weights the extracted model must
//! equal bit for bit. All inputs derive from the workload seed given on
//! the command line; the system only ever sees the generated jobs.

use crate::jobs::{encode, obfuscate, same_weights, Base, Family, Obfuscated};
use crate::replay::{replay, NnTimes};
use crate::topology::{Delta, Topology};
use crate::trace::{Span, Tracer};
use amalgam_cloud::{CloudJob, JobResult, RemoteCloudClient, Stage};
use amalgam_nn::graph::GraphModel;
use bytes::Bytes;
use std::time::{Duration, Instant};

/// How a workload makes its jobs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Every job is fresh: new seeded inputs, augmented on the client
    /// inside the job's turnaround, so the result cache never hits.
    Fresh(Family),
    /// Every job resubmits one of a fixed pool of obfuscated CV jobs (and
    /// their plain twins) that setup trained once, on backends whose
    /// result caches hold the whole pool.
    Cached { pool: usize },
}

/// One workload: what it runs and why it is in the benchmark.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Closed-loop client sessions, one thread and connection each.
    pub sessions: usize,
    /// Single-worker backends behind the proxy.
    pub backends: usize,
    /// The reported tail quantile of turnaround and RPC time.
    pub tail_q: f64,
    /// Why the workload exists.
    pub why: &'static str,
    /// The layer it stresses.
    pub stresses: &'static str,
    /// The layer it bypasses: a change there should read as no change.
    pub bypasses: &'static str,
}

/// The workloads, in the order `--workload all` runs them. The
/// repository's `BENCHMARK.json` gates the first two; `resubmit_cached`
/// is runnable but ungated, because on a 2-vCPU virtual machine its
/// run-to-run spread exceeds any bound a gate may use (see the README).
///
/// Tail quantiles follow the rule "the highest quantile with at least 10
/// samples beyond it" at the benchmark's run length: `resubmit_cached`
/// finishes about a thousand obfuscated jobs a run and reports p95 (p99
/// would sit on the rule's edge); the two training workloads finish about
/// twenty, too few for any quantile above the median to keep 10 beyond
/// it, so they report the upper quartile and print how many samples lie
/// beyond it.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cv_resnet18",
        kind: Kind::Fresh(Family::Cv),
        sessions: 1,
        backends: 1,
        tail_q: 0.75,
        why: "the paper's CV side at the scaled Table 3 geometry; training is >=95% of each RPC and every job is unique",
        stresses: "nn conv GEMM and backward inside Stage::Train (plus core augment/extract on the client)",
        bypasses: "result cache and dedup (never hit); the wire is a few % of each RPC",
    },
    Workload {
        name: "nlp_transformer",
        kind: Kind::Fresh(Family::Lm),
        sessions: 1,
        backends: 1,
        tail_q: 0.75,
        why: "the paper's NLP side: attention, linear and embedding kernels and the train_lm/head_keeps path",
        stresses: "nn attention/linear/embedding kernels and LM loss inside Stage::Train",
        bypasses: "conv kernels, result cache and dedup; a ~0.5 MB payload keeps the wire negligible",
    },
    Workload {
        name: "resubmit_cached",
        kind: Kind::Cached { pool: 2 },
        sessions: 2,
        backends: 2,
        tail_q: 0.95,
        why: "every reply is a cache hit, so each job is wire, content hashing, reactor and proxy relay",
        stresses: "protocol encode/decode, transport, reactor, proxy relay and the dedup cache",
        bypasses: "nn training and client-side augmentation (both done once in setup)",
    },
];

/// How a run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Times an untraced run repeats its setup; `setup_s` is their median.
/// Traced runs report no setup time and set up once.
const SETUP_REPEATS: usize = 3;

fn setup_repeats(s: &Settings) -> usize {
    if s.traced {
        1
    } else {
        SETUP_REPEATS
    }
}

/// One job as the client saw it.
#[derive(Debug)]
pub struct JobRecord {
    pub obfuscated: bool,
    /// Whether its round was traced (spans and replay on).
    pub traced: bool,
    pub turnaround_s: f64,
    /// The plain twin's turnaround (for an obfuscated job; else its own).
    pub twin_turnaround_s: f64,
    pub rpc_s: f64,
    /// `JobResult::train_seconds` as the backend reported it.
    pub train_s: f64,
    pub upload_bytes: usize,
    /// `JobResult::bytes_sent` as the backend reported it.
    pub reply_bytes: usize,
    /// Whether the job's correctness check held.
    pub ok: bool,
}

/// A job whose training the traced run replayed from `nn` calls.
#[derive(Debug)]
pub struct ReplayRecord {
    pub obfuscated: bool,
    pub nn: NnTimes,
    /// The backend's `Stage::Train` span for the same job.
    pub backend_train_s: f64,
    /// Whether the replay's bytes equal the cloud reply.
    pub ok: bool,
}

/// Everything one run measured.
pub struct RunOutput {
    pub setup_s: Vec<f64>,
    pub records: Vec<JobRecord>,
    /// Jobs that errored instead of replying.
    pub errors: Vec<String>,
    pub replays: Vec<ReplayRecord>,
    /// Run wall time: start of the measured loop to the last reply.
    pub wall_s: f64,
    pub delta: Delta,
    pub violations: Vec<String>,
    pub spans: Vec<Span>,
}

/// One closed-loop client session.
struct Session {
    idx: usize,
    client: RemoteCloudClient,
    tr: Tracer,
    records: Vec<JobRecord>,
    errors: Vec<String>,
}

/// What one pair (plain twin, then obfuscated job) left behind for a
/// traced round's inspection.
struct Pair {
    plain: (CloudJob, JobResult, u64),
    obf: (CloudJob, JobResult, u64),
}

/// A job id: session, pair number and which half of the pair.
fn job_id(session: usize, k: u64, obfuscated: bool) -> u64 {
    ((session as u64) << 40) | (k << 1) | u64::from(obfuscated)
}

/// Derives the `k`-th job seed from the workload seed.
fn job_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeds every job's obfuscation plan — the synthetic sub-networks' shapes
/// and the inserted pixels or tokens. It is one constant, independent of
/// the job and of the workload seed: the augmented architecture sets how
/// much a job computes, and with a plan per job the per-job times formed a
/// mixture whose median jumped between its modes from run to run (an
/// IQR/median of 0.21 over ten runs). The workload seed still varies the
/// data, the weights and the shuffles of every job.
const PLAN_SEED: u64 = 0x0B5C_0FA7_E5EE_D5ED;

/// A job that has not replied by then has hung: fail the run while the
/// benchmark can still report it.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The pair number setup's warm-up jobs use; measured jobs count from 0.
const WARMUP: u64 = u64::MAX >> 2;

impl Session {
    /// Submits an encoded job and waits for its reply (span `rpc`).
    fn rpc(&mut self, payload: Bytes, id: u64) -> Result<(JobResult, f64, u64), String> {
        let open = self.tr.enter("rpc", id);
        let t0 = Instant::now();
        let mut handle = self
            .client
            .submit_payload(payload)
            .map_err(|e| format!("submit: {e}"))?;
        let rid = handle.id();
        let reply = handle
            .wait_timeout(JOB_TIMEOUT)
            .ok_or_else(|| format!("job {id:#x}: no reply within {JOB_TIMEOUT:?}"))?
            .map_err(|e| format!("job {id:#x}: {e}"))?;
        let rpc_s = t0.elapsed().as_secs_f64();
        self.tr.exit(open);
        Ok((reply, rpc_s, rid))
    }

    /// Runs pair `k`: the plain twin, then the obfuscated job, each timed
    /// from its first client step to its checked result. `pre` is an
    /// already-augmented job (the cached workload); otherwise the job is
    /// augmented inside its turnaround. `cold` holds the bytes every
    /// reply must equal, when known.
    fn pair(
        &mut self,
        k: u64,
        base: &Base,
        pre: Option<&Obfuscated>,
        cold: Option<&(Bytes, Bytes)>,
    ) -> Result<Pair, String> {
        let traced = self.tr.enabled();
        // A cache hit replays the cold result, `train_seconds` included,
        // though nothing trained: count its training as zero.
        let trained_s = |r: &JobResult| if cold.is_some() { 0.0 } else { r.train_seconds };
        let (idp, ido) = (job_id(self.idx, k, false), job_id(self.idx, k, true));

        let t0 = Instant::now();
        let root = self.tr.enter("turnaround", idp);
        let (plain_job, payload) = self.tr.span("protocol.encode", idp, || {
            encode(&base.model, &base.data, base.train)
        });
        let upload_bytes = payload.len();
        let (plain_reply, rpc_s, plain_rid) = self.rpc(payload, idp)?;
        let plain_model = self
            .tr
            .span("protocol.decode", idp, || {
                GraphModel::from_bytes(plain_reply.trained_model.clone())
            })
            .map_err(|e| format!("decode plain reply: {e}"))?;
        let ok = self.tr.span("check.verify", idp, || {
            cold.is_none_or(|c| c.0 == plain_reply.trained_model)
        });
        self.tr.exit(root);
        let plain_turnaround_s = t0.elapsed().as_secs_f64();
        self.records.push(JobRecord {
            obfuscated: false,
            traced,
            turnaround_s: plain_turnaround_s,
            twin_turnaround_s: plain_turnaround_s,
            rpc_s,
            train_s: trained_s(&plain_reply),
            upload_bytes,
            reply_bytes: plain_reply.bytes_sent,
            ok,
        });

        let t0 = Instant::now();
        let root = self.tr.enter("turnaround", ido);
        let fresh;
        let obf = match pre {
            Some(o) => o,
            None => {
                fresh = obfuscate(base, PLAN_SEED, &mut self.tr, ido)?;
                &fresh
            }
        };
        let (obf_job, payload) = self.tr.span("protocol.encode", ido, || {
            encode(&obf.model, &obf.data, base.train)
        });
        let upload_bytes = payload.len();
        let (obf_reply, rpc_s, obf_rid) = self.rpc(payload, ido)?;
        let trained = self
            .tr
            .span("protocol.decode", ido, || {
                GraphModel::from_bytes(obf_reply.trained_model.clone())
            })
            .map_err(|e| format!("decode obfuscated reply: {e}"))?;
        let extracted = self
            .tr
            .span("core.extract", ido, || {
                amalgam_core::extract(&trained, &base.model, &obf.secrets)
            })
            .map_err(|e| format!("extract: {e}"))?;
        let ok = self.tr.span("check.verify", ido, || {
            same_weights(&extracted.model, &plain_model)
                && cold.is_none_or(|c| c.1 == obf_reply.trained_model)
        });
        self.tr.exit(root);
        self.records.push(JobRecord {
            obfuscated: true,
            traced,
            turnaround_s: t0.elapsed().as_secs_f64(),
            twin_turnaround_s: plain_turnaround_s,
            rpc_s,
            train_s: trained_s(&obf_reply),
            upload_bytes,
            reply_bytes: obf_reply.bytes_sent,
            ok,
        });

        if traced {
            // Off the blocking path: what decoding the reply frame costs
            // (the client's reader thread does it inside the RPC).
            for (reply, id) in [(&plain_reply, idp), (&obf_reply, ido)] {
                let frame = reply.to_bytes();
                let root = self.tr.enter("inspect", id);
                let decoded = self
                    .tr
                    .span("protocol.reply_decode", id, || JobResult::from_bytes(frame));
                self.tr.exit(root);
                decoded.map_err(|e| format!("reply re-decode: {e}"))?;
            }
        }
        Ok(Pair {
            plain: (plain_job, plain_reply, plain_rid),
            obf: (obf_job, obf_reply, obf_rid),
        })
    }

    /// Runs pairs until `seconds` have passed since `start`, alternating
    /// traced and untraced rounds when `traced`. Stops at the first job
    /// that errors. `inspect` sees each traced round's pair.
    fn run_loop(
        &mut self,
        start: Instant,
        s: &Settings,
        mut next: impl FnMut(&mut Session, u64) -> Result<Pair, String>,
        mut inspect: impl FnMut(&mut Session, u64, Pair) -> Result<(), String>,
    ) {
        let mut k = 0u64;
        while k == 0 || start.elapsed().as_secs_f64() < s.seconds {
            let traced = s.traced && k.is_multiple_of(2);
            self.tr.set_enabled(traced);
            match next(self, k).and_then(|p| if traced { inspect(self, k, p) } else { Ok(()) }) {
                Ok(()) => {}
                Err(e) => {
                    self.tr.close_all();
                    self.errors.push(e);
                    break;
                }
            }
            k += 1;
        }
        self.tr.set_enabled(false);
    }
}

/// Replays both halves of a traced pair and pairs each replay with the
/// backend's own `Stage::Train` span for the same job.
fn replay_pair(
    topo: &Topology,
    session: &mut Session,
    pair: &Pair,
    k: u64,
    replays: &mut Vec<ReplayRecord>,
) -> Result<(), String> {
    for (obfuscated, (job, reply, rid)) in [(false, &pair.plain), (true, &pair.obf)] {
        let id = job_id(session.idx, k, obfuscated);
        let root = session.tr.enter("inspect", id);
        let out = replay(job, &mut session.tr, id);
        session.tr.exit(root);
        let (bytes, nn) = out?;
        let backend_train_s = backend_train_s(topo, &session.client, *rid)
            .ok_or_else(|| format!("job {id:#x}: no backend train span in the flight recorders"))?;
        replays.push(ReplayRecord {
            obfuscated,
            nn,
            backend_train_s,
            ok: bytes == reply.trained_model,
        });
    }
    Ok(())
}

/// The backend's `Stage::Train` span for the job `client` submitted as
/// request `rid`, found by the trace id the client minted for it.
fn backend_train_s(topo: &Topology, client: &RemoteCloudClient, rid: u64) -> Option<f64> {
    let trace = client
        .telemetry()
        .recorder()
        .recent()
        .into_iter()
        .rev()
        .find(|t| t.job_id == rid)?
        .trace;
    let at_backend = topo
        .backends
        .iter()
        .find_map(|b| b.telemetry().recorder().find(trace))?;
    let train = at_backend.spans.iter().find(|s| s.stage == Stage::Train)?;
    Some(train.dur_us as f64 / 1e6)
}

/// Runs `w` once: set up (repeatedly, keeping the last), run
/// the measured loop for `s.seconds`, then tear everything down.
pub fn run(w: &Workload, s: &Settings) -> Result<RunOutput, String> {
    match w.kind {
        Kind::Fresh(family) => run_fresh(w, family, s),
        Kind::Cached { pool } => run_cached(w, pool, s),
    }
}

fn run_fresh(w: &Workload, family: Family, s: &Settings) -> Result<RunOutput, String> {
    let origin = Instant::now();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..setup_repeats(s) {
        if let Some((topo, _)) = kept.take() {
            Topology::shutdown(topo);
        }
        let t0 = Instant::now();
        let topo = Topology::bind(w.backends, w.sessions)?;
        let mut session = Session {
            idx: 0,
            client: topo.clients[0].clone(),
            tr: Tracer::new(false, origin),
            records: Vec::new(),
            errors: Vec::new(),
        };
        let base = Base::generate(family, job_seed(s.seed, WARMUP));
        session.pair(WARMUP, &base, None, None)?;
        if !session.records.iter().all(|r| r.ok) {
            return Err("warm-up job failed its bitwise check".into());
        }
        session.records.clear();
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((topo, session));
    }
    let (topo, mut session) = kept.expect("at least one setup");

    let before = topo.counters();
    let start = Instant::now();
    let mut replays = Vec::new();
    session.run_loop(
        start,
        s,
        |sess, k| {
            let base = Base::generate(family, job_seed(s.seed, k));
            sess.pair(k, &base, None, None)
        },
        |sess, k, pair| replay_pair(&topo, sess, &pair, k, &mut replays),
    );
    let wall_s = start.elapsed().as_secs_f64();
    let after = topo.counters();
    let delta = Delta::between(&before, &after);
    let violations = delta.integrity_violations(0);
    topo.shutdown();
    Ok(RunOutput {
        setup_s,
        records: session.records,
        errors: session.errors,
        replays,
        wall_s,
        delta,
        violations,
        spans: session.tr.into_spans(),
    })
}

/// One pooled job as a session holds it.
struct PoolEntry {
    base: Base,
    obf: Obfuscated,
    /// The cold replies (plain, obfuscated) every later hit must equal.
    cold: (Bytes, Bytes),
}

fn build_pool(seed: u64, size: usize, tr: &mut Tracer) -> Result<Vec<PoolEntry>, String> {
    (0..size as u64)
        .map(|i| {
            let base = Base::generate(Family::Cv, job_seed(seed, i));
            let obf = obfuscate(&base, PLAN_SEED, tr, 0)?;
            Ok(PoolEntry {
                base,
                obf,
                cold: (Bytes::new(), Bytes::new()),
            })
        })
        .collect()
}

/// A session after warm-up: its pool, and the cold pairs that filled the
/// cache (kept for the traced run's replay).
type Warmed = (Session, Vec<PoolEntry>, Vec<Pair>);

fn run_cached(w: &Workload, pool_size: usize, s: &Settings) -> Result<RunOutput, String> {
    let origin = Instant::now();
    let mut setup_s = Vec::new();
    let mut kept: Option<(Topology, Vec<Warmed>)> = None;
    for _ in 0..setup_repeats(s) {
        if let Some((topo, _)) = kept.take() {
            topo.shutdown();
        }
        let t0 = Instant::now();
        let topo = Topology::bind(w.backends, w.sessions)?;
        // Each session builds the same seeded pool and warms its home
        // backend's cache with one cold submission of every job. Sessions
        // warm up one after another, so no two backends train at once and
        // the cold Train spans the traced run replays are uncontended.
        let mut sessions = Vec::new();
        for (idx, client) in topo.clients.iter().enumerate() {
            let mut session = Session {
                idx,
                client: client.clone(),
                tr: Tracer::new(false, origin),
                records: Vec::new(),
                errors: Vec::new(),
            };
            let mut pool = build_pool(s.seed, pool_size, &mut session.tr)?;
            let mut pairs = Vec::new();
            for (i, entry) in pool.iter_mut().enumerate() {
                let pair = session.pair(WARMUP + i as u64, &entry.base, Some(&entry.obf), None)?;
                entry.cold = (
                    pair.plain.1.trained_model.clone(),
                    pair.obf.1.trained_model.clone(),
                );
                pairs.push(pair);
            }
            if !session.records.iter().all(|r| r.ok) {
                return Err("cold pool job failed its bitwise check".into());
            }
            session.records.clear();
            sessions.push((session, pool, pairs));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((topo, sessions));
    }
    let (topo, mut sessions) = kept.expect("at least one setup");

    // Every session's cold results must agree: both backends trained the
    // same jobs independently.
    let mut replays = Vec::new();
    let mut violations = Vec::new();
    for (sess, pool, _) in &sessions[1..] {
        for (a, b) in pool.iter().zip(&sessions[0].1) {
            if a.cold != b.cold {
                violations.push(format!(
                    "session {} cold results differ from session 0's",
                    sess.idx
                ));
            }
        }
    }
    if s.traced {
        // Replay the pool's cold training once, against the backend's own
        // Train spans for those cold jobs.
        let (sess, _, pairs) = &mut sessions[0];
        sess.tr.set_enabled(true);
        for (i, pair) in pairs.iter().enumerate() {
            replay_pair(&topo, sess, pair, WARMUP + i as u64, &mut replays)?;
        }
        sess.tr.set_enabled(false);
    }

    let before = topo.counters();
    let start = Instant::now();
    let finished: Vec<(Session, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .drain(..)
            .map(|(mut sess, pool, _)| {
                scope.spawn(move || {
                    sess.run_loop(
                        start,
                        s,
                        |sess, k| {
                            let entry = &pool[(k as usize + sess.idx) % pool.len()];
                            sess.pair(k, &entry.base, Some(&entry.obf), Some(&entry.cold))
                        },
                        |_, _, _| Ok(()),
                    );
                    let done = start.elapsed().as_secs_f64();
                    (sess, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    let wall_s = finished.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    let after = topo.counters();
    let delta = Delta::between(&before, &after);
    let mut out = RunOutput {
        setup_s,
        records: Vec::new(),
        errors: Vec::new(),
        replays,
        wall_s,
        violations,
        spans: Vec::new(),
        delta,
    };
    let mut tr = Tracer::new(false, origin);
    for (sess, _) in finished {
        out.records.extend(sess.records);
        out.errors.extend(sess.errors);
        tr.absorb(sess.tr);
    }
    out.spans = tr.into_spans();
    // Every submission in the window must have been a hit.
    let hits = out.records.len() as u64;
    out.violations.extend(out.delta.integrity_violations(hits));
    topo.shutdown();
    Ok(out)
}
