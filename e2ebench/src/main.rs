//! End-to-end benchmark of the paper's workload through the whole system.
//!
//! Each job is augmented on the client (`amalgam-core`), submitted with
//! `RemoteCloudClient` through `AmalgamProxy` to `CloudServer` backends
//! over loopback, trained there, decoded, extracted and checked bit for bit
//! against its plain twin. Layers are measured from outside: spans around
//! the calls into each crate's public functions, and the system's own
//! exported counters and stage histograms.
//!
//! ```text
//! e2ebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that reports the per-layer split (and writes its spans to
//! `e2ebench/out/`). The last line of standard output is one JSON object;
//! the exit code is non-zero on any correctness or integrity failure.

mod jobs;
mod replay;
mod stats;
mod topology;
mod trace;
mod workloads;

use stats::{highest_tail, mean, median, quantile, samples_beyond};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use workloads::{RunOutput, Settings, Workload, WORKLOADS};

/// Compute threads the tensor kernels may use. One thread per kernel keeps
/// the load within the machine's cores: the closed loops never train on
/// more backends at once than there are sessions.
const TENSOR_THREADS: usize = 1;

/// The traced run's coverage gates: the `nn` replay must account for the
/// backend's training time, and the layer spans for each job's turnaround,
/// both within this share.
const COVERAGE_TOLERANCE: f64 = 0.10;

/// Quantiles a tail may be reported at.
const TAIL_CANDIDATES: [f64; 5] = [0.5, 0.75, 0.9, 0.95, 0.99];

struct Args {
    workload: String,
    settings: Settings,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        settings: Settings {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            traced: traced.unwrap_or(false),
        },
    })
}

/// One reported metric: name, value, unit and a note for the text report.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
        value: value + 0.0,
        unit,
        note: String::new(),
    }
}

/// A workload's verdict and numbers.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read process status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("VmHWM missing from process status")?;
    Ok(kb / 1024.0)
}

fn end_to_end(w: &Workload, out: &RunOutput) -> Result<Vec<Metric>, String> {
    let obf: Vec<_> = out.records.iter().filter(|r| r.obfuscated).collect();
    let turn: Vec<f64> = obf.iter().map(|r| r.turnaround_s).collect();
    let rpc: Vec<f64> = obf.iter().map(|r| r.rpc_s).collect();
    // Each obfuscated job over its plain twin, sent just before it: a host
    // slowdown that spans the pair cancels, which the ratio of the two
    // medians would not do.
    let ratios: Vec<f64> = obf
        .iter()
        .map(|r| r.turnaround_s / r.twin_turnaround_s)
        .collect();
    let n = turn.len();
    let rule = highest_tail(n, &TAIL_CANDIDATES, 10)
        .map_or("none".into(), |q| format!("p{}", (q * 100.0).round()));
    let tail = format!(
        "p{} of n={n}, {} beyond (10-beyond rule allows {rule})",
        (w.tail_q * 100.0).round(),
        samples_beyond(n, w.tail_q)
    );
    let mut m = vec![
        metric("setup_s", median(&out.setup_s), "s"),
        metric("turnaround_p50_s", median(&turn), "s"),
        metric("turnaround_tail_s", quantile(&turn, w.tail_q), "s"),
        metric("rpc_p50_s", median(&rpc), "s"),
        metric("rpc_tail_s", quantile(&rpc, w.tail_q), "s"),
        metric("jobs_per_s", n as f64 / out.wall_s, "1/s"),
        metric("overhead_ratio", median(&ratios), "ratio"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    m[0].note = format!("median of {} set-ups", out.setup_s.len());
    m[1].note = format!("n={n}");
    m[2].note = tail.clone();
    m[3].note = format!("n={n}");
    m[4].note = tail;
    m[5].note = format!("{n} obfuscated jobs in {:.2} s", out.wall_s);
    m[6].note = format!("median over {n} pairs of obfuscated / plain-twin turnaround");
    Ok(m)
}

/// Per-layer means over a traced run, from its spans, replays and the
/// system's counter deltas.
fn per_layer(out: &RunOutput, problems: &mut Vec<String>) -> Vec<Metric> {
    let self_ns = trace::self_times(&out.spans);
    // Blocking-path layers: the direct children of each turnaround root.
    let mut by_job: BTreeMap<u64, BTreeMap<&str, f64>> = BTreeMap::new();
    let mut min_coverage = f64::INFINITY;
    for (i, s) in out.spans.iter().enumerate() {
        let parent = s.parent.map(|p| &out.spans[p]);
        match parent {
            None if s.name == "turnaround" => {
                let covered = 1.0 - self_ns[i] as f64 / s.dur_ns().max(1) as f64;
                min_coverage = min_coverage.min(covered);
            }
            Some(p)
                if p.name == "turnaround"
                    || (p.name == "inspect" && s.name == "protocol.reply_decode") =>
            {
                *by_job.entry(s.job).or_default().entry(s.name).or_default() +=
                    s.dur_ns() as f64 / 1e6;
            }
            _ => {}
        }
    }
    let obf_traced = out
        .records
        .iter()
        .filter(|r| r.obfuscated && r.traced)
        .count()
        .max(1) as f64;
    let obf_mean = |names: &[&str]| -> f64 {
        by_job
            .iter()
            .filter(|(job, _)| *job & 1 == 1)
            .map(|(_, layers)| names.iter().filter_map(|n| layers.get(n)).sum::<f64>())
            .sum::<f64>()
            / obf_traced
    };
    let obf: Vec<_> = out.records.iter().filter(|r| r.obfuscated).collect();
    let jobs = out.records.len().max(1) as u64;
    let per_job = |n: u64| n as f64 / jobs as f64;
    let d = &out.delta;

    let mut m = vec![
        metric(
            "core.augment_dataset_ms",
            obf_mean(&["core.augment_dataset"]),
            "ms",
        ),
        metric(
            "core.augment_model_ms",
            obf_mean(&["core.augment_model"]),
            "ms",
        ),
        metric("core.extract_ms", obf_mean(&["core.extract"]), "ms"),
        metric("check.verify_ms", obf_mean(&["check.verify"]), "ms"),
        metric("protocol.encode_ms", obf_mean(&["protocol.encode"]), "ms"),
        metric(
            "protocol.decode_ms",
            obf_mean(&["protocol.decode", "protocol.reply_decode"]),
            "ms",
        ),
        metric(
            "protocol.upload_bytes",
            mean(obf.iter().map(|r| r.upload_bytes as f64)),
            "B",
        ),
        metric(
            "protocol.reply_bytes",
            mean(obf.iter().map(|r| r.reply_bytes as f64)),
            "B",
        ),
        metric(
            "rpc.non_train_ms",
            mean(obf.iter().map(|r| (r.rpc_s - r.train_s) * 1e3)),
            "ms",
        ),
        metric("proxy.hop_ms", d.hop_ms, "ms"),
        metric("transport.frames_per_job", per_job(d.frames), "count"),
        metric(
            "transport.control_frames_per_job",
            per_job(d.control_frames),
            "count",
        ),
        metric(
            "proxy.relay_frames_per_job",
            per_job(d.relay_frames),
            "count",
        ),
        metric(
            "reactor.wakeups_per_job",
            per_job(d.reactor_wakeups),
            "count",
        ),
        metric("reactor.events_per_job", per_job(d.reactor_events), "count"),
    ];
    for (stage, h) in &d.stages {
        m.push(metric(
            format!("stage.{}_ms", stage.as_str()),
            h.per_job_ms(jobs),
            "ms",
        ));
    }
    m.push(metric(
        "dedup.hit_ratio",
        if d.submitted == 0 {
            0.0
        } else {
            d.cache_hits as f64 / d.submitted as f64
        },
        "ratio",
    ));

    let side = |obfuscated: bool| -> Vec<&replay::NnTimes> {
        out.replays
            .iter()
            .filter(|r| r.obfuscated == obfuscated)
            .map(|r| &r.nn)
            .collect()
    };
    // Every job trains one epoch, so per-job means are per-epoch means.
    for (label, times) in [("aug", side(true)), ("plain", side(false))] {
        let avg = |f: fn(&replay::NnTimes) -> f64| mean(times.iter().map(|t| f(t) * 1e3));
        m.push(metric(
            format!("nn.{label}.batch_ms"),
            avg(|t| t.batch),
            "ms",
        ));
        m.push(metric(
            format!("nn.{label}.forward_ms"),
            avg(|t| t.forward),
            "ms",
        ));
        m.push(metric(format!("nn.{label}.loss_ms"), avg(|t| t.loss), "ms"));
        m.push(metric(
            format!("nn.{label}.backward_ms"),
            avg(|t| t.backward),
            "ms",
        ));
        m.push(metric(
            format!("nn.{label}.optim_ms"),
            avg(|t| t.optim),
            "ms",
        ));
    }
    let total = |obfuscated: bool| mean(side(obfuscated).iter().map(|t| t.total()));
    m.push(metric(
        "nn.synthetic_share",
        1.0 - total(false) / total(true),
        "ratio",
    ));

    let traced_turn: Vec<f64> = obf
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.turnaround_s)
        .collect();
    let untraced_turn: Vec<f64> = obf
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.turnaround_s)
        .collect();
    m.push(metric(
        "trace.overhead_ratio",
        median(&traced_turn) / median(&untraced_turn),
        "ratio",
    ));

    let replayed: f64 = out.replays.iter().map(|r| r.nn.total()).sum();
    let trained: f64 = out.replays.iter().map(|r| r.backend_train_s).sum();
    let replay_ratio = replayed / trained;
    println!(
        "# coverage: nn replay / backend Stage::Train = {replay_ratio:.4} over {} replayed jobs",
        out.replays.len()
    );
    m.push(metric("trace.blocking_coverage", min_coverage, "ratio"));
    if out.replays.is_empty() {
        problems.push("traced run replayed no job".into());
    } else if (replay_ratio - 1.0).abs() > COVERAGE_TOLERANCE {
        problems.push(format!(
            "coverage: nn replay {:.1} ms vs backend Stage::Train {:.1} ms (ratio {replay_ratio:.3}, tolerance {COVERAGE_TOLERANCE})",
            replayed * 1e3,
            trained * 1e3
        ));
    }
    if min_coverage.is_nan() || min_coverage < 1.0 - COVERAGE_TOLERANCE {
        problems.push(format!(
            "coverage: layer spans cover only {:.1}% of some job's turnaround",
            min_coverage * 100.0
        ));
    }
    m
}

fn evaluate(w: &Workload, s: &Settings, out: &RunOutput) -> Result<Report, String> {
    let mut problems: Vec<String> = out.errors.clone();
    let mismatches =
        out.records.iter().filter(|r| !r.ok).count() + out.replays.iter().filter(|r| !r.ok).count();
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} jobs failed the bitwise check (extract_mismatches)"
        ));
    }
    let attempted = out.records.len() + out.errors.len();
    let failed = out.errors.len() + mismatches;
    let obf = out.records.iter().filter(|r| r.obfuscated).count();
    // These two must read 0; they enter the JSON as `failed` and `correct`.
    let error_rate = out.errors.len() as f64 / attempted.max(1) as f64;
    println!(
        "{:<36} {:>16.6} {:<6} {} of {attempted} jobs errored",
        "error_rate",
        error_rate,
        "ratio",
        out.errors.len()
    );
    println!(
        "{:<36} {:>16} {:<6} bitwise checks failed",
        "extract_mismatches", mismatches, "count"
    );
    if obf == 0 || obf == out.records.len() {
        problems.push("the run completed no pair of jobs".into());
    }
    for v in &out.violations {
        problems.push(format!("integrity: {v}"));
    }
    let mut metrics = if s.traced {
        per_layer(out, &mut problems)
    } else {
        end_to_end(w, out)?
    };
    if !problems.is_empty() {
        // A run that failed a check is reported as failed, never as a number.
        metrics.clear();
    }
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
    })
}

fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn write_spans(w: &Workload, s: &Settings, out: &RunOutput) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let path = format!("{dir}/trace-{}-seed{}.jsonl", w.name, s.seed);
    let file = std::fs::File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
    let mut buf = std::io::BufWriter::new(file);
    trace::write_jsonl(&out.spans, &mut buf).map_err(|e| format!("write {path}: {e}"))?;
    std::io::Write::flush(&mut buf).map_err(|e| format!("write {path}: {e}"))?;
    Ok(path)
}

fn run_one(w: &Workload, s: &Settings) -> Result<Report, String> {
    println!(
        "# workload {} — closed loop, {} session(s) → proxy → {} backend(s) × 1 worker, seed {}",
        w.name, w.sessions, w.backends, s.seed
    );
    println!("#   why: {}", w.why);
    println!("#   stresses: {}", w.stresses);
    println!("#   bypasses (predicted no change): {}", w.bypasses);
    let out = workloads::run(w, s)?;
    if s.traced {
        println!("# spans written to {}", write_spans(w, s, &out)?);
    }
    let report = evaluate(w, s, &out)?;
    for p in &report.problems {
        println!("# FAIL {p}");
    }
    for m in &report.metrics {
        println!("{:<36} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a number", bad.name));
    }
    Ok(report)
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let chosen: Vec<&Workload> = if args.workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        vec![WORKLOADS
            .iter()
            .find(|w| w.name == args.workload)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?]
    };
    amalgam_tensor::parallel::set_threads(TENSOR_THREADS);
    println!(
        "# machine hw_threads={} simd_tier={:?} tensor_threads={} trace={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        amalgam_tensor::simd::detected_tier(),
        amalgam_tensor::parallel::threads(),
        u8::from(args.settings.traced)
    );
    let mut all = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for w in &chosen {
        let r = run_one(w, &args.settings)?;
        let prefix = if chosen.len() > 1 {
            format!("{}/", w.name)
        } else {
            String::new()
        };
        all.extend(
            r.metrics
                .iter()
                .map(|m| (format!("{prefix}{}", m.name), m.value, m.unit)),
        );
        correct &= r.correct;
        attempted += r.attempted;
        failed += r.failed;
    }
    println!("{}", json_line(correct, attempted, failed, &all));
    Ok(correct)
}
