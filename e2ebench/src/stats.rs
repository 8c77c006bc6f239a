//! Order statistics and counter deltas behind every number the benchmark
//! reports.

use amalgam_cloud::HistogramSnapshot;

/// Median of `xs` (mean of the two middle values when `n` is even);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`): the value at 1-based rank
/// `ceil(q·n)` of the sorted samples; `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(s.len(), q) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The tail rule: the highest of `candidates` (quantiles, ascending) that
/// still has at least `min_beyond` samples beyond it among `n`, or `None`
/// when even the lowest candidate is too high for `n` samples.
pub fn highest_tail(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&q| samples_beyond(n, q) >= min_beyond)
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Arithmetic mean; 0 when empty (per-layer means of layers that never
/// ran read as zero).
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (n, sum) = xs
        .into_iter()
        .fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// What one stage histogram recorded between two snapshots of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistDelta {
    /// Values recorded in between.
    pub count: u64,
    /// Their sum, microseconds.
    pub sum_us: u64,
}

impl HistDelta {
    /// The delta `after − before` of one histogram (a missing snapshot is
    /// an empty histogram: the system exports only stages that fired).
    pub fn between(before: Option<&HistogramSnapshot>, after: Option<&HistogramSnapshot>) -> Self {
        let (c0, s0) = before.map_or((0, 0), |h| (h.count, h.sum));
        let (c1, s1) = after.map_or((0, 0), |h| (h.count, h.sum));
        HistDelta {
            count: c1.saturating_sub(c0),
            sum_us: s1.saturating_sub(s0),
        }
    }

    /// Mean recorded value in milliseconds (0 when nothing was recorded).
    pub fn mean_ms(&self) -> f64 {
        self.per_job_ms(self.count)
    }

    /// Recorded time per job in milliseconds: the stage's total over
    /// `jobs`, so a stage that fires twice per job counts twice and one
    /// that never fires reads 0.
    pub fn per_job_ms(&self, jobs: u64) -> f64 {
        if jobs == 0 {
            0.0
        } else {
            self.sum_us as f64 / jobs as f64 / 1e3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalgam_cloud::Histogram;

    #[test]
    fn median_and_nearest_rank_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        let qs = [0.5, 0.75, 0.9, 0.95, 0.99];
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert_eq!(highest_tail(100, &qs, 10), Some(0.9));
        // 1000 samples reach p99; 40 only the upper quartile.
        assert_eq!(highest_tail(1000, &qs, 10), Some(0.99));
        assert_eq!(highest_tail(40, &qs, 10), Some(0.75));
        assert_eq!(highest_tail(39, &qs, 10), Some(0.5));
        // Too few samples for any tail at all.
        assert_eq!(highest_tail(15, &qs, 10), None);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn histogram_delta_means_cover_only_the_window() {
        let h = Histogram::new();
        for v in [1_000, 3_000, 500_000] {
            h.record(v);
        }
        let before = h.snapshot();
        for v in [2_000, 4_000] {
            h.record(v);
        }
        let after = h.snapshot();
        let d = HistDelta::between(Some(&before), Some(&after));
        assert_eq!(
            d,
            HistDelta {
                count: 2,
                sum_us: 6_000
            }
        );
        assert_eq!(d.mean_ms(), 3.0);
        // Two recordings spread over three jobs.
        assert_eq!(d.per_job_ms(3), 2.0);
        // A stage that only appears in the later snapshot started from 0.
        let fresh = HistDelta::between(None, Some(&after));
        assert_eq!(fresh.count, 5);
        // A stage that never fired reads zero, not NaN.
        let none = HistDelta::between(None, None);
        assert_eq!(none.per_job_ms(4), 0.0);
        assert_eq!(HistDelta::default().per_job_ms(0), 0.0);
    }
}
