//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Every span has a name, a start, an end, the job it belongs to and the
//! span that caused it; they stay in memory and are written out once the
//! run ends. A layer's *self* time is its span's duration minus the part of
//! that interval its direct children cover. A disabled tracer records
//! nothing, which is how the untraced runs measure end-to-end numbers.

use std::io::Write;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, as `<module>.<call>`.
    pub name: &'static str,
    /// The job whose blocking path this span is on.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the origin.
    pub start_ns: u64,
    /// End, nanoseconds since the origin.
    pub end_ns: u64,
}

impl Span {
    /// Inclusive duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, handed back to [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Open(Option<usize>);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between jobs.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing only between jobs");
        self.enabled = on;
    }

    /// Opens `name` for `job` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, job: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            job,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Closes every span still open — a job that failed midway — at now.
    pub fn close_all(&mut self) {
        let now = self.now_ns();
        for idx in self.stack.drain(..) {
            self.spans[idx].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, job);
        let out = f();
        self.exit(open);
        out
    }

    /// Every closed span so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the tracer, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Moves another thread's spans in, re-indexing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span, nanoseconds: its duration minus the union of
/// its direct children's intervals (clipped to it). Grandchildren are
/// their parent's business, so nothing is subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Writes the spans as JSON lines (`job`, `name`, `parent`, `start_us`,
/// `dur_us`, `self_us`).
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {i}, \"job\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {:.3}, \"dur_us\": {:.3}, \"self_us\": {:.3}}}",
            s.job,
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            self_ns as f64 / 1e3
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("turnaround", None, 0, 100),
            span("rpc", Some(0), 10, 60),
            span("rpc.inner", Some(1), 20, 50),
            span("extract", Some(0), 70, 90),
        ];
        // root: 100 − (50 + 20); rpc: 50 − 30; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        // Self times of a tree partition the root's duration exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", None, 100, 200),
            span("a", Some(0), 110, 150),
            span("b", Some(0), 140, 170), // overlaps a by 10
            span("c", Some(0), 190, 230), // runs past the parent's end
        ];
        // covered: [110,170) + [190,200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        let root = t.enter("turnaround", 7);
        t.span("protocol.encode", 7, || std::hint::black_box(1 + 1));
        t.exit(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].dur_ns() >= t.spans()[1].dur_ns());

        let mut other = Tracer::new(true, origin);
        let r = other.enter("turnaround", 8);
        other.span("rpc", 8, || ());
        other.exit(r);
        t.absorb(other);
        assert_eq!(
            t.spans()[3].parent,
            Some(2),
            "absorbed parents are re-indexed"
        );

        let mut off = Tracer::new(false, origin);
        let r = off.enter("turnaround", 9);
        off.exit(r);
        assert!(off.spans().is_empty(), "a disabled tracer records nothing");
    }
}
