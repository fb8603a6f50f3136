//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API. Each span carries its name, start, end, parent span and op
//! id (plus the size of the function it worked on, where there is one).
//! Spans stay in memory until the run ends; a layer's self time is its
//! spans' duration minus the part covered by their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

/// Span name of the root span of one op.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `cvm.opt`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
    /// Size of the function the layer worked on (IR instructions after
    /// lowering), or 0 for a whole-program call.
    pub size: usize,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens the root span of op `op`.
    pub fn begin_op(&mut self, op: u64) -> usize {
        assert!(self.open.is_empty(), "ops do not nest");
        self.op = op;
        self.open(OP, 0)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, size: usize) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            size,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, size: usize, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, size);
        let r = f();
        self.close(id);
        r
    }

    /// Records a child of the closed span `parent` covering the last
    /// `dur_ns` of it: time a layer reported about itself (the
    /// collector's pauses inside a VM run) rather than time the
    /// benchmark saw at a call boundary.
    pub fn reported_child(&mut self, parent: usize, name: &'static str, dur_ns: u64) {
        let p = &self.spans[parent];
        let dur_ns = dur_ns.min(p.dur_ns());
        let span = Span {
            name,
            start_ns: p.end_ns - dur_ns,
            end_ns: p.end_ns,
            parent: Some(parent),
            op: p.op,
            size: 0,
        };
        self.spans.push(span);
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Total self time per span name over the spans of `ops`.
    pub fn self_ns_by_name(&self, ops: Range<u64>) -> BTreeMap<&'static str, u64> {
        let mut by = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if ops.contains(&s.op) {
                *by.entry(s.name).or_insert(0) += own;
            }
        }
        by
    }

    /// The slope of ln(self time) against ln(function size) over the
    /// sized spans named `name`, by least squares; `None` with fewer than
    /// two distinct sizes.
    pub fn growth_exponent(&self, name: &str) -> Option<f64> {
        let points: Vec<(f64, f64)> = self
            .spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, own)| s.name == name && s.size > 0 && *own > 0)
            .map(|(s, own)| ((s.size as f64).ln(), (own as f64).ln()))
            .collect();
        let n = points.len() as f64;
        let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
        let my = points.iter().map(|p| p.1).sum::<f64>() / n;
        let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
        let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
        (sxx > 1e-9).then(|| sxy / sxx)
    }

    /// The spans of `ops` as JSON Lines, one object per span.
    pub fn to_jsonl(&self, ops: Range<u64>) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            if !ops.contains(&s.op) {
                continue;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"size\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.size
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::default();
        let op = r.begin_op(7);
        let vm = r.open("cvm.vm", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(vm);
        r.reported_child(vm, "gcheap", 1_000_000);
        r.close(op);
        let own = r.self_ns_by_name(0..u64::MAX);
        let vm_dur = r.spans()[vm].dur_ns();
        assert_eq!(own["gcheap"], 1_000_000);
        assert_eq!(own["cvm.vm"], vm_dur - 1_000_000);
        assert_eq!(
            own[OP] + own["cvm.vm"] + own["gcheap"],
            r.spans()[op].dur_ns()
        );
        assert!(r.spans().iter().all(|s| s.op == 7));
        assert_eq!(r.to_jsonl(7..8).lines().count(), 3);
        assert_eq!(r.to_jsonl(0..7).lines().count(), 0);
    }

    #[test]
    fn growth_exponent_is_the_log_log_slope() {
        let mut r = Recorder::default();
        for (size, ns) in [(10usize, 100u64), (20, 400), (40, 1600)] {
            let start = r.spans.len() as u64 * 10_000;
            r.spans.push(Span {
                name: "x",
                start_ns: start,
                end_ns: start + ns,
                parent: None,
                op: 0,
                size,
            });
        }
        let e = r.growth_exponent("x").expect("three sizes");
        assert!((e - 2.0).abs() < 1e-9, "{e}");
        assert_eq!(r.growth_exponent("y"), None);
    }
}
