//! Benchmark-side spans: name, start, end, parent and request id, kept
//! in memory and written out when the run ends. A span's self time is
//! its duration minus the part of its interval its children cover; the
//! root's self time in an attribution tree is the `unattributed` row.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds from the log's anchor.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    anchor: Instant,
    pub spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            anchor: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.anchor).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished span; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            request,
            parent,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a span; returns its result and the span index.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, request, parent, start, end))
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain(|&(s, e)| e > lo && s < hi);
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of span `idx`: its duration minus the part of its interval
/// its direct children cover (overlapping children count once).
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let span = &spans[idx];
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    span.duration_ns() - covered_ns(children, span.start_ns, span.end_ns)
}

/// A measured layer call for [`attribution_tree`]: its name, duration,
/// and the calls it contains.
#[derive(Debug, Clone)]
pub struct Layer {
    pub name: &'static str,
    pub duration_ns: u64,
    pub children: Vec<Layer>,
}

impl Layer {
    pub fn leaf(name: &'static str, duration_ns: u64) -> Layer {
        Layer {
            name,
            duration_ns,
            children: Vec::new(),
        }
    }
}

/// Lay measured layer durations out as a span tree under `root`:
/// children run back to back from their parent's start, so each
/// layer's self time is its duration minus its children's, clipped at
/// zero, and the root's self time is what no layer accounts for.
///
/// The layer calls of the replay run one after another (the program
/// exposes no hook inside a call), so this tree is the logical nesting
/// of separately measured calls, not a wall-clock trace.
pub fn attribution_tree(root: &Layer, request: u64) -> Vec<Span> {
    fn place(layer: &Layer, parent: Option<usize>, start: u64, request: u64, out: &mut Vec<Span>) {
        let idx = out.len();
        out.push(Span {
            name: layer.name,
            request,
            parent,
            start_ns: start,
            end_ns: start + layer.duration_ns,
        });
        let mut cursor = start;
        for child in &layer.children {
            place(child, Some(idx), cursor, request, out);
            cursor += child.duration_ns;
        }
    }
    let mut out = Vec::new();
    place(root, None, 0, request, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps a by 10
            span("c", Some(1), 15, 20),  // grandchild: not root's child
            span("d", Some(0), 90, 130), // runs past the root's end
        ];
        // Children cover [10, 60) and [90, 100): 60 of 100.
        assert_eq!(self_time_ns(&spans, 0), 40);
        assert_eq!(self_time_ns(&spans, 1), 25);
        assert_eq!(self_time_ns(&spans, 2), 30);
        assert_eq!(self_time_ns(&spans, 3), 5);
    }

    #[test]
    fn attribution_leaves_the_unexplained_remainder_on_the_root() {
        // A 1000 ns round trip: protocol 50, fit 300 (of which pca 120),
        // batcher 400 (prepare 60 + mesh 200 + complete 100).
        let root = Layer {
            name: "serve.roundtrip",
            duration_ns: 1000,
            children: vec![
                Layer::leaf("serve.protocol", 50),
                Layer {
                    name: "core.spectral_fit",
                    duration_ns: 300,
                    children: vec![Layer::leaf("linalg.pca", 120)],
                },
                Layer {
                    name: "serve.batcher",
                    duration_ns: 400,
                    children: vec![
                        Layer::leaf("codec.prepare", 60),
                        Layer::leaf("backend.mesh", 200),
                        Layer::leaf("codec.complete", 100),
                    ],
                },
            ],
        };
        let spans = attribution_tree(&root, 9);
        assert_eq!(spans.len(), 8);
        assert!(spans.iter().all(|s| s.request == 9));
        let self_of = |name: &str| {
            let i = spans.iter().position(|s| s.name == name).expect("span");
            self_time_ns(&spans, i)
        };
        assert_eq!(self_of("serve.roundtrip"), 250, "unattributed");
        assert_eq!(self_of("core.spectral_fit"), 180);
        assert_eq!(self_of("linalg.pca"), 120);
        assert_eq!(self_of("serve.batcher"), 40);
        // Self times partition the round trip exactly.
        let total: u64 = (0..spans.len()).map(|i| self_time_ns(&spans, i)).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn layers_longer_than_their_parent_clip_self_time_at_zero() {
        let root = Layer {
            name: "serve.roundtrip",
            duration_ns: 100,
            children: vec![
                Layer::leaf("serve.protocol", 70),
                Layer::leaf("backend.mesh", 60),
            ],
        };
        let spans = attribution_tree(&root, 0);
        assert_eq!(self_time_ns(&spans, 0), 0);
        assert_eq!(self_time_ns(&spans, 1), 70);
    }

    #[test]
    fn log_records_parent_links_and_writes_one_line_per_span() {
        let mut log = SpanLog::new();
        let ((), root) = log.time("replay", 3, None, || {});
        let (v, child) = log.time("codec.prepare", 3, Some(root), || 7);
        assert_eq!(v, 7);
        assert_eq!(log.spans[child].parent, Some(root));
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"codec.prepare\",\"request\":3,\"parent\":0"));
    }
}
