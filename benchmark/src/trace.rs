//! Spans recorded by the benchmark's own code around each public call into
//! the program, kept in memory and written out when the workload ends.
//!
//! One op (or one pipelined round) is a root `offload` span; every phase of
//! it is a child. Phases are always timed — the end-to-end run needs the
//! client-side share of each op — but a span is only *kept* when the op is
//! traced, so the difference between traced and untraced ops is the tracing
//! overhead.

use crate::json::{obj, Json};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same list; `None` for a root.
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One generator thread's span buffer.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// `epoch` is shared by all generator threads of a run so their spans
    /// land on one time axis.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Times one op: the root span, its phases, and the client-side total.
pub struct OpTimer<'a> {
    tracer: &'a mut Tracer,
    /// Index of this op's root span when the op is traced.
    root: Option<usize>,
    op_id: u64,
    start_ns: u64,
    client_ns: u64,
}

impl<'a> OpTimer<'a> {
    pub fn start(tracer: &'a mut Tracer, op_id: u64, traced: bool) -> Self {
        let start_ns = tracer.now_ns();
        let root = traced.then(|| {
            tracer.spans.push(Span {
                name: "offload",
                start_ns,
                end_ns: start_ns,
                parent: None,
                op_id,
            });
            tracer.spans.len() - 1
        });
        OpTimer {
            tracer,
            root,
            op_id,
            start_ns,
            client_ns: 0,
        }
    }

    /// Runs `f` as the phase `name`. Phases named `client.*` count towards
    /// the op's client-side time. Returns the result and the phase's time.
    pub fn phase_timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start_ns = self.tracer.now_ns();
        let out = f();
        let end_ns = self.tracer.now_ns();
        if name.starts_with("client.") {
            self.client_ns += end_ns - start_ns;
        }
        if let Some(root) = self.root {
            self.tracer.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(root),
                op_id: self.op_id,
            });
        }
        (out, end_ns - start_ns)
    }

    pub fn phase<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.phase_timed(name, f).0
    }

    /// Client-side time spent inside a call the benchmark cannot see into.
    pub fn add_client_ns(&mut self, ns: u64) {
        self.client_ns += ns;
    }

    /// Closes the op: `(latency_ns, client_ns)`.
    pub fn finish(self) -> (u64, u64) {
        let end_ns = self.tracer.now_ns();
        if let Some(root) = self.root {
            self.tracer.spans[root].end_ns = end_ns;
        }
        (end_ns - self.start_ns, self.client_ns)
    }
}

/// Nanoseconds of `span`'s interval covered by its children (overlaps
/// counted once, children clipped to the parent).
pub fn child_coverage_ns(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let (mut covered, mut reach) = (0, parent.start_ns);
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// A span's self time: its duration minus what its children cover.
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    spans[idx].duration_ns() - child_coverage_ns(spans, idx)
}

/// Share of all root-span time that child spans account for.
pub fn span_coverage(spans: &[Span]) -> f64 {
    let (mut covered, mut total) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() {
            covered += child_coverage_ns(spans, i);
            total += s.duration_ns();
        }
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

/// Mean milliseconds per traced op spent in spans called `name` (0 when
/// nothing was traced).
pub fn mean_ms_per_op(spans: &[Span], name: &str) -> f64 {
    let roots = spans.iter().filter(|s| s.parent.is_none()).count();
    if roots == 0 {
        return 0.0;
    }
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum();
    total as f64 / 1e6 / roots as f64
}

/// The trace file: every span, plus self time summed by span name.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let mut self_ms: Vec<(&'static str, f64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let ms = self_time_ns(spans, i) as f64 / 1e6;
        match self_ms.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += ms,
            None => self_ms.push((s.name, ms)),
        }
    }
    obj([
        ("workload", Json::from(workload)),
        ("span_coverage", Json::from(span_coverage(spans))),
        (
            "self_time_ms",
            obj(self_ms.into_iter().map(|(n, ms)| (n, Json::from(ms)))),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        obj([
                            ("name", Json::from(s.name)),
                            ("start_ns", Json::from(s.start_ns)),
                            ("end_ns", Json::from(s.end_ns)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                            ),
                            ("op_id", Json::from(s.op_id)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("offload", 0, 100, None),
            span("client.encrypt", 10, 30, Some(0)),
            span("serve.evaluate", 30, 80, Some(0)),
            // Overlaps the previous child and overruns the parent: the
            // overlap counts once and the overrun not at all.
            span("client.decrypt", 70, 120, Some(0)),
            // Another op's child must not count here.
            span("offload", 200, 300, None),
            span("client.encrypt", 200, 250, Some(4)),
        ];
        assert_eq!(child_coverage_ns(&spans, 0), 90);
        assert_eq!(self_time_ns(&spans, 0), 10);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(self_time_ns(&spans, 4), 50);
        assert!((span_coverage(&spans) - 140.0 / 200.0).abs() < 1e-12);
        assert!((mean_ms_per_op(&spans, "client.encrypt") - 70e-6 / 2.0).abs() < 1e-15);
    }

    #[test]
    fn op_timer_nests_phases_under_the_root_only_when_traced() {
        let mut tracer = Tracer::new(Instant::now());
        let mut op = OpTimer::start(&mut tracer, 7, true);
        op.phase("client.encode", || std::hint::black_box(1 + 1));
        op.phase("serve.evaluate", || ());
        op.add_client_ns(5);
        let (latency, client) = op.finish();
        assert!(client >= 5 && client <= latency + 5);

        let mut op = OpTimer::start(&mut tracer, 8, false);
        let (_, ns) = op.phase_timed("client.encode", || ());
        let (_, client) = op.finish();
        assert_eq!(client, ns, "untraced ops still account client time");

        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3, "the untraced op left no spans");
        assert_eq!(spans[0].name, "offload");
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == Some(0) && s.op_id == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }
}
