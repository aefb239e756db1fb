//! In-memory span recorder for the traced run.
//!
//! A span marks one call from the benchmark into a layer's public entry
//! point: its name, start and end (nanoseconds since the tracer was made),
//! the span that was open when it began, and the id of the program it
//! served. Spans stay in memory and are written out once, at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer entry point, e.g. `core.coverage.sweep`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Program the span served (index into the workload's program list).
    pub program: usize,
}

/// Span recorder; spans nest in call order on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; returns `f`'s result and the
    /// span's index.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        program: usize,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, usize) {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            program,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        (r, id)
    }

    /// Spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close the bookkeeping of spans left open by a panic, back to
    /// `depth` open spans (their recorded end stays at their start).
    pub fn truncate_open(&mut self, depth: usize) {
        self.open.truncate(depth);
    }

    /// Record a child of `parent` whose duration the layer itself measured
    /// and returned (e.g. the sweep's record, spec and merge phases): the
    /// children are laid end to end from the parent's start.
    pub fn phases(&mut self, parent: usize, phases: &[(&'static str, u64)]) {
        let (mut at, program) = (self.spans[parent].start, self.spans[parent].program);
        for &(name, ns) in phases {
            self.spans.push(Span {
                name,
                start: at,
                end: at + ns,
                parent: Some(parent),
                program,
            });
            at += ns;
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"program\": {}}}",
                s.name, s.start, s.end, s.program
            );
        }
        out
    }
}

/// Duration of span `id`, nanoseconds.
pub fn duration(spans: &[Span], id: usize) -> u64 {
    spans[id].end - spans[id].start
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and
/// a child is clipped to the parent's interval).
pub fn self_time(spans: &[Span], id: usize) -> u64 {
    let (lo, hi) = (spans[id].start, spans[id].end);
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.clamp(lo, hi), s.end.clamp(lo, hi)))
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start,
            end,
            parent,
            program: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),  // overlaps the previous child
            span(90, 120, Some(0)), // clipped at the parent's end
            span(12, 14, Some(1)),  // grandchild: not the root's business
        ];
        assert_eq!(duration(&spans, 0), 100);
        assert_eq!(self_time(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time(&spans, 1), 18);
        assert_eq!(self_time(&spans, 4), 2);
    }

    #[test]
    fn nested_spans_record_parents_and_phases_tile_the_parent() {
        let mut t = Tracer::default();
        let ((), outer) = t.span("outer", 3, |t| {
            t.span("inner", 3, |_| std::hint::black_box(()));
        });
        t.phases(outer, &[("a", 5), ("b", 7)]);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(outer));
        assert_eq!(s[2].start, s[0].start);
        assert_eq!(s[3].start, s[2].end);
        assert_eq!(duration(s, 3), 7);
        assert!(s.iter().all(|x| x.program == 3 && x.end >= x.start));
        assert_eq!(t.to_json_lines().lines().count(), 4);
    }
}
