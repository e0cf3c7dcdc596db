//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary —
//! around the call, never inside the program — kept in memory, and written
//! out as JSON when the run ends.  A disabled recorder (the untraced run that
//! produces the end-to-end metrics) records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = 0;

/// One timed call (or phase), linked to the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// `<layer>.<call>`, e.g. `pivots.select_pivots`.
    pub name: String,
    /// The operation the span belongs to (`pgbj`, `lone`, `churn`, …).
    pub op: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (work done, not time).
    pub counts: Vec<(String, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct OpenSpan {
    id: u64,
    parent: u64,
    name: String,
    op: String,
    start_ns: u64,
}

impl OpenSpan {
    /// The id children name as their parent (`ROOT` when recording is off,
    /// so children of an unrecorded span are not recorded as orphans either).
    pub fn id(&self) -> u64 {
        self.id
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was created.
    pub fn ns_at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn fresh_id(&self) -> u64 {
        // ORDERING: Relaxed — ids only need to be unique.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn open(&self, parent: u64, name: &str, op: &str) -> OpenSpan {
        OpenSpan {
            id: if self.enabled { self.fresh_id() } else { ROOT },
            parent,
            name: name.to_string(),
            op: op.to_string(),
            start_ns: self.ns_at(Instant::now()),
        }
    }

    pub fn close(&self, open: OpenSpan, counts: &[(&str, f64)]) {
        let end_ns = self.ns_at(Instant::now());
        if self.enabled {
            self.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                op: open.op,
                start_ns: open.start_ns,
                end_ns,
                counts: counts.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            });
        }
    }

    /// Times `call` as one span and hands back its value.
    pub fn time<T>(&self, parent: u64, name: &str, op: &str, call: impl FnOnce() -> T) -> T {
        let open = self.open(parent, name, op);
        let value = call();
        self.close(open, &[]);
        value
    }

    /// Records a span whose interval was measured elsewhere (a request timed
    /// from its due time, a phase the program timed itself).
    pub fn record(
        &self,
        parent: u64,
        name: &str,
        op: &str,
        (start_ns, end_ns): (u64, u64),
        counts: &[(&str, f64)],
    ) -> u64 {
        if !self.enabled {
            return ROOT;
        }
        let id = self.fresh_id();
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            op: op.to_string(),
            start_ns,
            end_ns,
            counts: counts.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// child spans cover (overlapping children — parallel calls — count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            let mut intervals = children.remove(&span.id).unwrap_or_default();
            intervals.sort_unstable();
            for (start, end) in intervals {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.id, span.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Durations, in seconds, of every span called `name` belonging to `op`
/// (`None` = any operation).
pub fn durations_s(spans: &[Span], name: &str, op: Option<&str>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && op.is_none_or(|op| s.op == op))
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect()
}

/// The trace as one JSON document (spans with their self time).
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let self_ns = self_times(spans);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema_version\": 1, \"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
    );
    for (i, span) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"workload\": \"{workload}\", \
             \"op\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"counts\": {{",
            if i == 0 { "" } else { "," },
            span.id,
            span.parent,
            span.name,
            span.op,
            span.start_ns,
            span.end_ns,
            self_ns.get(&span.id).copied().unwrap_or(0),
        );
        for (j, (key, value)) in span.counts.iter().enumerate() {
            let _ = write!(out, "{}\"{key}\": {value}", if j == 0 { "" } else { ", " });
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            op: "op".into(),
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_span_minus_what_children_cover() {
        let spans = vec![
            span(1, ROOT, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 40, 70),
            span(4, 3, 45, 50),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 20 - 30);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 30 - 5);
        assert_eq!(own[&4], 5);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_are_clipped() {
        let spans = vec![
            span(1, ROOT, 100, 200),
            // two parallel children overlapping on [120, 150)
            span(2, 1, 110, 150),
            span(3, 1, 120, 160),
            // a child that outlives its parent is clipped at the parent's end
            span(4, 1, 190, 260),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 50 - 10);
        // a child covering more than its parent never drives self time negative
        let spans = vec![span(1, ROOT, 10, 20), span(2, 1, 0, 50)];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_orphans_nothing() {
        let rec = Recorder::new(false);
        let open = rec.open(ROOT, "a.b", "op");
        assert_eq!(open.id(), ROOT);
        rec.close(open, &[("n", 1.0)]);
        assert_eq!(rec.record(ROOT, "c.d", "op", (0, 5), &[]), ROOT);
        assert_eq!(rec.time(ROOT, "e.f", "op", || 7), 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn recorded_spans_link_to_their_parents_and_serialise() {
        let rec = Recorder::new(true);
        let outer = rec.open(ROOT, "phase.batch", "pgbj");
        let inner = rec.record(outer.id(), "algorithms.knn_join", "pgbj", (5, 9), &[]);
        let outer_id = outer.id();
        rec.close(outer, &[("dist_evals", 42.0)]);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.id == inner).unwrap();
        assert_eq!(child.parent, outer_id);
        assert_eq!(
            durations_s(&spans, "algorithms.knn_join", Some("pgbj")),
            [4e-9]
        );
        assert!(durations_s(&spans, "algorithms.knn_join", Some("pbj")).is_empty());
        let json = to_json("w", 3, &spans);
        assert!(json.contains("\"dist_evals\": 42"));
        assert!(json.contains(&format!("\"parent\": {outer_id}")));
        assert!(json.contains("\"workload\": \"w\""));
    }
}
