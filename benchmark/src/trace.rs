//! In-memory spans around the benchmark's calls into each layer.
//!
//! The traced pass wraps every call the benchmark makes into a layer's public
//! function in a span; spans stay in memory and are written out once, when
//! the run ends. Nothing inside the program under test is instrumented.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. `parent` is the span that caused this one (0 for a
/// root); spans of one request share the request span as their parent. `n` is
/// the number of operations the interval covers (1 unless a probe loop).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub n: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span sink shared by the threads of one run. When `enabled` is false every
/// call runs its closure and records nothing, so the end-to-end pass and the
/// traced pass execute the same code.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Run `f` inside a span covering one operation; returns `f`'s result and
    /// the span's id (0 when tracing is off) for use as a parent.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        self.span_n(name, parent, 1, f)
    }

    /// As [`Tracer::span`], for an interval that covers `n` operations.
    pub fn span_n<R>(
        &self,
        name: &'static str,
        parent: u64,
        n: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.alloc_id();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            n,
        });
        out
    }

    pub fn push(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span sink poisoned").push(span);
        }
    }

    /// Hand over spans a thread collected locally (no lock per span).
    pub fn extend(&self, spans: Vec<Span>) {
        if self.enabled && !spans.is_empty() {
            self.spans.lock().expect("span sink poisoned").extend(spans);
        }
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// One JSON object per line: `name, start_ns, end_ns, id, parent, n,
    /// workload`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<usize> {
        let mut spans = self.snapshot();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"n\":{},\"workload\":\"{}\"}}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.n, workload
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub spans: u64,
    pub ops: u64,
    pub total_ns: u64,
    /// Duration minus the part its child spans cover.
    pub self_ns: u64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Per-name totals with self time: a span's duration minus the part of that
/// interval its direct children cover (overlapping children count once).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.ops += s.n;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, id: u64, parent: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            id,
            parent,
            n: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("request", 0, 100, 1, 0),
            span("encode", 10, 30, 2, 1),
            // Overlapping children count once: [20,50) ∪ [10,30) = [10,50).
            span("send", 20, 50, 3, 1),
            // A child that outlives its parent is clipped to it.
            span("recv", 90, 140, 4, 1),
            // Grandchildren shrink the child's self time, not the root's.
            span("syscall", 22, 28, 5, 3),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["request"].total_ns, 100);
        assert_eq!(t["request"].self_ns, 100 - 40 - 10);
        assert_eq!(t["send"].self_ns, 30 - 6);
        assert_eq!(t["encode"].self_ns, 20);
        assert_eq!(t["recv"].self_ns, 50);
    }

    #[test]
    fn totals_accumulate_ops_per_name() {
        let mut a = span("probe", 0, 1000, 1, 0);
        a.n = 100;
        let mut b = span("probe", 2000, 4000, 2, 0);
        b.n = 100;
        let t = totals_by_name(&[a, b]);
        assert_eq!(t["probe"].spans, 2);
        assert_eq!(t["probe"].ops, 200);
        assert_eq!(t["probe"].total_ns, 3000);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_closure() {
        let off = Tracer::new(false);
        assert_eq!(off.span("x", 0, |id| id + 41), 41);
        assert!(off.snapshot().is_empty());
        let on = Tracer::new(true);
        let inner = on.span("outer", 0, |outer| on.span("inner", outer, |id| id));
        let spans = on.snapshot();
        assert_eq!(spans.len(), 2);
        let inner_span = spans.iter().find(|s| s.id == inner).unwrap();
        let outer_span = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner_span.parent, outer_span.id);
        assert!(outer_span.start_ns <= inner_span.start_ns);
        assert!(outer_span.end_ns >= inner_span.end_ns);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let t = Tracer::new(true);
        t.span("a", 0, |_| ());
        t.span_n("b", 0, 7, |_| ());
        let dir = crate::host::out_dir().join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("trace-test.jsonl");
        assert_eq!(t.write_jsonl(&path, "unit").unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = serde_json::parse_value(line).unwrap();
            assert!(v.get("start_ns").is_some() && v.get("workload").is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
