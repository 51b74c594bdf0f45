//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer: name, start, end, parent span and a group id (one
//! per request or per Table 5 grid cell). They stay in memory and are
//! written out as JSON lines when the run ends. A layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover (children may overlap when they ran on parallel threads, so
//! coverage is the union of their intervals).

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span's id, `0` for a root.
    pub parent: u64,
    /// Request or grid-cell id shared by all spans of one unit of work.
    pub group: u64,
    /// Layer name, e.g. `serve.handle`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe in-memory span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The tracer's time for an instant.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for callers that open a span before its
    /// children and [`Tracer::record_with_id`] it when it ends.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        group: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.new_id();
        self.record_with_id(id, name, group, parent, start_ns, end_ns);
        id
    }

    /// Record a finished span under a pre-allocated id.
    pub fn record_with_id(
        &self,
        id: u64,
        name: &'static str,
        group: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.lock().unwrap().push(Span {
            id,
            parent,
            group,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Time `f` as a span; returns its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        group: u64,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.new_id();
        let start = self.now_ns();
        let out = f(id);
        self.record_with_id(id, name, group, parent, start, self.now_ns());
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().unwrap().clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Total duration per span name, in seconds.
pub fn total_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.duration_ns() as f64 / 1e9;
    }
    out
}

/// Self time per span name, in seconds: each span's duration minus the
/// union of its children's intervals clipped to it.
pub fn self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
        *out.entry(s.name).or_insert(0.0) += s.duration_ns().saturating_sub(covered) as f64 / 1e9;
    }
    out
}

/// Length of the union of `intervals` within `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Write spans as JSON lines (`id`, `parent`, `group`, `name`,
/// `start_ns`, `end_ns`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"group\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.group, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let t = Tracer::new();
        let root = t.record("root", 1, 0, 0, 100);
        // Two children overlap on [20, 30]; one pokes past the parent.
        t.record("child", 1, root, 10, 30);
        t.record("child", 1, root, 20, 40);
        t.record("child", 1, root, 90, 120);
        let selfs = self_s(&t.spans());
        assert!((selfs["root"] - 60e-9).abs() < 1e-15, "{selfs:?}");
        assert!((selfs["child"] - 70e-9).abs() < 1e-15, "{selfs:?}");
        assert!((total_s(&t.spans())["child"] - 70e-9).abs() < 1e-15);
    }
}
