//! The traced run's span recorder. Spans are taken in the benchmark's
//! own code, around its calls into each layer's public functions; the
//! program itself is not instrumented. Spans stay in memory until the
//! run ends and are then written out in one go.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. `parent` is the id of the span that caused
/// it; spans of one op share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe, in-memory span store. Ids are indices into the store.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned: a traced op panicked")
    }

    /// Opens a span that later spans name as their parent.
    pub fn open(&self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end = self.now_ns();
        self.lock()[id].end_ns = end;
    }

    /// Times `f` as a leaf span.
    pub fn leaf<T>(&self, name: &'static str, op: u64, parent: usize, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.lock().push(Span {
            name,
            op,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
        out
    }

    /// Records an interval measured elsewhere (a client's send-to-reply
    /// time), as a root span.
    pub fn record(&self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.lock().push(Span {
            name,
            op,
            parent: None,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span store poisoned: a traced op panicked")
    }
}

/// Per-name views over a finished trace.
pub struct Breakdown {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
}

impl Breakdown {
    /// Computes each span's self time: its duration minus the part of
    /// its interval that its children cover (children running in
    /// parallel cover the same time once, not twice).
    pub fn new(spans: Vec<Span>) -> Breakdown {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let self_ns = spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
            .collect();
        Breakdown { spans, self_ns }
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed self time of every span called `name`, in seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e9)
            .sum()
    }

    /// The share of the root spans' wall time not covered by any child:
    /// time inside an op that no layer span accounts for.
    pub fn unattributed_ratio(&self, root: &str) -> f64 {
        let (mut total, mut own) = (0u64, 0u64);
        for (s, &ns) in self.spans.iter().zip(&self.self_ns) {
            if s.name == root {
                total += s.dur_ns();
                own += ns;
            }
        }
        own as f64 / total.max(1) as f64
    }

    /// Self time per span name, in seconds, for the run summary.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, &ns) in self.spans.iter().zip(&self.self_ns) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, ns)) in self.spans.iter().zip(&self.self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `kids` clipped to `[start, end)`.
fn covered(start: u64, end: u64, mut kids: Vec<(u64, u64)>) -> u64 {
    kids.sort_unstable();
    let (mut total, mut cursor) = (0, start);
    for (s, e) in kids {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let b = Breakdown::new(vec![
            span("op", None, 0, 100),
            // Two overlapping children (parallel workers) cover 10..60.
            span("a", Some(0), 10, 50),
            span("a", Some(0), 20, 60),
            span("b", Some(0), 70, 90),
            span("c", Some(3), 75, 80),
        ]);
        assert_eq!(b.busy_s("op"), 30e-9);
        assert_eq!(b.busy_s("a"), 80e-9);
        assert_eq!(b.busy_s("b"), 15e-9);
        assert_eq!(b.calls("a"), 2);
        assert!((b.unattributed_ratio("op") - 0.3).abs() < 1e-12);
    }
}
