//! Span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public API; nothing inside the program is instrumented.
//! A span's layer is its name up to the first `.` (`net.collapse` belongs
//! to `net`). Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id shared by every span of one HTTP call.
    pub req: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before it ends.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under an id from [`Tracer::open`].
    pub fn record(
        &self,
        id: u64,
        name: &str,
        parent: Option<u64>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            req,
        };
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .clone()
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time per layer: each span's duration minus the part of its
    /// interval that its children cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
            *out.entry(layer).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e9;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
                s.id,
                opt(s.parent),
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.req)
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, timing it and, when a tracer is given, recording it as the
/// span `name`. `f` receives the span's id to parent its children.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    name: &str,
    parent: Option<u64>,
    f: impl FnOnce(Option<u64>) -> T,
) -> (T, f64) {
    let id = tracer.map(Tracer::open);
    let start = Instant::now();
    let out = f(id);
    let end = Instant::now();
    if let (Some(t), Some(id)) = (tracer, id) {
        t.record(id, name, parent, None, start, end);
    }
    (out, end.duration_since(start).as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let o = t.origin;
        let at = |ms: u64| o + std::time::Duration::from_millis(ms);
        let root = t.open();
        let kid = t.open();
        t.record(kid, "net.collapse", Some(root), None, at(10), at(40));
        t.record(root, "core.mine", None, None, at(0), at(100));
        let self_time = t.self_time_by_layer();
        assert!((self_time["core"] - 0.070).abs() < 1e-9);
        assert!((self_time["net"] - 0.030).abs() < 1e-9);
    }
}
