//! In-memory span recorder for the traced run: spans are recorded around
//! the calls the benchmark makes into each layer, kept in memory, and
//! written out once at exit.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`formulation`, `bb`, ...).
    pub name: &'static str,
    /// The item (loop or request) the span belongs to.
    pub item: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; the innermost open span is the parent of new ones.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it stays the parent of new spans until [`Self::close`].
    pub fn open(&mut self, name: &'static str, item: u32) -> u32 {
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            item,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`, and returns
    /// its duration.
    pub fn close(&mut self, idx: u32) -> Duration {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[idx as usize];
        span.end_ns = end;
        Duration::from_nanos(span.nanos())
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, item: u32, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name, item);
        let out = f();
        self.close(idx);
        out
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        let ns = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .sum();
        Duration::from_nanos(ns)
    }

    /// Self time per layer: each span's duration less the part its direct
    /// children cover, summed by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.nanos();
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_default() +=
                Duration::from_nanos(s.nanos().saturating_sub(children));
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"item\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.item, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut r = Recorder::default();
        let item = r.open("item", 0);
        r.span("leaf", 0, || std::thread::sleep(Duration::from_millis(5)));
        let total = r.close(item);
        let selfs = r.self_times();
        assert!(selfs["leaf"] >= Duration::from_millis(5));
        assert_eq!(selfs["item"] + selfs["leaf"], total);
        assert_eq!(r.spans[1].parent, Some(0));
    }
}
