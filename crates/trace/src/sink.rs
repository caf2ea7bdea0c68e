//! The sink interface and the three shipped implementations.

use std::io::Write;
use std::sync::Mutex;
use std::time::Duration;

use crate::event::{TimedEvent, TraceEvent};
use crate::report::SolveReport;

/// Consumer of trace events.
///
/// Sinks are shared across the branch-and-bound search's workers, so
/// `record` takes `&self` and implementations must be `Send + Sync`. Events
/// arrive in per-worker program order; across workers the interleaving
/// follows the (monotonic) timestamps only approximately, since stamping
/// and recording are not one atomic step.
pub trait TraceSink: Send + Sync {
    /// Records one event with its offset from the trace epoch.
    fn record(&self, at: Duration, event: &TraceEvent);
}

/// A sink that discards every event. Useful for measuring the overhead of
/// event construction and dispatch alone.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _at: Duration, _event: &TraceEvent) {}
}

/// In-memory sink: buffers every event and aggregates on demand into a
/// [`SolveReport`].
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TimedEvent>>,
}

impl MemorySink {
    /// A snapshot of the buffered events, in arrival order.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.events.lock().expect("trace buffer poisoned").clone()
    }

    /// Aggregates the buffered events into a report.
    pub fn report(&self) -> SolveReport {
        SolveReport::from_events(&self.events.lock().expect("trace buffer poisoned"))
    }

    /// Drops all buffered events (e.g. between loops of a corpus sweep).
    pub fn clear(&self) {
        self.events.lock().expect("trace buffer poisoned").clear();
    }
}

impl TraceSink for MemorySink {
    fn record(&self, at: Duration, event: &TraceEvent) {
        self.events
            .lock()
            .expect("trace buffer poisoned")
            .push(TimedEvent {
                at,
                event: event.clone(),
            });
    }
}

/// Streaming sink: writes one JSON object per line to any [`Write`].
///
/// The encoding is flat and self-describing (see [`TraceEvent::to_json`]);
/// a `jq`-style filter or the golden-corpus test harness can re-aggregate
/// it without a JSON library.
pub struct JsonlSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer. Lines are written on every event; buffer the writer
    /// (e.g. `BufWriter`) for file outputs.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(self) -> W {
        let mut w = self.out.into_inner().expect("trace writer poisoned");
        let _ = w.flush();
        w
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().expect("trace writer poisoned").flush()
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, at: Duration, event: &TraceEvent) {
        let line = event.to_json(at);
        let mut out = self.out.lock().expect("trace writer poisoned");
        // A full disk mid-trace must not abort a solve; the trace is
        // best-effort observability, not ground truth.
        let _ = writeln!(out, "{line}");
    }
}

/// Fans one event stream out to two sinks (e.g. a [`MemorySink`] for the
/// end-of-run report plus a [`JsonlSink`] for the on-disk record).
pub struct TeeSink<A: TraceSink, B: TraceSink>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    fn record(&self, at: Duration, event: &TraceEvent) {
        self.0.record(at, event);
        self.1.record(at, event);
    }
}

impl<S: TraceSink + ?Sized> TraceSink for std::sync::Arc<S> {
    fn record(&self, at: Duration, event: &TraceEvent) {
        (**self).record(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LpClass, NodeOutcome};
    use std::sync::Arc;

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let sink = JsonlSink::new(Vec::new());
        sink.record(
            Duration::from_micros(5),
            &TraceEvent::NodeOpen {
                worker: 0,
                depth: 2,
            },
        );
        sink.record(
            Duration::from_micros(9),
            &TraceEvent::NodeClose {
                worker: 0,
                outcome: NodeOutcome::Infeasible,
            },
        );
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ev\":\"node_open\""));
        assert!(lines[1].contains("\"outcome\":\"infeasible\""));
    }

    #[test]
    fn tee_sink_duplicates_events() {
        let a = Arc::new(MemorySink::default());
        let b = Arc::new(MemorySink::default());
        let tee = TeeSink(a.clone(), b.clone());
        tee.record(
            Duration::ZERO,
            &TraceEvent::LpSolved {
                worker: 1,
                class: LpClass::Optimal,
                iterations: 7,
                refactors: 0,
                etas: 0,
                warm: "cold",
            },
        );
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.events(), a.events());
    }
}
