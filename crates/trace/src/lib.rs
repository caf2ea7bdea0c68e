//! Structured observability for the optimod scheduling pipeline.
//!
//! The paper's evaluation is quantitative — branch-and-bound node counts,
//! simplex iterations, wall-clock per formulation — so the solve pipeline
//! needs instrumentation that can be audited, aggregated, and diffed. This
//! crate provides it with zero dependencies:
//!
//! * [`TraceEvent`] — a span-like structured event (phase begin/end, node
//!   lifecycle, LP solve, incumbent update, fallback-rung transition),
//!   timestamped against a per-solve monotonic epoch;
//! * [`TraceSink`] — the consumer interface, implemented by the three
//!   shipped sinks: [`NullSink`] (no-op, for overhead measurement),
//!   [`MemorySink`] (in-memory aggregation into a [`SolveReport`] of what
//!   only the events can say: phase timing and effort distributions; the
//!   effort totals are the solver's own `SolveStats`), and
//!   [`JsonlSink`] (one JSON object per line, machine-readable);
//! * [`Trace`] — the cheap cloneable handle the solver threads through its
//!   hot paths. A disabled handle (the default) costs one pointer check
//!   per event site and never constructs the event.
//!
//! # Quickstart
//!
//! ```
//! use optimod_trace::{MemorySink, Phase, Trace, TraceEvent};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::default());
//! let trace = Trace::new(sink.clone());
//! {
//!     let _span = trace.span(Phase::Search);
//!     trace.emit(|| TraceEvent::NodeOpen { worker: 0, depth: 1 });
//!     trace.emit(|| TraceEvent::NodeClose {
//!         worker: 0,
//!         outcome: optimod_trace::NodeOutcome::Integral,
//!     });
//! }
//! let report = sink.report();
//! assert_eq!(report.node_depth.count, 1); // one node opened
//! assert!(report.balanced());
//! assert_eq!(report.phase(Phase::Search).unwrap().count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod report;
mod sink;

pub use event::{LpClass, NodeOutcome, Phase, TimedEvent, TraceEvent};
pub use report::{HistSummary, PhaseSummary, SolveReport};
pub use sink::{JsonlSink, MemorySink, NullSink, TeeSink, TraceSink};

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Shared {
    epoch: Instant,
    sink: Arc<dyn TraceSink>,
}

/// Cheap cloneable handle to a [`TraceSink`], threaded through the solve
/// pipeline.
///
/// Clones share the sink and the timestamp epoch, so events from the
/// scheduler, the branch-and-bound workers, and the simplex all land on one
/// monotonic timeline. The default handle is disabled: every event site
/// reduces to a pointer check and the event value is never constructed
/// (sites pass a closure to [`Trace::emit`]).
#[derive(Clone, Default)]
pub struct Trace(Option<Arc<Shared>>);

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "Trace(active)"
        } else {
            "Trace(disabled)"
        })
    }
}

impl Trace {
    /// An active handle recording into `sink`, with the epoch set to now.
    pub fn new(sink: Arc<dyn TraceSink>) -> Trace {
        Trace(Some(Arc::new(Shared {
            epoch: Instant::now(),
            sink,
        })))
    }

    /// The disabled handle (same as `Trace::default()`).
    pub fn disabled() -> Trace {
        Trace(None)
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Records the event produced by `f`. When the handle is disabled the
    /// closure is never called — hot paths pay only the `Option` check.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(shared) = &self.0 {
            let at = shared.epoch.elapsed();
            shared.sink.record(at, &f());
        }
    }

    /// Opens a phase span: emits [`TraceEvent::PhaseBegin`] now and the
    /// matching [`TraceEvent::PhaseEnd`] when the guard drops.
    #[inline]
    pub fn span(&self, phase: Phase) -> PhaseGuard<'_> {
        self.emit(|| TraceEvent::PhaseBegin { phase });
        PhaseGuard { trace: self, phase }
    }
}

/// RAII guard for a phase span (see [`Trace::span`]).
#[must_use = "dropping the guard immediately closes the phase"]
pub struct PhaseGuard<'a> {
    trace: &'a Trace,
    phase: Phase,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let phase = self.phase;
        self.trace.emit(|| TraceEvent::PhaseEnd { phase });
    }
}

/// Formats a duration as fractional milliseconds for reports and JSON.
pub(crate) fn as_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_calls_closure() {
        let trace = Trace::disabled();
        trace.emit(|| panic!("closure must not run on a disabled handle"));
        assert!(!trace.is_active());
    }

    #[test]
    fn span_emits_begin_and_end() {
        let sink = Arc::new(MemorySink::default());
        let trace = Trace::new(sink.clone());
        {
            let _outer = trace.span(Phase::Search);
            let _inner = trace.span(Phase::RootLp);
        }
        let events = sink.events();
        assert_eq!(events.len(), 4);
        assert!(matches!(
            events[0].event,
            TraceEvent::PhaseBegin {
                phase: Phase::Search
            }
        ));
        // Inner phase closes before the outer one (reverse drop order).
        assert!(matches!(
            events[2].event,
            TraceEvent::PhaseEnd {
                phase: Phase::RootLp
            }
        ));
        // Timestamps are monotone.
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn clones_share_the_sink() {
        let sink = Arc::new(MemorySink::default());
        let trace = Trace::new(sink.clone());
        let clone = trace.clone();
        trace.emit(|| TraceEvent::IiAttempt { ii: 2 });
        clone.emit(|| TraceEvent::IiAttempt { ii: 3 });
        assert_eq!(sink.events().len(), 2);
    }
}
