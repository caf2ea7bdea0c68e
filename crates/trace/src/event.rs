//! The structured event vocabulary of the solve pipeline.

use std::fmt::Write as _;
use std::time::Duration;

/// A pipeline phase, used for span-like begin/end pairs whose wall-clock
/// totals the [`SolveReport`](crate::SolveReport) breaks out per phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Building the ILP formulation for one tentative `II`.
    Formulation,
    /// The static analyzer's presolve pass over one built model.
    Presolve,
    /// One branch-and-bound solve (root relaxation through search).
    Search,
    /// The root LP relaxation inside a solve.
    RootLp,
    /// Decoding and re-validating a schedule from a solver solution.
    Extraction,
    /// The stage-scheduler ILP rung of the fallback ladder.
    StageIlp,
    /// The IMS heuristic rung of the fallback ladder.
    Ims,
    /// The infeasibility explanation engine (core extraction through
    /// certification).
    Explain,
}

impl Phase {
    /// All phases, in report order.
    pub const ALL: [Phase; 8] = [
        Phase::Formulation,
        Phase::Presolve,
        Phase::Search,
        Phase::RootLp,
        Phase::Extraction,
        Phase::StageIlp,
        Phase::Ims,
        Phase::Explain,
    ];

    /// Stable lower-case name (used in JSONL and reports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Formulation => "formulation",
            Phase::Presolve => "presolve",
            Phase::Search => "search",
            Phase::RootLp => "root-lp",
            Phase::Extraction => "extraction",
            Phase::StageIlp => "stage-ilp",
            Phase::Ims => "ims",
            Phase::Explain => "explain",
        }
    }
}

/// Classification of one LP relaxation's outcome, as seen by the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpClass {
    /// Solved to optimality.
    Optimal,
    /// Proven infeasible.
    Infeasible,
    /// Unbounded relaxation.
    Unbounded,
    /// Iteration/deadline/cancellation limit.
    Limit,
    /// Abandoned by the degenerate-pivot watchdog.
    Stalled,
}

impl LpClass {
    /// Stable lower-case name (used in JSONL and reports).
    pub fn name(self) -> &'static str {
        match self {
            LpClass::Optimal => "optimal",
            LpClass::Infeasible => "infeasible",
            LpClass::Unbounded => "unbounded",
            LpClass::Limit => "limit",
            LpClass::Stalled => "stalled",
        }
    }
}

/// How a branch-and-bound node's expansion ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOutcome {
    /// The relaxation could not beat the incumbent.
    PrunedBound,
    /// The relaxation was infeasible; the subtree is dead.
    Infeasible,
    /// The relaxation was integral (a candidate solution).
    Integral,
    /// Two children were enqueued.
    Branched,
    /// A limit, stall, or cancellation ended the expansion.
    Limit,
    /// The expansion panicked and the worker recovered.
    Panicked,
}

impl NodeOutcome {
    /// Stable lower-case name (used in JSONL and reports).
    pub fn name(self) -> &'static str {
        match self {
            NodeOutcome::PrunedBound => "pruned",
            NodeOutcome::Infeasible => "infeasible",
            NodeOutcome::Integral => "integral",
            NodeOutcome::Branched => "branched",
            NodeOutcome::Limit => "limit",
            NodeOutcome::Panicked => "panicked",
        }
    }
}

/// One structured trace event. Worker `0` is the calling thread (the
/// search's first worker); spawned workers report their own ids.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A branch-and-bound solve started.
    SolveBegin {
        /// Variables in the model.
        variables: u64,
        /// Constraint rows in the model.
        constraints: u64,
        /// Worker threads used by the search.
        threads: u32,
    },
    /// A branch-and-bound solve finished.
    SolveEnd {
        /// Final status, as a stable lower-case string.
        status: &'static str,
    },
    /// A phase span opened.
    PhaseBegin {
        /// The phase.
        phase: Phase,
    },
    /// A phase span closed.
    PhaseEnd {
        /// The phase.
        phase: Phase,
    },
    /// The scheduler is attempting a tentative initiation interval.
    IiAttempt {
        /// The tentative `II`.
        ii: u32,
    },
    /// The fallback ladder moved to a new rung.
    Rung {
        /// The rung's stable name (`"exact"`, `"stage-ilp"`, `"ims"`).
        rung: &'static str,
    },
    /// One LP relaxation was solved.
    LpSolved {
        /// Worker that ran the solve.
        worker: u32,
        /// Outcome classification.
        class: LpClass,
        /// Simplex iterations (pivots and bound flips).
        iterations: u64,
        /// Basis refactorizations performed during the solve.
        refactors: u64,
        /// Product-form eta updates absorbed by the basis.
        etas: u64,
        /// Warm-start provenance: `"cold"`, `"warm"` (restarted from a
        /// parent basis), or `"abandoned"` (restart attempted, fell back
        /// to cold).
        warm: &'static str,
    },
    /// A branch-and-bound node (beyond the root) began expanding.
    NodeOpen {
        /// Worker expanding the node.
        worker: u32,
        /// Depth below the root (root children are depth 1).
        depth: u32,
    },
    /// A node's expansion ended; every [`TraceEvent::NodeOpen`] from a
    /// worker is matched by exactly one close from the same worker.
    NodeClose {
        /// Worker that expanded the node.
        worker: u32,
        /// How the expansion ended.
        outcome: NodeOutcome,
    },
    /// A new incumbent (best integral solution so far) was accepted.
    Incumbent {
        /// Worker that found it.
        worker: u32,
        /// Objective value in the model's sense.
        objective: f64,
    },
    /// A worker recovered from a panic during node expansion.
    PanicRecovered {
        /// The recovering worker.
        worker: u32,
    },
    /// A planned fault fired at one of the solver's injection sites (only
    /// sites with a trace in scope report; pivot-loop fires surface through
    /// the fault plan's own log instead).
    FaultInjected {
        /// Worker at which the fault fired (0 for the calling thread,
        /// including the scheduler's extraction site).
        worker: u32,
        /// Stable site name (`"simplex-pivot"`, `"node-expand"`,
        /// `"worker-start"`, `"extraction"`).
        site: &'static str,
        /// Stable action name (`"panic"`, `"stall"`, `"spurious-timeout"`,
        /// `"perturb-incumbent"`).
        action: &'static str,
    },
    /// The static analyzer presolved a built model before search.
    Presolve {
        /// Constraint rows removed as redundant.
        rows_eliminated: u64,
        /// MRT binaries fixed to 0 or 1.
        binaries_fixed: u64,
        /// Stage variables whose bounds were strictly tightened.
        bounds_tightened: u64,
        /// Whether presolve proved the model infeasible.
        infeasible: bool,
    },
    /// The exact-arithmetic certifier ran on an extracted schedule.
    Certified {
        /// The schedule's initiation interval.
        ii: u32,
        /// Whether the certificate held (`false`: a typed `CertError` was
        /// reported through the result instead).
        ok: bool,
    },
    /// One portfolio backend delivered its verdict for a tentative `II`.
    BackendResult {
        /// `"ilp"` or `"sat"`.
        backend: &'static str,
        /// The tentative `II` the backend was deciding.
        ii: u32,
        /// Stable verdict name (`"feasible"`, `"infeasible"`, `"unknown"`).
        verdict: &'static str,
    },
    /// The portfolio settled a tentative `II` on one backend's certified
    /// answer (the cell's winner for the `--report` win/loss counters).
    PortfolioWin {
        /// `"ilp"` or `"sat"`.
        backend: &'static str,
        /// The `II` the winning answer decided.
        ii: u32,
    },
    /// The daemon replayed unfinished write-ahead-journal intents into its
    /// queue on startup (crash recovery).
    JournalRecovered {
        /// Unfinished intents re-enqueued.
        intents: u64,
        /// Done-marked intents skipped during replay.
        completed: u64,
    },
    /// The bounded schedule cache evicted least-recently-used records to
    /// get back under its byte/entry caps.
    CacheEvicted {
        /// Records deleted.
        entries: u64,
        /// Bytes reclaimed.
        bytes: u64,
    },
    /// The daemon flipped its brownout state: `on` means new requests are
    /// routed through the degraded fallback ladder instead of being shed.
    Brownout {
        /// `true` on entry into brownout, `false` on recovery to exact.
        on: bool,
        /// The queue wait (microseconds) that triggered the flip (the
        /// last observed wait, for recovery).
        queue_wait_us: u64,
    },
    /// The infeasibility explanation engine started on one `II`.
    ExplainStart {
        /// The II being explained.
        ii: u32,
    },
    /// A raw assumption core was extracted.
    CoreFound {
        /// The II being explained.
        ii: u32,
        /// Constraint groups in the raw core.
        size: u64,
    },
    /// Core minimization (and certification) finished.
    CoreMinimized {
        /// The II being explained.
        ii: u32,
        /// Raw core size going in.
        from: u64,
        /// Core size after deletion-based minimization.
        to: u64,
        /// Whether the independent certification checks all held.
        certified: bool,
    },
}

/// An event together with its offset from the trace epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Monotonic offset from the [`Trace`](crate::Trace) epoch.
    pub at: Duration,
    /// The event.
    pub event: TraceEvent,
}

impl TraceEvent {
    /// Stable event-kind name (the `"ev"` field of the JSONL encoding).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::SolveBegin { .. } => "solve_begin",
            TraceEvent::SolveEnd { .. } => "solve_end",
            TraceEvent::PhaseBegin { .. } => "phase_begin",
            TraceEvent::PhaseEnd { .. } => "phase_end",
            TraceEvent::IiAttempt { .. } => "ii_attempt",
            TraceEvent::Rung { .. } => "rung",
            TraceEvent::LpSolved { .. } => "lp_solved",
            TraceEvent::NodeOpen { .. } => "node_open",
            TraceEvent::NodeClose { .. } => "node_close",
            TraceEvent::Incumbent { .. } => "incumbent",
            TraceEvent::PanicRecovered { .. } => "panic_recovered",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::Presolve { .. } => "presolve",
            TraceEvent::Certified { .. } => "certified",
            TraceEvent::BackendResult { .. } => "backend_result",
            TraceEvent::PortfolioWin { .. } => "portfolio_win",
            TraceEvent::JournalRecovered { .. } => "journal_recovered",
            TraceEvent::CacheEvicted { .. } => "cache_evicted",
            TraceEvent::Brownout { .. } => "brownout",
            TraceEvent::ExplainStart { .. } => "explain_start",
            TraceEvent::CoreFound { .. } => "core_found",
            TraceEvent::CoreMinimized { .. } => "core_minimized",
        }
    }

    /// Encodes the event as one JSON object (no trailing newline). All
    /// string payloads are static identifiers, so no escaping is needed;
    /// floats use Rust's shortest round-trip formatting.
    pub fn to_json(&self, at: Duration) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"t_us\":{},\"ev\":\"{}\"",
            crate::as_micros(at),
            self.kind()
        );
        match self {
            TraceEvent::SolveBegin {
                variables,
                constraints,
                threads,
            } => {
                let _ = write!(
                    s,
                    ",\"variables\":{variables},\"constraints\":{constraints},\"threads\":{threads}"
                );
            }
            TraceEvent::SolveEnd { status } => {
                let _ = write!(s, ",\"status\":\"{status}\"");
            }
            TraceEvent::PhaseBegin { phase } | TraceEvent::PhaseEnd { phase } => {
                let _ = write!(s, ",\"phase\":\"{}\"", phase.name());
            }
            TraceEvent::IiAttempt { ii } => {
                let _ = write!(s, ",\"ii\":{ii}");
            }
            TraceEvent::Rung { rung } => {
                let _ = write!(s, ",\"rung\":\"{rung}\"");
            }
            TraceEvent::LpSolved {
                worker,
                class,
                iterations,
                refactors,
                etas,
                warm,
            } => {
                let _ = write!(
                    s,
                    ",\"worker\":{worker},\"class\":\"{}\",\"iterations\":{iterations},\
                     \"refactors\":{refactors},\"etas\":{etas},\"warm\":\"{warm}\"",
                    class.name()
                );
            }
            TraceEvent::NodeOpen { worker, depth } => {
                let _ = write!(s, ",\"worker\":{worker},\"depth\":{depth}");
            }
            TraceEvent::NodeClose { worker, outcome } => {
                let _ = write!(s, ",\"worker\":{worker},\"outcome\":\"{}\"", outcome.name());
            }
            TraceEvent::Incumbent { worker, objective } => {
                let _ = write!(s, ",\"worker\":{worker},\"objective\":{objective}");
            }
            TraceEvent::PanicRecovered { worker } => {
                let _ = write!(s, ",\"worker\":{worker}");
            }
            TraceEvent::FaultInjected {
                worker,
                site,
                action,
            } => {
                let _ = write!(
                    s,
                    ",\"worker\":{worker},\"site\":\"{site}\",\"action\":\"{action}\""
                );
            }
            TraceEvent::Presolve {
                rows_eliminated,
                binaries_fixed,
                bounds_tightened,
                infeasible,
            } => {
                let _ = write!(
                    s,
                    ",\"rows_eliminated\":{rows_eliminated},\"binaries_fixed\":{binaries_fixed},\
                     \"bounds_tightened\":{bounds_tightened},\"infeasible\":{infeasible}"
                );
            }
            TraceEvent::Certified { ii, ok } => {
                let _ = write!(s, ",\"ii\":{ii},\"ok\":{ok}");
            }
            TraceEvent::BackendResult {
                backend,
                ii,
                verdict,
            } => {
                let _ = write!(
                    s,
                    ",\"backend\":\"{backend}\",\"ii\":{ii},\"verdict\":\"{verdict}\""
                );
            }
            TraceEvent::PortfolioWin { backend, ii } => {
                let _ = write!(s, ",\"backend\":\"{backend}\",\"ii\":{ii}");
            }
            TraceEvent::JournalRecovered { intents, completed } => {
                let _ = write!(s, ",\"intents\":{intents},\"completed\":{completed}");
            }
            TraceEvent::CacheEvicted { entries, bytes } => {
                let _ = write!(s, ",\"entries\":{entries},\"bytes\":{bytes}");
            }
            TraceEvent::Brownout { on, queue_wait_us } => {
                let _ = write!(s, ",\"on\":{on},\"queue_wait_us\":{queue_wait_us}");
            }
            TraceEvent::ExplainStart { ii } => {
                let _ = write!(s, ",\"ii\":{ii}");
            }
            TraceEvent::CoreFound { ii, size } => {
                let _ = write!(s, ",\"ii\":{ii},\"size\":{size}");
            }
            TraceEvent::CoreMinimized {
                ii,
                from,
                to,
                certified,
            } => {
                let _ = write!(
                    s,
                    ",\"ii\":{ii},\"from\":{from},\"to\":{to},\"certified\":{certified}"
                );
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_encoding_is_one_flat_object() {
        let ev = TraceEvent::LpSolved {
            worker: 3,
            class: LpClass::Optimal,
            iterations: 42,
            refactors: 1,
            etas: 40,
            warm: "warm",
        };
        let json = ev.to_json(Duration::from_micros(1500));
        assert_eq!(
            json,
            "{\"t_us\":1500,\"ev\":\"lp_solved\",\"worker\":3,\"class\":\"optimal\",\
             \"iterations\":42,\"refactors\":1,\"etas\":40,\"warm\":\"warm\"}"
        );
    }

    #[test]
    fn every_event_kind_is_distinct() {
        let kinds = [
            TraceEvent::SolveBegin {
                variables: 0,
                constraints: 0,
                threads: 1,
            }
            .kind(),
            TraceEvent::SolveEnd { status: "optimal" }.kind(),
            TraceEvent::PhaseBegin {
                phase: Phase::Search,
            }
            .kind(),
            TraceEvent::PhaseEnd {
                phase: Phase::Search,
            }
            .kind(),
            TraceEvent::IiAttempt { ii: 1 }.kind(),
            TraceEvent::Rung { rung: "exact" }.kind(),
            TraceEvent::LpSolved {
                worker: 0,
                class: LpClass::Optimal,
                iterations: 0,
                refactors: 0,
                etas: 0,
                warm: "cold",
            }
            .kind(),
            TraceEvent::NodeOpen {
                worker: 0,
                depth: 1,
            }
            .kind(),
            TraceEvent::NodeClose {
                worker: 0,
                outcome: NodeOutcome::Branched,
            }
            .kind(),
            TraceEvent::Incumbent {
                worker: 0,
                objective: 1.0,
            }
            .kind(),
            TraceEvent::PanicRecovered { worker: 0 }.kind(),
            TraceEvent::FaultInjected {
                worker: 0,
                site: "node-expand",
                action: "stall",
            }
            .kind(),
            TraceEvent::Presolve {
                rows_eliminated: 0,
                binaries_fixed: 0,
                bounds_tightened: 0,
                infeasible: false,
            }
            .kind(),
            TraceEvent::Certified { ii: 2, ok: true }.kind(),
            TraceEvent::BackendResult {
                backend: "sat",
                ii: 2,
                verdict: "feasible",
            }
            .kind(),
            TraceEvent::PortfolioWin {
                backend: "sat",
                ii: 2,
            }
            .kind(),
            TraceEvent::JournalRecovered {
                intents: 1,
                completed: 0,
            }
            .kind(),
            TraceEvent::CacheEvicted {
                entries: 1,
                bytes: 64,
            }
            .kind(),
            TraceEvent::Brownout {
                on: true,
                queue_wait_us: 1000,
            }
            .kind(),
            TraceEvent::ExplainStart { ii: 1 }.kind(),
            TraceEvent::CoreFound { ii: 1, size: 5 }.kind(),
            TraceEvent::CoreMinimized {
                ii: 1,
                from: 5,
                to: 2,
                certified: true,
            }
            .kind(),
        ];
        let mut unique: Vec<&str> = kinds.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), kinds.len());
    }
}
