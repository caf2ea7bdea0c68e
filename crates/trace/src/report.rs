//! Aggregation of an event stream into a per-solve report.

use std::fmt::Write as _;
use std::time::Duration;

use crate::event::{NodeOutcome, Phase, TimedEvent, TraceEvent};

/// Wall-clock summary of one phase across all of its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall-clock across completed spans.
    pub total: Duration,
}

/// Order statistics over a set of `u64` observations (e.g. simplex
/// iterations per LP solve, node depth per expansion).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Median observation (0 when empty).
    pub p50: u64,
    /// 90th-percentile observation (0 when empty).
    pub p90: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
}

impl HistSummary {
    /// Summarizes a sample (sorts a copy; empty samples give all zeros).
    pub fn from_values(values: &[u64]) -> HistSummary {
        if values.is_empty() {
            return HistSummary::default();
        }
        let mut v = values.to_vec();
        v.sort_unstable();
        let pick = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
        HistSummary {
            count: v.len() as u64,
            min: v[0],
            p50: pick(0.5),
            p90: pick(0.9),
            max: *v.last().expect("non-empty"),
        }
    }
}

/// Warm-start provenance counts over a group of LP solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmSummary {
    /// Solves from the crash (slack) basis.
    pub cold: u64,
    /// Solves restarted from a parent basis snapshot.
    pub taken: u64,
    /// Restart attempts abandoned for a cold start.
    pub abandoned: u64,
}

impl WarmSummary {
    /// Total LP solves observed.
    pub fn total(&self) -> u64 {
        self.cold + self.taken + self.abandoned
    }

    /// Fraction of solves that successfully reused a parent basis
    /// (0 when no solves were observed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.taken as f64 / total as f64
        }
    }

    fn record(&mut self, warm: &str) {
        match warm {
            "warm" => self.taken += 1,
            "abandoned" => self.abandoned += 1,
            _ => self.cold += 1,
        }
    }
}

/// Aggregated view of one solve's (or one loop's) event stream, produced by
/// [`MemorySink::report`](crate::MemorySink::report).
///
/// It keeps only what the event stream alone can say: where the time went
/// (phase spans), how the effort was distributed (per-phase warm starts,
/// node outcomes, depth and iterations-per-LP histograms) and what the
/// scheduler decided along the way (II attempts, rungs, portfolio wins,
/// certificates, explanations). The effort totals — nodes, LP solves,
/// iterations, warm starts, faults — live in the solver's `SolveStats`,
/// which the events must reproduce (the trace-fidelity tests check this).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveReport {
    /// Completed spans per phase, in [`Phase::ALL`] order (phases with no
    /// spans are omitted).
    pub phases: Vec<(Phase, PhaseSummary)>,
    /// Node closes by outcome, in [`NodeOutcome`] order: pruned,
    /// infeasible, integral, branched, limit, panicked.
    pub node_outcomes: [u64; 6],
    /// Warm-start provenance attributed to the innermost open phase span at
    /// the time of each LP solve, in [`Phase::ALL`] order (phases that saw
    /// no LP solves are omitted, as are solves outside any span).
    pub warm_by_phase: Vec<(Phase, WarmSummary)>,
    /// Portfolio cells settled by the SAT backend's certified answer.
    pub sat_wins: u64,
    /// Portfolio cells settled by the ILP backend's answer.
    pub ilp_wins: u64,
    /// Certifier runs that held.
    pub certified_ok: u64,
    /// Certifier runs that found a violation.
    pub certified_failed: u64,
    /// Infeasibility explanation runs started.
    pub explain_runs: u64,
    /// Constraint groups across raw assumption cores.
    pub explain_raw_core_groups: u64,
    /// Constraint groups across minimized cores.
    pub explain_min_core_groups: u64,
    /// Explanations whose independent certification checks all held.
    pub explain_certified: u64,
    /// Iterations-per-LP order statistics.
    pub lp_iterations: HistSummary,
    /// Node-depth order statistics, one observation per node opened.
    pub node_depth: HistSummary,
    /// Tentative `II` values attempted, in order.
    pub ii_attempts: Vec<u32>,
    /// Fallback-ladder rungs entered, in order.
    pub rungs: Vec<&'static str>,
    /// Timestamp of the last event (wall-clock span of the trace).
    pub wall: Duration,
}

fn outcome_slot(outcome: NodeOutcome) -> usize {
    match outcome {
        NodeOutcome::PrunedBound => 0,
        NodeOutcome::Infeasible => 1,
        NodeOutcome::Integral => 2,
        NodeOutcome::Branched => 3,
        NodeOutcome::Limit => 4,
        NodeOutcome::Panicked => 5,
    }
}

const OUTCOME_NAMES: [&str; 6] = [
    "pruned",
    "infeasible",
    "integral",
    "branched",
    "limit",
    "panicked",
];

impl SolveReport {
    /// Aggregates an event stream. Unbalanced phase spans (a begin with no
    /// end, e.g. from a cancelled solve) are dropped rather than guessed.
    pub fn from_events(events: &[TimedEvent]) -> SolveReport {
        let mut report = SolveReport::default();
        // One stack of open-span timestamps per phase: spans of the same
        // phase close innermost-first, and distinct phases nest freely.
        let mut open: Vec<(Phase, Vec<Duration>)> =
            Phase::ALL.iter().map(|&p| (p, Vec::new())).collect();
        let mut totals: Vec<(Phase, PhaseSummary)> = Phase::ALL
            .iter()
            .map(|&p| (p, PhaseSummary::default()))
            .collect();
        let mut lp_iters: Vec<u64> = Vec::new();
        let mut depths: Vec<u64> = Vec::new();
        // Innermost-open-phase stack (in begin order), used to attribute
        // each LP solve's warm-start provenance to a phase.
        let mut phase_stack: Vec<Phase> = Vec::new();
        let mut warm_by_phase: Vec<(Phase, WarmSummary)> = Phase::ALL
            .iter()
            .map(|&p| (p, WarmSummary::default()))
            .collect();
        for te in events {
            report.wall = report.wall.max(te.at);
            match &te.event {
                TraceEvent::PhaseBegin { phase } => {
                    let slot = open.iter_mut().find(|(p, _)| p == phase).expect("known");
                    slot.1.push(te.at);
                    phase_stack.push(*phase);
                }
                TraceEvent::PhaseEnd { phase } => {
                    let slot = open.iter_mut().find(|(p, _)| p == phase).expect("known");
                    if let Some(begin) = slot.1.pop() {
                        let total = totals.iter_mut().find(|(p, _)| p == phase).expect("known");
                        total.1.count += 1;
                        total.1.total += te.at.saturating_sub(begin);
                    }
                    if let Some(pos) = phase_stack.iter().rposition(|p| p == phase) {
                        phase_stack.remove(pos);
                    }
                }
                TraceEvent::LpSolved {
                    iterations, warm, ..
                } => {
                    if let Some(inner) = phase_stack.last() {
                        let slot = warm_by_phase
                            .iter_mut()
                            .find(|(p, _)| p == inner)
                            .expect("known");
                        slot.1.record(warm);
                    }
                    lp_iters.push(*iterations);
                }
                TraceEvent::NodeOpen { depth, .. } => depths.push(u64::from(*depth)),
                TraceEvent::NodeClose { outcome, .. } => {
                    report.node_outcomes[outcome_slot(*outcome)] += 1;
                }
                TraceEvent::Certified { ok, .. } => {
                    if *ok {
                        report.certified_ok += 1;
                    } else {
                        report.certified_failed += 1;
                    }
                }
                TraceEvent::IiAttempt { ii } => report.ii_attempts.push(*ii),
                TraceEvent::Rung { rung } => report.rungs.push(rung),
                TraceEvent::PortfolioWin { backend, .. } => {
                    if *backend == "sat" {
                        report.sat_wins += 1;
                    } else {
                        report.ilp_wins += 1;
                    }
                }
                TraceEvent::ExplainStart { .. } => report.explain_runs += 1,
                TraceEvent::CoreFound { size, .. } => report.explain_raw_core_groups += size,
                TraceEvent::CoreMinimized { to, certified, .. } => {
                    report.explain_min_core_groups += to;
                    report.explain_certified += u64::from(*certified);
                }
                TraceEvent::SolveBegin { .. }
                | TraceEvent::SolveEnd { .. }
                | TraceEvent::Incumbent { .. }
                | TraceEvent::PanicRecovered { .. }
                | TraceEvent::FaultInjected { .. }
                | TraceEvent::Presolve { .. }
                | TraceEvent::BackendResult { .. }
                | TraceEvent::JournalRecovered { .. }
                | TraceEvent::CacheEvicted { .. }
                | TraceEvent::Brownout { .. } => {}
            }
        }
        report.phases = totals.into_iter().filter(|(_, s)| s.count > 0).collect();
        report.warm_by_phase = warm_by_phase
            .into_iter()
            .filter(|(_, w)| w.total() > 0)
            .collect();
        report.lp_iterations = HistSummary::from_values(&lp_iters);
        report.node_depth = HistSummary::from_values(&depths);
        report
    }

    /// The summary for `phase`, if any span of it completed.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseSummary> {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, s)| s)
    }

    /// Node closes observed, across every outcome.
    pub fn nodes_closed(&self) -> u64 {
        self.node_outcomes.iter().sum()
    }

    /// Whether every node open has a matching close (per the aggregate
    /// counts; per-worker matching is checked by the property tests).
    pub fn balanced(&self) -> bool {
        self.node_depth.count == self.nodes_closed()
    }

    /// Encodes the report as one JSON object, the `report` member of the
    /// CLI's `--report-json`: one key per section [`Self::render`] prints.
    pub fn to_json(&self) -> String {
        let hist = |h: &HistSummary| {
            format!(
                "{{\"count\":{},\"min\":{},\"p50\":{},\"p90\":{},\"max\":{}}}",
                h.count, h.min, h.p50, h.p90, h.max
            )
        };
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(phase, sum)| {
                format!(
                    "{{\"phase\":\"{}\",\"spans\":{},\"total_us\":{}}}",
                    phase.name(),
                    sum.count,
                    crate::as_micros(sum.total)
                )
            })
            .collect();
        let outcomes: Vec<String> = OUTCOME_NAMES
            .iter()
            .zip(self.node_outcomes)
            .map(|(name, n)| format!("\"{name}\":{n}"))
            .collect();
        let warm: Vec<String> = self
            .warm_by_phase
            .iter()
            .map(|(phase, w)| {
                format!(
                    "{{\"phase\":\"{}\",\"taken\":{},\"abandoned\":{},\"cold\":{},\
                     \"hit_rate\":{:.4}}}",
                    phase.name(),
                    w.taken,
                    w.abandoned,
                    w.cold,
                    w.hit_rate()
                )
            })
            .collect();
        let attempts: Vec<String> = self.ii_attempts.iter().map(u32::to_string).collect();
        let rungs: Vec<String> = self.rungs.iter().map(|r| format!("\"{r}\"")).collect();
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"phases\":[{}],\"node_outcomes\":{{{}}},\"node_depth\":{},\
             \"lp_iterations\":{},\"warm_by_phase\":[{}]",
            phases.join(","),
            outcomes.join(","),
            hist(&self.node_depth),
            hist(&self.lp_iterations),
            warm.join(",")
        );
        let _ = write!(
            s,
            ",\"explain_runs\":{},\"explain_raw_core_groups\":{},\
             \"explain_min_core_groups\":{},\"explain_certified\":{}",
            self.explain_runs,
            self.explain_raw_core_groups,
            self.explain_min_core_groups,
            self.explain_certified
        );
        let _ = write!(
            s,
            ",\"ii_attempts\":[{}],\"rungs\":[{}],\"sat_wins\":{},\"ilp_wins\":{},\
             \"certified_ok\":{},\"certified_failed\":{},\"wall_us\":{}}}",
            attempts.join(","),
            rungs.join(","),
            self.sat_wins,
            self.ilp_wins,
            self.certified_ok,
            self.certified_failed,
            crate::as_micros(self.wall)
        );
        s
    }

    /// Renders the trace section the CLI prints under `--report`, after
    /// the solver-effort section.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "per-phase wall clock:");
        let _ = writeln!(s, "  {:<12} {:>7} {:>12}", "phase", "spans", "total");
        for (phase, sum) in &self.phases {
            let _ = writeln!(
                s,
                "  {:<12} {:>7} {:>11.3}ms",
                phase.name(),
                sum.count,
                sum.total.as_secs_f64() * 1e3
            );
        }
        let by_outcome: Vec<String> = OUTCOME_NAMES
            .iter()
            .zip(self.node_outcomes)
            .filter(|(_, n)| *n > 0)
            .map(|(name, n)| format!("{name} {n}"))
            .collect();
        if !by_outcome.is_empty() {
            let _ = writeln!(s, "node closes by outcome: {}", by_outcome.join(", "));
        }
        let d = &self.node_depth;
        if d.count > 0 {
            let _ = writeln!(
                s,
                "node depth min/p50/p90/max: {}/{}/{}/{}",
                d.min, d.p50, d.p90, d.max
            );
        }
        let h = &self.lp_iterations;
        if h.count > 0 {
            let _ = writeln!(
                s,
                "iterations/LP min/p50/p90/max: {}/{}/{}/{}",
                h.min, h.p50, h.p90, h.max
            );
        }
        if !self.warm_by_phase.is_empty() {
            let _ = writeln!(s, "warm starts by phase:");
            for (phase, w) in &self.warm_by_phase {
                let _ = writeln!(
                    s,
                    "  {:<12} {} taken / {} abandoned / {} cold ({:.1}%)",
                    phase.name(),
                    w.taken,
                    w.abandoned,
                    w.cold,
                    w.hit_rate() * 100.0
                );
            }
        }
        if self.explain_runs > 0 {
            let _ = writeln!(
                s,
                "explanations: {} run(s), core groups {} raw -> {} minimized, {} certified",
                self.explain_runs,
                self.explain_raw_core_groups,
                self.explain_min_core_groups,
                self.explain_certified
            );
        }
        if !self.ii_attempts.is_empty() {
            let attempts: Vec<String> = self.ii_attempts.iter().map(u32::to_string).collect();
            let _ = writeln!(s, "ii attempts: {}", attempts.join(" -> "));
        }
        if !self.rungs.is_empty() {
            let _ = writeln!(s, "fallback rungs: {}", self.rungs.join(" -> "));
        }
        if self.sat_wins + self.ilp_wins > 0 {
            let _ = writeln!(
                s,
                "portfolio: sat won {} cell(s), ilp won {}",
                self.sat_wins, self.ilp_wins
            );
        }
        if self.certified_ok + self.certified_failed > 0 {
            let _ = writeln!(
                s,
                "certificates: {} ok, {} failed",
                self.certified_ok, self.certified_failed
            );
        }
        let _ = writeln!(s, "trace span: {:.3}ms", self.wall.as_secs_f64() * 1e3);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LpClass;

    fn ev(at_us: u64, event: TraceEvent) -> TimedEvent {
        TimedEvent {
            at: Duration::from_micros(at_us),
            event,
        }
    }

    #[test]
    fn aggregates_phases_and_distributions() {
        let events = vec![
            ev(
                0,
                TraceEvent::PhaseBegin {
                    phase: Phase::Search,
                },
            ),
            ev(
                1,
                TraceEvent::LpSolved {
                    worker: 0,
                    class: LpClass::Optimal,
                    iterations: 10,
                    refactors: 1,
                    etas: 9,
                    warm: "cold",
                },
            ),
            ev(
                2,
                TraceEvent::NodeOpen {
                    worker: 0,
                    depth: 1,
                },
            ),
            ev(
                3,
                TraceEvent::LpSolved {
                    worker: 0,
                    class: LpClass::Optimal,
                    iterations: 4,
                    refactors: 0,
                    etas: 3,
                    warm: "warm",
                },
            ),
            ev(
                4,
                TraceEvent::Incumbent {
                    worker: 0,
                    objective: 3.0,
                },
            ),
            ev(
                5,
                TraceEvent::NodeClose {
                    worker: 0,
                    outcome: NodeOutcome::Integral,
                },
            ),
            ev(
                9,
                TraceEvent::PhaseEnd {
                    phase: Phase::Search,
                },
            ),
        ];
        let r = SolveReport::from_events(&events);
        // Both LP solves happened inside the Search span.
        assert_eq!(
            r.warm_by_phase,
            vec![(
                Phase::Search,
                WarmSummary {
                    cold: 1,
                    taken: 1,
                    abandoned: 0
                }
            )]
        );
        assert_eq!(r.node_depth.count, 1);
        assert_eq!(r.nodes_closed(), 1);
        assert!(r.balanced());
        assert_eq!(r.node_outcomes[outcome_slot(NodeOutcome::Integral)], 1);
        let search = r.phase(Phase::Search).expect("search span completed");
        assert_eq!(search.count, 1);
        assert_eq!(search.total, Duration::from_micros(9));
        assert_eq!(r.lp_iterations.count, 2);
        assert_eq!(r.lp_iterations.min, 4);
        assert_eq!(r.lp_iterations.max, 10);
        assert_eq!(r.wall, Duration::from_micros(9));
        // The render is exercised for panics/omissions, not exact layout.
        let text = r.render();
        assert!(text.contains("node closes by outcome: integral 1"));
        assert!(text.contains("iterations/LP min/p50/p90/max: 4/"));
        assert!(text.contains("search       1 taken / 0 abandoned / 1 cold"));
        // The JSON form carries the same sections machine-readably.
        let json = r.to_json();
        assert!(json.contains("\"warm_by_phase\":[{\"phase\":\"search\",\"taken\":1"));
        assert!(json.contains("\"node_outcomes\":{\"pruned\":0,\"infeasible\":0,\"integral\":1"));
        assert!(json.contains("\"lp_iterations\":{\"count\":2,\"min\":4"));
    }

    #[test]
    fn an_open_node_unbalances_the_stream() {
        let events = vec![ev(
            0,
            TraceEvent::NodeOpen {
                worker: 0,
                depth: 1,
            },
        )];
        let r = SolveReport::from_events(&events);
        assert_eq!(r.nodes_closed(), 0);
        assert!(!r.balanced());
    }

    #[test]
    fn portfolio_wins_are_tallied_per_backend() {
        let events = vec![
            ev(
                1,
                TraceEvent::BackendResult {
                    backend: "sat",
                    ii: 2,
                    verdict: "feasible",
                },
            ),
            ev(
                2,
                TraceEvent::PortfolioWin {
                    backend: "sat",
                    ii: 2,
                },
            ),
            ev(
                3,
                TraceEvent::PortfolioWin {
                    backend: "ilp",
                    ii: 3,
                },
            ),
        ];
        let r = SolveReport::from_events(&events);
        assert_eq!(r.sat_wins, 1);
        assert_eq!(r.ilp_wins, 1);
        let text = r.render();
        assert!(text.contains("portfolio: sat won 1 cell(s), ilp won 1"));
        let json = r.to_json();
        assert!(json.contains("\"sat_wins\":1,\"ilp_wins\":1"));
    }

    #[test]
    fn explain_counters_are_tallied() {
        let events = vec![
            ev(
                0,
                TraceEvent::PhaseBegin {
                    phase: Phase::Explain,
                },
            ),
            ev(1, TraceEvent::ExplainStart { ii: 1 }),
            ev(2, TraceEvent::CoreFound { ii: 1, size: 6 }),
            ev(
                3,
                TraceEvent::CoreMinimized {
                    ii: 1,
                    from: 6,
                    to: 2,
                    certified: true,
                },
            ),
            ev(
                4,
                TraceEvent::PhaseEnd {
                    phase: Phase::Explain,
                },
            ),
        ];
        let r = SolveReport::from_events(&events);
        assert_eq!(r.explain_runs, 1);
        assert_eq!(r.explain_raw_core_groups, 6);
        assert_eq!(r.explain_min_core_groups, 2);
        assert_eq!(r.explain_certified, 1);
        assert!(r.phase(Phase::Explain).is_some());
        let text = r.render();
        assert!(text.contains("explanations: 1 run(s), core groups 6 raw -> 2 minimized"));
        let json = r.to_json();
        assert!(json.contains("\"explain_runs\":1"));
        assert!(json.contains("\"explain_min_core_groups\":2"));
    }

    #[test]
    fn unbalanced_span_is_dropped() {
        let events = vec![ev(0, TraceEvent::PhaseBegin { phase: Phase::Ims })];
        let r = SolveReport::from_events(&events);
        assert!(r.phase(Phase::Ims).is_none());
    }

    #[test]
    fn hist_summary_percentiles() {
        let h = HistSummary::from_values(&[5, 1, 9, 3, 7, 2, 8, 4, 6, 10]);
        assert_eq!(h.count, 10);
        assert_eq!(h.min, 1);
        assert_eq!(h.p50, 6); // index round(9 * 0.5) = 5 (0-based, sorted)
        assert_eq!(h.p90, 9);
        assert_eq!(h.max, 10);
        assert_eq!(HistSummary::from_values(&[]), HistSummary::default());
    }
}
