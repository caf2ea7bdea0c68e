//! Solve outcomes and the effort statistics the paper's evaluation reports.

use std::error::Error;
use std::fmt::{self, Write as _};
use std::time::Duration;

use crate::simplex::{LpOutcome, LpStatus, WarmStart};

/// An abnormal solver condition, reported alongside the outcome instead of
/// unwinding through the caller.
///
/// A [`SolveOutcome`] carrying one of these still has a well-formed status
/// (typically [`SolveStatus::LimitReached`], or [`SolveStatus::Feasible`]
/// when an incumbent was already in hand): the solver degrades, it does not
/// die. Callers that need the cause (the scheduler's fallback ladder, the
/// corpus driver's outcome table) read it from [`SolveOutcome::error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The simplex stalled: a long run of degenerate pivots survived both
    /// the switch to Bland's anti-cycling rule and a basis refactorization,
    /// indicating numerical instability on this LP.
    NumericallyUnstable {
        /// Pivots performed by the stalled LP before it was abandoned.
        iterations: u64,
    },
    /// A worker of the branch-and-bound search (or the portfolio's SAT
    /// backend) panicked; the payload is the panic message.
    WorkerPanic(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NumericallyUnstable { iterations } => write!(
                f,
                "simplex stalled after {iterations} iterations of degenerate pivots \
                 (numerical instability)"
            ),
            SolveError::WorkerPanic(msg) => write!(f, "solver worker panicked: {msg}"),
        }
    }
}

impl Error for SolveError {}

/// Extracts a human-readable message from a panic payload (the `Box<dyn
/// Any>` that [`std::thread::JoinHandle::join`] and
/// [`std::panic::catch_unwind`] return on unwind).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Final status of a branch-and-bound solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An integral solution was found and proven optimal.
    Optimal,
    /// An integral solution was found, but a limit stopped the proof of
    /// optimality.
    Feasible,
    /// The problem was proven integer-infeasible.
    Infeasible,
    /// A limit (time, nodes, or iterations) was reached before any integral
    /// solution was found; nothing is known.
    LimitReached,
}

impl SolveStatus {
    /// Whether an integral assignment is available in the outcome.
    pub fn has_solution(self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::Feasible)
    }

    /// Stable lower-case identifier (used in trace events and JSON).
    pub fn name(self) -> &'static str {
        match self {
            SolveStatus::Optimal => "optimal",
            SolveStatus::Feasible => "feasible",
            SolveStatus::Infeasible => "infeasible",
            SolveStatus::LimitReached => "limit-reached",
        }
    }
}

impl fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SolveStatus::Optimal => "optimal",
            SolveStatus::Feasible => "feasible (limit reached)",
            SolveStatus::Infeasible => "infeasible",
            SolveStatus::LimitReached => "limit reached (no solution)",
        };
        f.write_str(s)
    }
}

/// Solver-effort statistics, mirroring the measurements of the paper's
/// Tables 1 and 2 (variables, constraints, branch-and-bound nodes, simplex
/// iterations).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Variables in the formulation, prior to any simplification.
    pub variables: u64,
    /// Constraint rows in the formulation, prior to any simplification.
    pub constraints: u64,
    /// Branch-and-bound nodes visited *beyond the root relaxation* — the
    /// paper counts the nodes CPLEX explores "when it must force variables to
    /// integral values", so a problem whose root LP is integral reports 0.
    pub bb_nodes: u64,
    /// Total simplex iterations across all LP solves.
    pub simplex_iterations: u64,
    /// Number of LP relaxations solved (root + one per node).
    pub lp_solves: u64,
    /// Incumbent updates: how many times a strictly better integral
    /// solution was accepted during the search.
    pub incumbents: u64,
    /// Basis refactorizations performed across all LP solves: the
    /// eta-file budget
    /// ([`SimplexOptions::eta_nnz_limit`](crate::SimplexOptions), auto
    /// `16m + 1024` stored entries), warm-start basis installations that
    /// could not roll back to the parent's factor, watchdog-forced
    /// rebuilds, and residual-check repairs. On the structured models the
    /// budget forces most of the in-loop ones, since their product-form
    /// etas are dense.
    pub refactors: u64,
    /// Product-form eta updates absorbed by the basis across all LP
    /// solves.
    pub eta_pivots: u64,
    /// LP re-solves that successfully restarted from a parent node's basis
    /// snapshot instead of a crash basis.
    pub warm_starts: u64,
    /// Warm-start attempts abandoned (singular snapshot basis or dual-pivot
    /// cap) and retried cold.
    pub warm_abandoned: u64,
    /// Time spent in FTRAN solves (transformed columns and right-hand
    /// sides) across all LP solves.
    pub ftran_time: Duration,
    /// Time spent in BTRAN solves (pricing and dual rows) across all LP
    /// solves.
    pub btran_time: Duration,
    /// Time spent factorizing bases (every refactorization, warm-start
    /// installations included) across all LP solves.
    pub factor_time: Duration,
    /// LP relaxations abandoned by the degenerate-pivot stall watchdog
    /// ([`LpStatus::Stalled`](crate::LpStatus)).
    pub stalled_lps: u64,
    /// Worker panics caught and recovered by the branch-and-bound search
    /// (and the scheduler's portfolio, around its SAT backend).
    pub panics_recovered: u64,
    /// Injections of the solve's [`FaultPlan`](crate::FaultPlan) that
    /// tripped during this solve (0 when no plan is armed).
    pub faults_injected: u64,
    /// Portfolio SAT backend: decisions made by the CDCL search (0 when
    /// no SAT backend ran).
    pub sat_decisions: u64,
    /// Portfolio SAT backend: literal assignments made (decisions plus
    /// propagated implications).
    pub sat_propagations: u64,
    /// Portfolio SAT backend: conflicts analyzed.
    pub sat_conflicts: u64,
    /// Portfolio SAT backend: Luby restarts taken.
    pub sat_restarts: u64,
    /// Portfolio SAT backend: clauses learned from conflicts.
    pub sat_learned: u64,
    /// Presolve passes run (one per model built with presolve enabled).
    pub presolve_runs: u64,
    /// Constraint rows presolve removed as redundant.
    pub presolve_rows_eliminated: u64,
    /// MRT binaries presolve fixed to 0 or 1.
    pub presolve_binaries_fixed: u64,
    /// Stage-variable bounds presolve strictly tightened.
    pub presolve_bounds_tightened: u64,
    /// Models presolve proved infeasible.
    pub presolve_infeasible: u64,
    /// Wall-clock time spent in the solver.
    pub wall_time: Duration,
}

impl SolveStats {
    /// Counts one LP solve: its effort, its timers, its warm-start
    /// disposition and a stall. Every search folds its LPs through here,
    /// so a new per-LP counter is added in one place.
    pub fn add_lp(&mut self, lp: &LpOutcome) {
        self.lp_solves += 1;
        self.simplex_iterations += lp.iterations;
        self.refactors += lp.refactors;
        self.eta_pivots += lp.eta_pivots;
        self.ftran_time += Duration::from_nanos(lp.ftran_nanos);
        self.btran_time += Duration::from_nanos(lp.btran_nanos);
        self.factor_time += Duration::from_nanos(lp.factor_nanos);
        match lp.warm {
            WarmStart::Taken => self.warm_starts += 1,
            WarmStart::Abandoned => self.warm_abandoned += 1,
            WarmStart::Cold => {}
        }
        if lp.status == LpStatus::Stalled {
            self.stalled_lps += 1;
        }
    }

    /// Accumulates another run's statistics into `self` (durations add).
    ///
    /// This is the *only* merge path for parallel workers and for the
    /// scheduler's per-`II` accumulation, so every counter must be folded
    /// here — the `absorb_merges_every_counter` test destructures the
    /// struct exhaustively so that adding a field without merging it fails
    /// to compile.
    pub fn absorb(&mut self, other: &SolveStats) {
        self.variables = self.variables.max(other.variables);
        self.constraints = self.constraints.max(other.constraints);
        self.bb_nodes += other.bb_nodes;
        self.simplex_iterations += other.simplex_iterations;
        self.lp_solves += other.lp_solves;
        self.incumbents += other.incumbents;
        self.refactors += other.refactors;
        self.eta_pivots += other.eta_pivots;
        self.warm_starts += other.warm_starts;
        self.warm_abandoned += other.warm_abandoned;
        self.ftran_time += other.ftran_time;
        self.btran_time += other.btran_time;
        self.factor_time += other.factor_time;
        self.stalled_lps += other.stalled_lps;
        self.panics_recovered += other.panics_recovered;
        self.faults_injected += other.faults_injected;
        self.sat_decisions += other.sat_decisions;
        self.sat_propagations += other.sat_propagations;
        self.sat_conflicts += other.sat_conflicts;
        self.sat_restarts += other.sat_restarts;
        self.sat_learned += other.sat_learned;
        self.presolve_runs += other.presolve_runs;
        self.presolve_rows_eliminated += other.presolve_rows_eliminated;
        self.presolve_binaries_fixed += other.presolve_binaries_fixed;
        self.presolve_bounds_tightened += other.presolve_bounds_tightened;
        self.presolve_infeasible += other.presolve_infeasible;
        self.wall_time += other.wall_time;
    }

    /// Every counter as `(section, key, value)`, durations in whole
    /// microseconds: the one schema both writers below share. The
    /// destructuring is exhaustive, so a new counter cannot be left out.
    fn fields(&self) -> [(&'static str, &'static str, u64); 27] {
        let SolveStats {
            variables,
            constraints,
            bb_nodes,
            simplex_iterations,
            lp_solves,
            incumbents,
            refactors,
            eta_pivots,
            warm_starts,
            warm_abandoned,
            ftran_time,
            btran_time,
            factor_time,
            stalled_lps,
            panics_recovered,
            faults_injected,
            sat_decisions,
            sat_propagations,
            sat_conflicts,
            sat_restarts,
            sat_learned,
            presolve_runs,
            presolve_rows_eliminated,
            presolve_binaries_fixed,
            presolve_bounds_tightened,
            presolve_infeasible,
            wall_time,
        } = *self;
        let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        [
            ("model", "variables", variables),
            ("model", "constraints", constraints),
            ("search", "bb_nodes", bb_nodes),
            ("search", "incumbents", incumbents),
            ("lp", "lp_solves", lp_solves),
            ("lp", "simplex_iterations", simplex_iterations),
            ("lp", "refactors", refactors),
            ("lp", "eta_pivots", eta_pivots),
            ("lp", "stalled_lps", stalled_lps),
            ("lp", "warm_starts", warm_starts),
            ("lp", "warm_abandoned", warm_abandoned),
            ("time", "ftran_us", us(ftran_time)),
            ("time", "btran_us", us(btran_time)),
            ("time", "factor_us", us(factor_time)),
            ("time", "wall_us", us(wall_time)),
            ("presolve", "presolve_runs", presolve_runs),
            (
                "presolve",
                "presolve_rows_eliminated",
                presolve_rows_eliminated,
            ),
            (
                "presolve",
                "presolve_binaries_fixed",
                presolve_binaries_fixed,
            ),
            (
                "presolve",
                "presolve_bounds_tightened",
                presolve_bounds_tightened,
            ),
            ("presolve", "presolve_infeasible", presolve_infeasible),
            ("sat", "sat_decisions", sat_decisions),
            ("sat", "sat_propagations", sat_propagations),
            ("sat", "sat_conflicts", sat_conflicts),
            ("sat", "sat_restarts", sat_restarts),
            ("sat", "sat_learned", sat_learned),
            ("faults", "panics_recovered", panics_recovered),
            ("faults", "faults_injected", faults_injected),
        ]
    }

    /// Renders the effort section the CLI prints under `--report`: one
    /// line per section, its counters under their JSON keys. Sections
    /// that are all zero (presolve off, no SAT backend, no faults) are
    /// omitted.
    pub fn render(&self) -> String {
        let mut s = String::from("solver effort:\n");
        for section in self.fields().chunk_by(|a, b| a.0 == b.0) {
            if section.iter().all(|&(_, _, v)| v == 0) {
                continue;
            }
            let body: Vec<String> = section.iter().map(|(_, k, v)| format!("{k} {v}")).collect();
            let _ = writeln!(s, "  {}: {}", section[0].0, body.join(", "));
        }
        s
    }

    /// Encodes every counter as one flat JSON object, the `stats` member
    /// of the CLI's `--report-json`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields()
            .iter()
            .map(|(_, k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Result of a branch-and-bound solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Final status.
    pub status: SolveStatus,
    /// Objective of the best integral solution (model sense); `NaN` when no
    /// solution was found.
    pub objective: f64,
    /// Best integral assignment (empty when no solution was found).
    pub values: Vec<f64>,
    /// Best proven dual bound on the optimum (in the model's sense). Equals
    /// `objective` for [`SolveStatus::Optimal`].
    pub best_bound: f64,
    /// Effort statistics.
    pub stats: SolveStats,
    /// Abnormal condition encountered during the solve (numerical
    /// instability, a worker panic), if any. The status above remains
    /// honest — an error with an incumbent reports [`SolveStatus::Feasible`],
    /// without one [`SolveStatus::LimitReached`].
    pub error: Option<SolveError>,
}

impl SolveOutcome {
    /// Value of variable `v` in the best solution.
    ///
    /// # Panics
    ///
    /// Panics if no solution is available.
    pub fn value(&self, v: crate::VarId) -> f64 {
        assert!(
            self.status.has_solution(),
            "no solution available (status: {})",
            self.status
        );
        self.values[v.index()]
    }

    /// Value of variable `v` rounded to the nearest integer.
    ///
    /// # Panics
    ///
    /// Panics if no solution is available.
    pub fn int_value(&self, v: crate::VarId) -> i64 {
        self.value(v).round() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `absorb` is the single merge path for parallel-worker and per-`II`
    /// statistics. The destructuring below is exhaustive on purpose: a new
    /// counter added to [`SolveStats`] without a merge rule (and without a
    /// line here) stops compiling instead of silently dropping data.
    #[test]
    fn absorb_merges_every_counter() {
        let mut a = SolveStats {
            variables: 10,
            constraints: 20,
            bb_nodes: 3,
            simplex_iterations: 100,
            lp_solves: 4,
            incumbents: 1,
            refactors: 2,
            eta_pivots: 50,
            warm_starts: 2,
            warm_abandoned: 1,
            ftran_time: Duration::from_millis(2),
            btran_time: Duration::from_millis(3),
            factor_time: Duration::from_millis(6),
            stalled_lps: 1,
            panics_recovered: 0,
            faults_injected: 1,
            sat_decisions: 10,
            sat_propagations: 100,
            sat_conflicts: 4,
            sat_restarts: 1,
            sat_learned: 3,
            presolve_runs: 1,
            presolve_rows_eliminated: 4,
            presolve_binaries_fixed: 0,
            presolve_bounds_tightened: 2,
            presolve_infeasible: 0,
            wall_time: Duration::from_millis(5),
        };
        let b = SolveStats {
            variables: 7,
            constraints: 30,
            bb_nodes: 5,
            simplex_iterations: 40,
            lp_solves: 6,
            incumbents: 2,
            refactors: 3,
            eta_pivots: 25,
            warm_starts: 4,
            warm_abandoned: 0,
            ftran_time: Duration::from_millis(1),
            btran_time: Duration::from_millis(4),
            factor_time: Duration::from_millis(2),
            stalled_lps: 0,
            panics_recovered: 4,
            faults_injected: 2,
            sat_decisions: 5,
            sat_propagations: 50,
            sat_conflicts: 6,
            sat_restarts: 2,
            sat_learned: 7,
            presolve_runs: 2,
            presolve_rows_eliminated: 3,
            presolve_binaries_fixed: 5,
            presolve_bounds_tightened: 1,
            presolve_infeasible: 1,
            wall_time: Duration::from_millis(7),
        };
        a.absorb(&b);
        let SolveStats {
            variables,
            constraints,
            bb_nodes,
            simplex_iterations,
            lp_solves,
            incumbents,
            refactors,
            eta_pivots,
            warm_starts,
            warm_abandoned,
            ftran_time,
            btran_time,
            factor_time,
            stalled_lps,
            panics_recovered,
            faults_injected,
            sat_decisions,
            sat_propagations,
            sat_conflicts,
            sat_restarts,
            sat_learned,
            presolve_runs,
            presolve_rows_eliminated,
            presolve_binaries_fixed,
            presolve_bounds_tightened,
            presolve_infeasible,
            wall_time,
        } = a;
        // Model sizes keep the larger formulation; everything else sums.
        assert_eq!(variables, 10);
        assert_eq!(constraints, 30);
        assert_eq!(bb_nodes, 8);
        assert_eq!(simplex_iterations, 140);
        assert_eq!(lp_solves, 10);
        assert_eq!(incumbents, 3);
        assert_eq!(refactors, 5);
        assert_eq!(eta_pivots, 75);
        assert_eq!(warm_starts, 6);
        assert_eq!(warm_abandoned, 1);
        assert_eq!(ftran_time, Duration::from_millis(3));
        assert_eq!(btran_time, Duration::from_millis(7));
        assert_eq!(factor_time, Duration::from_millis(8));
        assert_eq!(stalled_lps, 1);
        assert_eq!(panics_recovered, 4);
        assert_eq!(faults_injected, 3);
        assert_eq!(sat_decisions, 15);
        assert_eq!(sat_propagations, 150);
        assert_eq!(sat_conflicts, 10);
        assert_eq!(sat_restarts, 3);
        assert_eq!(sat_learned, 10);
        assert_eq!(presolve_runs, 3);
        assert_eq!(presolve_rows_eliminated, 7);
        assert_eq!(presolve_binaries_fixed, 5);
        assert_eq!(presolve_bounds_tightened, 3);
        assert_eq!(presolve_infeasible, 1);
        assert_eq!(wall_time, Duration::from_millis(12));
    }

    #[test]
    fn render_and_json_cover_the_counters() {
        let stats = SolveStats {
            bb_nodes: 3,
            lp_solves: 5,
            warm_starts: 2,
            presolve_runs: 2,
            presolve_rows_eliminated: 4,
            faults_injected: 1,
            factor_time: Duration::from_micros(42),
            ..Default::default()
        };
        let text = stats.render();
        assert!(text.starts_with("solver effort:\n"));
        assert!(text.contains("  search: bb_nodes 3, incumbents 0\n"));
        assert!(text.contains("lp_solves 5, "));
        assert!(text.contains("warm_starts 2, warm_abandoned 0\n"));
        assert!(text.contains("  time: ftran_us 0, btran_us 0, factor_us 42, wall_us 0\n"));
        assert!(text.contains("  presolve: presolve_runs 2, presolve_rows_eliminated 4,"));
        assert!(text.contains("  faults: panics_recovered 0, faults_injected 1\n"));
        assert!(!text.contains("sat:"), "all-zero sections are omitted");
        let json = stats.to_json();
        assert!(json.starts_with("{\"variables\":0,") && json.ends_with('}'));
        assert!(json.contains("\"bb_nodes\":3"));
        assert!(json.contains("\"presolve_rows_eliminated\":4"));
        assert!(json.contains("\"factor_us\":42"));
        assert!(
            json.contains("\"sat_learned\":0"),
            "zero counters stay in the JSON"
        );
        assert_eq!(json.matches(':').count(), 27, "one key per counter");
    }

    #[test]
    fn absorb_identity_on_default() {
        let mut a = SolveStats::default();
        let b = SolveStats {
            variables: 3,
            bb_nodes: 9,
            incumbents: 2,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a, b);
    }
}
