//! The optimal modulo scheduling framework (paper Section 3.4).
//!
//! For a loop and machine: compute the MII, build the ILP for the tentative
//! `II`, solve (optionally minimizing a secondary objective), and increment
//! `II` on infeasibility. The first feasible `II` yields an optimal-
//! throughput schedule; with a secondary objective the returned schedule is
//! optimal for that objective among all schedules of that `II`.

use std::time::{Duration, Instant};

use optimod_analyze::{Explanation, IlpContext, PresolveOptions};
use optimod_ddg::Loop;
use optimod_ilp::{
    panic_message, FaultAction, FaultSite, SolveError, SolveLimits, SolveOutcome, SolveStats,
    SolveStatus,
};
use optimod_machine::Machine;
use optimod_trace::{Phase, Trace, TraceEvent};

use crate::error::ScheduleError;
use crate::formulation::{build_model, BuiltModel, DepStyle, FormulationConfig, Objective};
use crate::heuristic::ims::{ims_schedule, ImsConfig};
use crate::heuristic::stage::{optimal_stages, stage_schedule};
use crate::mii::{compute_mii, Mii};
use crate::portfolio::PortfolioOutcome;
use crate::schedule::Schedule;

/// Loops whose MII exceeds this yield [`LoopStatus::Invalid`] with
/// [`ScheduleError::MiiOverflow`]; the analyzer's MII-overflow lint reads
/// the same constant.
pub use optimod_analyze::MAX_SCHEDULABLE_II;

/// Our objectives are all integral; strip float noise from the simplex.
fn round_integral(v: f64) -> f64 {
    if (v - v.round()).abs() < 1e-6 {
        v.round()
    } else {
        v
    }
}

/// Saturating `total * share` for fallback-ladder budget slices.
///
/// `Duration::mul_f64` panics when the product overflows — and it can
/// overflow even for `share <= 1.0`, because `Duration::MAX.as_secs_f64()`
/// rounds *up* to 2^64 seconds, one past the largest representable
/// duration. A caller handing the daemon (or the CLI) a near-`u64::MAX`
/// budget with the ladder enabled would take that panic mid-schedule, so
/// the share is computed through the fallible conversion and saturates to
/// `total` instead. Non-finite shares degrade to zero.
fn budget_share(total: Duration, share: f64) -> Duration {
    let share = if share.is_finite() {
        share.clamp(0.0, 1.0)
    } else {
        0.0
    };
    Duration::try_from_secs_f64(total.as_secs_f64() * share)
        .map(|d| d.min(total))
        .unwrap_or(total)
}

/// Budgeted degradation ladder: when the exact solver cannot schedule a
/// loop within its slice of the budget, cheaper methods take over rather
/// than reporting nothing (the coverage-first strategy of SAT-MapIt-style
/// mappers). The rungs are: exact structured ILP → stage-scheduler ILP
/// (IMS rows, exact stages) → plain IMS heuristic. Which rung produced the
/// schedule is recorded in [`LoopResult::provenance`].
#[derive(Debug, Clone, Copy)]
pub struct FallbackConfig {
    /// Whether the ladder is active. Off by default: the paper's
    /// experiments measure the exact solvers alone, and a degraded
    /// schedule would silently contaminate their statistics.
    pub enabled: bool,
    /// Skip the exact rung entirely and enter the ladder at stage-ILP.
    /// This is the brownout mode a saturated service flips into: every
    /// schedule it produces is honestly tagged with a degraded
    /// [`Provenance`], and the exact rung's budget is never spent.
    pub skip_exact: bool,
    /// Fraction of the per-loop time budget given to the exact solver
    /// (rung 1) before degrading.
    pub exact_share: f64,
    /// Fraction of the per-loop time budget given to the stage-scheduler
    /// ILP (rung 2); the remainder is slack for the IMS rung, which is
    /// combinatorial but effectively instant.
    pub stage_share: f64,
}

impl Default for FallbackConfig {
    fn default() -> Self {
        FallbackConfig {
            enabled: false,
            skip_exact: false,
            exact_share: 0.7,
            stage_share: 0.2,
        }
    }
}

impl FallbackConfig {
    /// An enabled ladder with the default budget split.
    pub fn enabled() -> Self {
        FallbackConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// The brownout configuration: ladder on, exact rung skipped, so every
    /// solve lands on a cheap degraded rung (stage-ILP, then IMS).
    pub fn degraded_only() -> Self {
        FallbackConfig {
            enabled: true,
            skip_exact: true,
            ..Default::default()
        }
    }
}

/// Which rung of the fallback ladder produced a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Rung 1: the exact ILP over the full scheduling space.
    Exact,
    /// The portfolio's CDCL SAT backend, which decides first, settled the
    /// `II` with a certified schedule. Exact for throughput (same `II`
    /// search, certified feasible witness), but carries no secondary-objective claim — the portfolio
    /// only runs for [`Objective::FirstFeasible`].
    SatExact,
    /// Rung 2: IMS rows with ILP-optimal stage assignment.
    StageIlp,
    /// Rung 3: the IMS heuristic (with greedy stage improvement).
    Ims,
}

impl Provenance {
    /// Whether the schedule came from a degraded (non-exact) rung. A
    /// SAT-portfolio win is *not* degraded: the witness is certified at the
    /// same `II` the exact search would have settled on.
    pub fn degraded(self) -> bool {
        matches!(self, Provenance::StageIlp | Provenance::Ims)
    }
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Provenance::Exact => "exact",
            Provenance::SatExact => "sat-exact",
            Provenance::StageIlp => "stage-ilp",
            Provenance::Ims => "ims",
        })
    }
}

/// Configuration of an optimal modulo scheduler run.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Dependence-constraint formulation.
    pub dep_style: DepStyle,
    /// Secondary objective.
    pub objective: Objective,
    /// Total solver budget for the loop, across all tentative `II` values
    /// (the paper allots 15 minutes per loop). `limits.threads` selects the
    /// branch-and-bound engine per solve (see
    /// [`SolveLimits::resolve_threads`]); `limits.stop` cancels the whole
    /// scheduling run cooperatively.
    pub limits: SolveLimits,
    /// Schedule-length slack beyond the dependence minimum (paper: 20).
    pub sched_len_slack: u32,
    /// How far past the MII to escalate `II` before giving up.
    pub max_ii_span: u32,
    /// Hard register-file constraint (`MaxLive <= limit`); `None` means
    /// unlimited registers, as in the paper's experiments.
    pub register_limit: Option<u32>,
    /// Cross-backend portfolio: at each tentative `II`, the `optimod-sat`
    /// CDCL backend decides first and a certified SAT schedule settles the
    /// `II`; otherwise the ILP decides, with `limits.threads` workers. A
    /// differential oracle fails the run on any certified contradiction
    /// (see [`ScheduleError::BackendDisagreement`]). Deterministic at every
    /// thread count. Only active for [`Objective::FirstFeasible`] without a
    /// [`Self::register_limit`] — the CNF has neither an objective nor a
    /// MaxLive term — otherwise the run is ILP-only (the CLI refuses
    /// `--portfolio` there). Off by default.
    pub portfolio: bool,
    /// CNF encoder options for the portfolio's SAT backend. The default is
    /// the faithful encoding; the sabotaged variants exist so tests can
    /// prove the differential oracle actually fires.
    pub sat_encode: optimod_sat::EncodeOptions,
    /// Degradation ladder configuration (see [`FallbackConfig`]).
    pub fallback: FallbackConfig,
    /// Run the static analyzer's presolve over each built model before
    /// search ([`optimod_analyze::presolve`]): stage-bound tightening,
    /// binary fixing, and redundant-row elimination. Every reduction is
    /// implied by constraints already in the model, so the certified II and
    /// objective are unchanged; the certifier still checks every presolved
    /// solve. On by default.
    pub presolve: bool,
    /// Which presolve reductions run (ignored unless [`Self::presolve`] is
    /// set). Defaults to all of them; the presolve-impact bench toggles
    /// individual reductions to attribute their effect.
    pub presolve_options: PresolveOptions,
    /// When the exact search proves the whole `II` span infeasible, run the
    /// infeasibility explanation engine at the last attempted `II` and
    /// attach its certified unsat-core diagnostics to
    /// [`LoopResult::explanation`]. Off by default: explanation re-encodes
    /// the problem through the CNF encoder and runs a deletion-based MUS
    /// loop, which can cost more than the failed search itself.
    pub explain: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            dep_style: DepStyle::Structured,
            objective: Objective::FirstFeasible,
            limits: SolveLimits::default(),
            sched_len_slack: 20,
            max_ii_span: 64,
            register_limit: None,
            portfolio: false,
            sat_encode: optimod_sat::EncodeOptions::default(),
            fallback: FallbackConfig::default(),
            presolve: true,
            presolve_options: PresolveOptions::default(),
            explain: false,
        }
    }
}

impl SchedulerConfig {
    /// Convenience constructor: given style and objective, default limits.
    pub fn new(dep_style: DepStyle, objective: Objective) -> Self {
        SchedulerConfig {
            dep_style,
            objective,
            ..Default::default()
        }
    }

    /// Replaces the total per-loop time budget.
    pub fn with_time_limit(mut self, d: Duration) -> Self {
        self.limits.time_limit = d;
        self
    }

    /// Replaces the branch-and-bound node budget.
    pub fn with_node_limit(mut self, n: u64) -> Self {
        self.limits.node_limit = n;
        self
    }
}

/// How a scheduling attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopStatus {
    /// Scheduled with the secondary objective proven optimal (or no
    /// objective requested).
    Optimal,
    /// A valid schedule was found but a limit stopped the optimality proof
    /// of the secondary objective.
    FeasibleOnly,
    /// The budget ran out before any schedule was found.
    TimedOut,
    /// No schedule exists within the allowed `II` span and schedule length.
    Infeasible,
    /// The input loop failed [`Loop::validate`]; nothing was attempted.
    /// The cause is in [`LoopResult::error`].
    Invalid,
    /// The pipeline failed abnormally (solver instability, a worker panic,
    /// an undecodable solution) and no rung produced a schedule. The cause
    /// is in [`LoopResult::error`].
    Failed,
}

impl LoopStatus {
    /// Whether a schedule is available.
    pub fn scheduled(self) -> bool {
        matches!(self, LoopStatus::Optimal | LoopStatus::FeasibleOnly)
    }
}

/// Result of scheduling one loop.
#[derive(Debug, Clone)]
pub struct LoopResult {
    /// Outcome classification.
    pub status: LoopStatus,
    /// MII components for the loop.
    pub mii: Mii,
    /// Achieved initiation interval (when scheduled).
    pub ii: Option<u32>,
    /// The schedule (when scheduled).
    pub schedule: Option<Schedule>,
    /// Secondary objective value reported by the solver (when scheduled
    /// with an objective).
    pub objective_value: Option<f64>,
    /// Solver statistics accumulated over every tentative `II`
    /// (`variables`/`constraints` are those of the largest model built —
    /// i.e. the final one, since sizes grow with `II`), including what the
    /// analyzer's presolve did (the `presolve_*` counters, all zero when
    /// [`SchedulerConfig::presolve`] is off or no model was built).
    pub stats: SolveStats,
    /// Which ladder rung produced the schedule (`None` when unscheduled).
    /// [`Provenance::Exact`] when the fallback ladder is disabled, except
    /// that a portfolio run reports [`Provenance::SatExact`] for the cells
    /// the SAT backend won.
    pub provenance: Option<Provenance>,
    /// Abnormal condition encountered along the way, if any. Present even
    /// on scheduled results when a rung failed abnormally before a later
    /// rung (or the incumbent) recovered.
    pub error: Option<ScheduleError>,
    /// Certified infeasibility diagnostics (`OM200`-series findings, unsat
    /// core, replayable repro) attached to [`LoopStatus::Infeasible`]
    /// results when [`SchedulerConfig::explain`] is set; `None` otherwise.
    pub explanation: Option<Explanation>,
}

/// Per-loop scheduling state: everything a result carries besides its
/// schedule, accumulated while `II` escalates.
pub(crate) struct LoopState {
    mii: Mii,
    start: Instant,
    /// Wall-clock budget of the `II` escalation, measured from `start`.
    budget: Duration,
    pub(crate) stats: SolveStats,
    /// First abnormal-but-survivable condition seen (a backend panic, a
    /// stalled LP); reported even when a later attempt succeeds.
    error: Option<ScheduleError>,
}

impl LoopState {
    fn new(mii: Mii, start: Instant, budget: Duration) -> Self {
        LoopState {
            mii,
            start,
            budget,
            stats: SolveStats::default(),
            error: None,
        }
    }

    /// Records `error` unless an earlier one is already recorded.
    pub(crate) fn note(&mut self, error: ScheduleError) {
        self.error.get_or_insert(error);
    }

    /// The one constructor of unscheduled results.
    fn unscheduled(self, status: LoopStatus) -> LoopResult {
        LoopResult {
            status,
            mii: self.mii,
            ii: None,
            schedule: None,
            objective_value: None,
            stats: SolveStats {
                wall_time: self.start.elapsed(),
                ..self.stats
            },
            provenance: None,
            error: self.error,
            explanation: None,
        }
    }
}

/// A certified schedule and the claims it is reported with.
struct Found {
    schedule: Schedule,
    status: LoopStatus,
    objective_value: Option<f64>,
    provenance: Provenance,
}

impl Found {
    /// A certified schedule from the portfolio's SAT backend: `Optimal`,
    /// since the portfolio runs only without a secondary objective, where
    /// the first feasible schedule at the first feasible `II` *is* the
    /// optimum.
    fn sat(schedule: Schedule) -> Self {
        Found {
            schedule,
            status: LoopStatus::Optimal,
            objective_value: None,
            provenance: Provenance::SatExact,
        }
    }

    /// This schedule on top of an unscheduled result, keeping its solver
    /// statistics and recorded error.
    fn onto(self, base: LoopResult) -> LoopResult {
        LoopResult {
            status: self.status,
            ii: Some(self.schedule.ii()),
            schedule: Some(self.schedule),
            objective_value: self.objective_value,
            provenance: Some(self.provenance),
            ..base
        }
    }
}

/// What one tentative `II` settled.
enum Decision {
    /// A certified schedule at this `II`.
    Scheduled(Found),
    /// No schedule exists at this `II`: escalate.
    Infeasible,
    /// A budget, the node cap or cancellation stopped the search
    /// undecided.
    Limit,
    /// The pipeline failed abnormally, with its typed cause.
    Failed(ScheduleError),
}

/// An optimal modulo scheduler (NoObj / MinReg / MinBuff / MinLife /
/// MinSchedLen depending on [`SchedulerConfig::objective`]).
///
/// ```
/// use optimod::{OptimalScheduler, SchedulerConfig, DepStyle, Objective};
/// use optimod_ddg::kernels::figure1;
/// use optimod_machine::example_3fu;
///
/// let machine = example_3fu();
/// let l = figure1(&machine);
/// let sched = OptimalScheduler::new(
///     SchedulerConfig::new(DepStyle::Structured, Objective::MinMaxLive));
/// let res = sched.schedule(&l, &machine);
/// assert_eq!(res.ii, Some(2));
/// assert_eq!(res.schedule.unwrap().max_live(&l), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OptimalScheduler {
    config: SchedulerConfig,
}

impl OptimalScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(config: SchedulerConfig) -> Self {
        OptimalScheduler { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Schedules `l` on `machine`, escalating `II` from the MII.
    ///
    /// The input is validated first; a malformed loop yields
    /// [`LoopStatus::Invalid`] with the cause in [`LoopResult::error`].
    ///
    /// With [`SchedulerConfig::fallback`] enabled, an exact attempt that
    /// runs out of budget (or fails abnormally) degrades down the ladder —
    /// stage-scheduler ILP, then plain IMS — instead of returning without a
    /// schedule; [`LoopResult::provenance`] records the producing rung.
    pub fn schedule(&self, l: &Loop, machine: &Machine) -> LoopResult {
        let start = Instant::now();
        let total = self.config.limits.time_limit;
        // Validate before anything touches the graph: even the MII
        // computation indexes operations through edges, so a dangling
        // endpoint would panic there.
        if let Err(e) = l.validate() {
            let mut state = LoopState::new(Mii::default(), start, total);
            state.error = Some(ScheduleError::InvalidLoop(e));
            return state.unscheduled(LoopStatus::Invalid);
        }
        let mii = compute_mii(l, machine);
        if mii.value() > MAX_SCHEDULABLE_II {
            // A validated loop can still carry a recurrence no practical II
            // satisfies (latency sums near the validation cap). Refuse it
            // up front: neither the ILP nor the heuristics could represent
            // a schedule that long.
            let mut state = LoopState::new(mii, start, total);
            state.error = Some(ScheduleError::MiiOverflow { mii: mii.value() });
            return state.unscheduled(LoopStatus::Invalid);
        }
        let fb = self.config.fallback;
        if !fb.enabled {
            return self.schedule_exact(l, machine, LoopState::new(mii, start, total));
        }
        if fb.skip_exact {
            // Brownout: enter the ladder directly, with a base result that
            // reports the exact rung as budget-starved (which, under
            // overload, it is). If even the ladder fails, the caller sees a
            // retryable TimedOut, never a fabricated proof.
            let base = LoopState::new(mii, start, total).unscheduled(LoopStatus::TimedOut);
            return self.degrade(l, machine, start, base);
        }

        // Rung 1: the exact solver on its slice of the budget.
        let exact_budget = budget_share(total, fb.exact_share);
        let exact = self.schedule_exact(l, machine, LoopState::new(mii, start, exact_budget));
        if exact.status.scheduled() || exact.status == LoopStatus::Infeasible {
            // A schedule, or a *proof* that none exists in the II span —
            // either way the ladder has nothing to add.
            return exact;
        }
        self.degrade(l, machine, start, exact)
    }

    /// Rungs 2 and 3 of the fallback ladder, entered with the exact
    /// attempt's (unscheduled) result in hand.
    fn degrade(
        &self,
        l: &Loop,
        machine: &Machine,
        start: Instant,
        mut exact: LoopResult,
    ) -> LoopResult {
        let trace = self.config.limits.trace.clone();
        let ims_cfg = ImsConfig {
            max_ii_span: self.config.max_ii_span,
            ..Default::default()
        };
        let ims = {
            let _span = trace.span(Phase::Ims);
            ims_schedule(l, machine, &ims_cfg)
        };
        let Some(ims) = ims else {
            // Not even the heuristic finds a schedule: report the exact
            // attempt's outcome unchanged.
            exact.stats.wall_time = start.elapsed();
            return exact;
        };

        // Rung 2: pin the IMS rows and let the ILP place stages optimally
        // for the configured objective, under the register cap, within the
        // stage slice of whatever budget remains.
        let total = self.config.limits.time_limit;
        let stage_budget = budget_share(total, self.config.fallback.stage_share);
        let remaining = total.saturating_sub(start.elapsed());
        let limits = SolveLimits {
            time_limit: stage_budget.min(remaining).max(Duration::from_millis(1)),
            first_solution_only: self.first_only(),
            stop: self.config.limits.stop.child(),
            ..self.config.limits.clone()
        };
        trace.emit(|| TraceEvent::Rung { rung: "stage-ilp" });
        let stage_result = {
            let _span = trace.span(Phase::StageIlp);
            optimal_stages(
                l,
                machine,
                &ims.schedule,
                self.config.objective,
                self.config.register_limit,
                limits,
            )
        };
        let found = match stage_result {
            Some((schedule, obj)) => Found {
                schedule,
                status: LoopStatus::FeasibleOnly,
                objective_value: (!self.first_only()).then(|| round_integral(obj)),
                provenance: Provenance::StageIlp,
            },
            None => {
                // Rung 3: greedy stage improvement of the raw IMS schedule.
                // Pure combinatorics — always lands, regardless of budget
                // state.
                trace.emit(|| TraceEvent::Rung { rung: "ims" });
                let _span = trace.span(Phase::Ims);
                Found {
                    schedule: stage_schedule(l, machine, &ims.schedule),
                    status: LoopStatus::FeasibleOnly,
                    objective_value: None,
                    provenance: Provenance::Ims,
                }
            }
        };
        self.degraded(l, machine, exact, found, start)
    }

    /// Packages a ladder-produced schedule on top of the exact attempt's
    /// result (keeping its solver statistics and recorded error). This is
    /// the one exit of every degraded rung.
    fn degraded(
        &self,
        l: &Loop,
        machine: &Machine,
        mut base: LoopResult,
        found: Found,
        start: Instant,
    ) -> LoopResult {
        base.stats.wall_time = start.elapsed();
        // IMS knows nothing of the register file: a schedule over the cap
        // is withheld, exactly as if the rung had found nothing.
        if let Some(cap) = self.config.register_limit {
            if found.schedule.max_live(l) > cap {
                return base;
            }
        }
        // Ladder schedules get the same exact-arithmetic certification as
        // exact ones (constraints only: the heuristics claim no optimality
        // and no objective). A refused schedule is withheld, not emitted.
        let trace = &self.config.limits.trace;
        let ii = found.schedule.ii();
        let claim = optimod_verify::Claim {
            graph: l,
            machine,
            ii,
            times: found.schedule.times(),
            claimed_optimal: false,
            claimed_objective: None,
            exact_objective: None,
            claimed_bound: None,
        };
        if let Err(cert) = optimod_verify::certify(&claim) {
            trace.emit(|| TraceEvent::Certified { ii, ok: false });
            base.status = LoopStatus::Failed;
            base.error = Some(ScheduleError::Certification(cert));
            return base;
        }
        trace.emit(|| TraceEvent::Certified { ii, ok: true });
        found.onto(base)
    }

    /// The exact (rung-1) scheduler: one decision per tentative `II`,
    /// escalating from the MII while the decision is "infeasible".
    fn schedule_exact(&self, l: &Loop, machine: &Machine, mut state: LoopState) -> LoopResult {
        self.config
            .limits
            .trace
            .emit(|| TraceEvent::Rung { rung: "exact" });
        // Saturating: `max_ii_span` is caller-controlled, and the sum only
        // bounds the escalation loop — clamping it to `u32::MAX` merely
        // means "escalate until another limit stops us".
        let end_ii = state.mii.value().saturating_add(self.config.max_ii_span);
        for ii in state.mii.value()..=end_ii {
            match self.decide(l, machine, ii, &mut state) {
                Decision::Scheduled(found) => {
                    let base = state.unscheduled(found.status);
                    return found.onto(base);
                }
                Decision::Infeasible => {}
                Decision::Limit => return state.unscheduled(LoopStatus::TimedOut),
                Decision::Failed(e) => {
                    state.error = Some(e);
                    return state.unscheduled(LoopStatus::Failed);
                }
            }
        }
        // Every II in [mii, end_ii] was refuted; explain the ceiling — the
        // largest II the caller allowed, hence the hardest one to blame on
        // a single constraint by accident. With a register cap the engine
        // (which has no MaxLive term) finds the ceiling satisfiable when
        // the cap is what refuted it, and attaches nothing.
        let explanation = if self.config.explain {
            crate::explain::explain_infeasibility(l, machine, end_ii, &self.config)
        } else {
            None
        };
        LoopResult {
            explanation,
            ..state.unscheduled(LoopStatus::Infeasible)
        }
    }

    /// Decides one tentative `II`: build (and presolve) its model, search
    /// it with the ILP — or the portfolio — and extract and certify a
    /// schedule when one is found. Effort and survivable errors accumulate
    /// in `state`.
    fn decide(&self, l: &Loop, machine: &Machine, ii: u32, state: &mut LoopState) -> Decision {
        let trace = &self.config.limits.trace;
        let elapsed = state.start.elapsed();
        if elapsed >= state.budget
            || state.stats.bb_nodes >= self.config.limits.node_limit
            || self.config.limits.stop.is_stopped()
        {
            return Decision::Limit;
        }
        trace.emit(|| TraceEvent::IiAttempt { ii });
        let Some((built, presolved)) = self.build(l, machine, ii) else {
            return Decision::Infeasible; // below RecMII (possible only via direct calls)
        };
        state.stats.absorb(&presolved);
        // Saturating: `elapsed` keeps advancing between the budget check
        // above and here, so a plain subtraction could underflow under a
        // racing clock.
        let limits = SolveLimits {
            time_limit: state.budget.saturating_sub(elapsed),
            node_limit: self
                .config
                .limits
                .node_limit
                .saturating_sub(state.stats.bb_nodes),
            first_solution_only: self.first_only(),
            ..self.config.limits.clone()
        };
        let out = {
            let _span = trace.span(Phase::Search);
            if self.portfolio_active() {
                // Cross-backend portfolio: SAT and the ILP decide the same
                // II, the differential oracle arbitrating.
                match self.portfolio_attempt(l, machine, &built, limits, state) {
                    PortfolioOutcome::Ilp(out) => *out,
                    PortfolioOutcome::Sat(schedule) => {
                        return Decision::Scheduled(Found::sat(schedule))
                    }
                    PortfolioOutcome::Disagreement(err) => return Decision::Failed(err),
                }
            } else {
                built.model.solve_with(limits)
            }
        };
        state.stats.absorb(&out.stats);
        if let Some(e) = &out.error {
            state.note(ScheduleError::Solver(e.clone()));
        }
        match out.status {
            SolveStatus::Optimal | SolveStatus::Feasible => {
                self.certified(l, machine, &built, &out, &mut state.stats)
            }
            SolveStatus::Infeasible => Decision::Infeasible,
            SolveStatus::LimitReached => Decision::Limit,
        }
    }

    /// Extracts and certifies the schedule of a successful solve. A
    /// solution that fails to decode, validate or certify is a typed
    /// failure instead of a panic or a wrong answer. Faults injected at
    /// extraction are counted into `stats`.
    fn certified(
        &self,
        l: &Loop,
        machine: &Machine,
        built: &BuiltModel,
        out: &SolveOutcome,
        stats: &mut SolveStats,
    ) -> Decision {
        let first_only = self.first_only();
        let ii = built.ii;
        let trace = &self.config.limits.trace;
        let schedule = {
            let _span = trace.span(Phase::Extraction);
            // Deterministic fault injection at schedule extraction. The
            // fire itself runs under `catch_unwind` so an injected panic
            // surfaces as the same typed failure a genuine extraction bug
            // would, never an unwind into the caller.
            let fired = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.config.limits.fault.fire(FaultSite::Extraction)
            }));
            // Only an injected panic unwinds out of `fire`; it is a fire
            // like the others, counted and traced before it fails the II.
            let action = fired.as_ref().map_or(Some(FaultAction::Panic), |a| *a);
            if let Some(action) = action {
                stats.faults_injected += 1;
                trace.emit(|| TraceEvent::FaultInjected {
                    worker: 0,
                    site: FaultSite::Extraction.name(),
                    action: action.name(),
                });
            }
            match fired {
                Ok(Some(FaultAction::Stall)) => {
                    return Decision::Failed(ScheduleError::MalformedSolution {
                        detail: "injected fault: stalled extraction".to_string(),
                    })
                }
                Ok(Some(FaultAction::SpuriousTimeout)) => return Decision::Limit,
                // A perturbation is consumed by the solver's incumbent
                // path, not here.
                Ok(_) => {}
                Err(payload) => {
                    return Decision::Failed(ScheduleError::Solver(SolveError::WorkerPanic(
                        panic_message(payload.as_ref()),
                    )))
                }
            }
            let extracted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                built.try_extract_schedule(out)
            }));
            match extracted {
                Ok(Ok(s)) => s,
                Ok(Err(e)) => return Decision::Failed(e),
                Err(payload) => {
                    return Decision::Failed(ScheduleError::Solver(SolveError::WorkerPanic(
                        panic_message(payload.as_ref()),
                    )))
                }
            }
        };
        // Exact-arithmetic certification of the schedule and every claim
        // the solver made about it. A refused certificate withholds the
        // schedule: a wrong answer is a failure, not a result.
        let claimed_optimal = out.status == SolveStatus::Optimal;
        let claimed_objective = (!first_only).then(|| round_integral(out.objective));
        let claim = optimod_verify::Claim {
            graph: l,
            machine,
            ii,
            times: schedule.times(),
            claimed_optimal,
            claimed_objective,
            exact_objective: self.exact_objective(l, &schedule),
            claimed_bound: (!first_only && out.best_bound.is_finite()).then_some(out.best_bound),
        };
        match optimod_verify::certify(&claim) {
            Ok(_) => trace.emit(|| TraceEvent::Certified { ii, ok: true }),
            Err(cert) => {
                trace.emit(|| TraceEvent::Certified { ii, ok: false });
                return Decision::Failed(ScheduleError::Certification(cert));
            }
        }
        Decision::Scheduled(Found {
            schedule,
            status: if claimed_optimal {
                LoopStatus::Optimal
            } else {
                LoopStatus::FeasibleOnly
            },
            objective_value: claimed_objective,
            provenance: Provenance::Exact,
        })
    }

    /// Whether the search has no secondary objective.
    fn first_only(&self) -> bool {
        self.config.objective == Objective::FirstFeasible
    }

    /// Whether the portfolio runs: asked for, and the question is one the
    /// CNF can answer — no secondary objective and no register cap.
    fn portfolio_active(&self) -> bool {
        self.config.portfolio && self.first_only() && self.config.register_limit.is_none()
    }

    /// A feasibility-only twin of `cfg` with tracing off, for the
    /// questions asked beside a search: [`Self::feasible_at`], the
    /// portfolio oracle's re-checks and the explanation engine's domains
    /// and repro minimizer.
    pub(crate) fn probe(cfg: &SchedulerConfig) -> OptimalScheduler {
        let mut config = cfg.clone();
        config.objective = Objective::FirstFeasible;
        config.limits.trace = Trace::disabled();
        OptimalScheduler::new(config)
    }

    /// The one model build: derives the [`FormulationConfig`] from the
    /// scheduler configuration, builds the model at `ii` and, when
    /// enabled, runs the analyzer's presolve over it. Returns the model
    /// with the presolve effort (all zero when presolve is off); `None`
    /// below the RecMII.
    pub(crate) fn build(
        &self,
        l: &Loop,
        machine: &Machine,
        ii: u32,
    ) -> Option<(BuiltModel, SolveStats)> {
        let trace = &self.config.limits.trace;
        let cfg = FormulationConfig {
            dep_style: self.config.dep_style,
            objective: self.config.objective,
            sched_len_slack: self.config.sched_len_slack,
            max_live_limit: self.config.register_limit,
        };
        let mut built = {
            let _span = trace.span(Phase::Formulation);
            build_model(l, machine, ii, &cfg)?
        };
        let mut effort = SolveStats::default();
        if self.config.presolve {
            let _span = trace.span(Phase::Presolve);
            let summary = optimod_analyze::presolve(
                &mut built.model,
                l,
                &IlpContext {
                    ii: built.ii,
                    num_stages: built.num_stages,
                    a: &built.a,
                    k: &built.k,
                },
                &self.config.presolve_options,
            );
            effort = summary.stats();
            let (rows_eliminated, binaries_fixed, bounds_tightened, infeasible) = (
                summary.rows_eliminated,
                summary.binaries_fixed,
                summary.bounds_tightened,
                summary.infeasible,
            );
            trace.emit(|| TraceEvent::Presolve {
                rows_eliminated,
                binaries_fixed,
                bounds_tightened,
                infeasible,
            });
        }
        Some((built, effort))
    }

    /// Ground-truth integer value of the configured secondary objective on
    /// a concrete schedule — the independent side of a certifier
    /// [`Claim`](optimod_verify::Claim), measured directly on the schedule
    /// (lifetimes, MRT rows), never read back from the ILP. `None` when no
    /// objective is configured. Public so external auditors (the CLI's
    /// `--certify`, the chaos harness) can rebuild the same claim the
    /// scheduler certifies internally.
    pub fn exact_objective(&self, l: &Loop, schedule: &Schedule) -> Option<i64> {
        match self.config.objective {
            Objective::FirstFeasible => None,
            Objective::MinMaxLive => Some(schedule.max_live(l) as i64),
            Objective::MinBuffers => Some(schedule.buffers(l) as i64),
            Objective::MinCumLifetime => {
                let total = schedule.cumulative_lifetime(l);
                Some(match self.config.dep_style {
                    DepStyle::Structured => total,
                    // The traditional form measures time(last use) −
                    // time(def): one reserved cycle per register less than
                    // the lifetime (see `install_lifetime_traditional`).
                    DepStyle::Traditional => total - l.vregs().len() as i64,
                })
            }
            Objective::MinSchedLength => schedule.times().iter().max().copied(),
        }
    }

    /// Proves or refutes feasibility at one exact `II` (used to grade
    /// heuristic schedulers: "can II be decreased?"), through the same
    /// per-`II` decision the escalation loop takes.
    ///
    /// Returns `Some(true)` if a certified schedule exists at `ii`,
    /// `Some(false)` if proven infeasible, `None` if the budget ran out
    /// undecided or the decision failed abnormally.
    pub fn feasible_at(&self, l: &Loop, machine: &Machine, ii: u32) -> Option<bool> {
        let mut state = LoopState::new(
            compute_mii(l, machine),
            Instant::now(),
            self.config.limits.time_limit,
        );
        match Self::probe(&self.config).decide(l, machine, ii, &mut state) {
            Decision::Scheduled(_) => Some(true),
            Decision::Infeasible => Some(false),
            Decision::Limit | Decision::Failed(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimod_ddg::kernels;
    use optimod_machine::{cydra_like, example_3fu};

    #[test]
    fn noobj_achieves_mii_on_figure1() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let s = OptimalScheduler::new(SchedulerConfig::default());
        let r = s.schedule(&l, &m);
        assert_eq!(r.status, LoopStatus::Optimal);
        assert_eq!(r.ii, Some(2));
        let sched = r.schedule.unwrap();
        assert_eq!(sched.validate(&l, &m), None);
    }

    #[test]
    fn minreg_matches_paper_figure1() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let s = OptimalScheduler::new(SchedulerConfig::new(
            DepStyle::Structured,
            Objective::MinMaxLive,
        ));
        let r = s.schedule(&l, &m);
        assert_eq!(r.status, LoopStatus::Optimal);
        assert_eq!(r.ii, Some(2));
        let sched = r.schedule.unwrap();
        // The paper's Figure 1 shows a minimum-register schedule with
        // MaxLive 7 at II 2.
        assert_eq!(sched.max_live(&l), 7);
        assert_eq!(r.objective_value, Some(7.0));
    }

    #[test]
    fn traditional_and_structured_agree_on_minreg() {
        let m = example_3fu();
        for l in [
            kernels::figure1(&m),
            kernels::saxpy(&m),
            kernels::dot_product(&m),
            kernels::lfk11_first_sum(&m),
        ] {
            let mut results = Vec::new();
            for style in [DepStyle::Traditional, DepStyle::Structured] {
                let s = OptimalScheduler::new(SchedulerConfig::new(style, Objective::MinMaxLive));
                let r = s.schedule(&l, &m);
                assert_eq!(r.status, LoopStatus::Optimal, "{} {style:?}", l.name());
                results.push((r.ii, r.objective_value));
            }
            assert_eq!(results[0], results[1], "{}", l.name());
        }
    }

    #[test]
    fn recurrence_bound_respected() {
        let m = example_3fu();
        let l = kernels::lfk5_tridiag(&m);
        let s = OptimalScheduler::new(SchedulerConfig::default());
        let r = s.schedule(&l, &m);
        assert_eq!(r.ii, Some(5)); // RecMII = 5 and it is achievable
    }

    #[test]
    fn feasibility_probe() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let s = OptimalScheduler::new(SchedulerConfig::default());
        assert_eq!(s.feasible_at(&l, &m, 1), Some(false));
        assert_eq!(s.feasible_at(&l, &m, 2), Some(true));
        assert_eq!(s.feasible_at(&l, &m, 5), Some(true));
    }

    #[test]
    fn min_sched_length_objective() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let s = OptimalScheduler::new(SchedulerConfig::new(
            DepStyle::Structured,
            Objective::MinSchedLength,
        ));
        let r = s.schedule(&l, &m);
        assert_eq!(r.status, LoopStatus::Optimal);
        let sched = r.schedule.unwrap();
        // Critical path: ld(1) -> mult(4) -> sub(1) -> st: length 7. The
        // solver minimizes the last issue cycle, and with k >= 0 the first
        // issue lands at cycle >= 0, so the makespan equals length - 1.
        assert_eq!(r.objective_value, Some(6.0));
        assert_eq!(sched.length(), 7);
        assert_eq!(sched.validate(&l, &m), None);
    }

    #[test]
    fn stopped_scheduler_reports_timeout() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let cfg = SchedulerConfig::default();
        cfg.limits.stop.stop();
        let r = OptimalScheduler::new(cfg).schedule(&l, &m);
        assert_eq!(r.status, LoopStatus::TimedOut);
    }

    #[test]
    fn portfolio_matches_ilp_only_on_kernels() {
        let m = example_3fu();
        for l in [
            kernels::figure1(&m),
            kernels::lfk5_tridiag(&m),
            kernels::dot_product(&m),
        ] {
            let baseline = OptimalScheduler::new(SchedulerConfig::default()).schedule(&l, &m);
            let mut cfg = SchedulerConfig {
                portfolio: true,
                ..Default::default()
            };
            cfg.limits.threads = 1;
            let r = OptimalScheduler::new(cfg).schedule(&l, &m);
            assert_eq!(r.status, baseline.status, "{}", l.name());
            assert_eq!(r.ii, baseline.ii, "{}", l.name());
            assert_eq!(r.schedule.unwrap().validate(&l, &m), None, "{}", l.name());
            let p = r.provenance.unwrap();
            assert!(
                matches!(p, Provenance::Exact | Provenance::SatExact),
                "{}: {p}",
                l.name()
            );
            assert!(!p.degraded(), "{}", l.name());
        }
    }

    #[test]
    fn serial_portfolio_lets_sat_win_and_counts_its_effort() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let mut cfg = SchedulerConfig {
            portfolio: true,
            ..Default::default()
        };
        cfg.limits.threads = 1;
        let r = OptimalScheduler::new(cfg).schedule(&l, &m);
        // The portfolio runs SAT first; figure1 at II 2 is easy, so the SAT
        // backend settles the cell before the ILP is even consulted.
        assert_eq!(r.status, LoopStatus::Optimal);
        assert_eq!(r.ii, Some(2));
        assert_eq!(r.provenance, Some(Provenance::SatExact));
        assert!(r.stats.sat_decisions > 0 || r.stats.sat_propagations > 0);
        assert_eq!(r.error, None);
    }

    #[test]
    fn sabotaged_encoder_is_caught_as_a_minimized_disagreement() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let mut cfg = SchedulerConfig {
            portfolio: true,
            // Forbidding op 0 every slot makes the CNF unsatisfiable at
            // every II while the ILP schedules normally: a certified
            // contradiction the oracle must catch.
            sat_encode: optimod_sat::EncodeOptions {
                forbid_op: Some(0),
                ..Default::default()
            },
            ..Default::default()
        };
        cfg.limits.threads = 1;
        let r = OptimalScheduler::new(cfg).schedule(&l, &m);
        assert_eq!(r.status, LoopStatus::Failed);
        assert!(r.schedule.is_none());
        let Some(ScheduleError::BackendDisagreement { ii, repro, .. }) = r.error else {
            panic!("expected BackendDisagreement, got {:?}", r.error);
        };
        assert_eq!(ii, 2);
        // The repro must replay through the textual loop format.
        let parsed = optimod_ddg::textfmt::parse(&repro).expect("repro parses");
        assert_eq!(parsed.machine.name(), m.name());
        assert_eq!(parsed.l.ops().len(), l.ops().len());
        // Greedy minimization dropped at least one dependence (figure1's
        // feasibility at II 2 does not hinge on every edge).
        assert!(parsed.l.edges().len() < l.edges().len());
    }

    #[test]
    fn parallel_portfolio_merges_both_backends_counters() {
        let m = example_3fu();
        let l = kernels::lfk5_tridiag(&m);
        let baseline = OptimalScheduler::new(SchedulerConfig::default()).schedule(&l, &m);
        let mut cfg = SchedulerConfig {
            portfolio: true,
            ..Default::default()
        };
        cfg.limits.threads = 2;
        let r = OptimalScheduler::new(cfg).schedule(&l, &m);
        assert_eq!(r.status, baseline.status);
        assert_eq!(r.ii, baseline.ii);
        assert_eq!(r.schedule.unwrap().validate(&l, &m), None);
        // SAT decides first at every thread count, so the two-worker run
        // settles lfk5 exactly as the serial one does, and SAT's counters
        // were merged through the audited absorb path.
        assert_eq!(r.provenance, Some(Provenance::SatExact));
        assert!(r.stats.sat_propagations > 0 || r.stats.sat_decisions > 0);
    }

    #[test]
    fn portfolio_survives_a_sat_panic_and_counts_the_recovery() {
        use optimod_ilp::FaultPlan;
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let mut cfg = SchedulerConfig {
            portfolio: true,
            ..Default::default()
        };
        cfg.limits.threads = 1;
        cfg.limits.fault = FaultPlan::single(FaultSite::SatPropagate, FaultAction::Panic, 1);
        let r = OptimalScheduler::new(cfg).schedule(&l, &m);
        // The SAT backend dies on its first propagation; the portfolio
        // recovers, the ILP schedules the loop, and the panic is recorded.
        assert_eq!(r.status, LoopStatus::Optimal);
        assert_eq!(r.ii, Some(2));
        assert_eq!(r.provenance, Some(Provenance::Exact));
        assert!(r.stats.panics_recovered >= 1);
        assert!(matches!(r.error, Some(ScheduleError::Solver(_))));
    }

    #[test]
    fn portfolio_is_inert_under_a_secondary_objective() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let baseline = OptimalScheduler::new(SchedulerConfig::new(
            DepStyle::Structured,
            Objective::MinMaxLive,
        ))
        .schedule(&l, &m);
        let cfg = SchedulerConfig {
            portfolio: true,
            ..SchedulerConfig::new(DepStyle::Structured, Objective::MinMaxLive)
        };
        let r = OptimalScheduler::new(cfg).schedule(&l, &m);
        // MinReg falls back to ILP-only: same optimum, exact provenance,
        // and no SAT effort spent.
        assert_eq!(r.status, baseline.status);
        assert_eq!(r.ii, baseline.ii);
        assert_eq!(r.objective_value, baseline.objective_value);
        assert_eq!(r.provenance, Some(Provenance::Exact));
        assert_eq!(r.stats.sat_decisions, 0);
        assert_eq!(r.stats.sat_propagations, 0);
    }

    #[test]
    fn cydra_divide_recurrence_schedules() {
        let m = cydra_like();
        let l = kernels::divide_recurrence(&m);
        let s = OptimalScheduler::new(SchedulerConfig::default());
        let r = s.schedule(&l, &m);
        assert!(r.status.scheduled());
        // RecMII is 9 via the div->div self-loop (latency 9, distance 1);
        // the unpipelined divider alone would force ResMII 6.
        assert_eq!(r.mii.rec_mii, 9);
        assert!(r.ii.unwrap() >= 9);
        assert_eq!(r.schedule.unwrap().validate(&l, &m), None);
    }
}
