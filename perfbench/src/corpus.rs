//! The workloads: each item is one `OptimalScheduler::schedule` call,
//! timed end to end, and the traced replay drives the same II ladder
//! through each layer's public functions.

use std::time::{Duration, Instant};

use optimod::{
    build_model, certify, compute_mii, Claim, FormulationConfig, LoopResult, LoopStatus, Objective,
    OptimalScheduler, SchedulerConfig,
};
use optimod_analyze::IlpContext;
use optimod_ddg::{Loop, CORPUS_SEED};
use optimod_ilp::{Simplex, SimplexOptions, SolveLimits, SolveStatus, Solver};
use optimod_machine::{cydra_like, Machine};

use crate::host::Probe;
use crate::reference::{contradiction, unscheduled_contradiction, Reference};
use crate::select::{corpus, select, Workload};
use crate::spans::Recorder;

/// Branch-and-bound node cap per item, shared by every workload.
/// Effort is capped by nodes, not time, so `optimal_frac` repeats exactly.
pub const NODE_CAP: u64 = 500;

/// Wall-clock safety net per item, far above the slowest item; hitting it
/// counts as a failure.
pub const SAFETY_NET: Duration = Duration::from_secs(60);

/// A workload's inputs: the machine and the selected loops.
pub struct Inputs {
    /// The target machine.
    pub machine: Machine,
    /// The loops the size rule kept, in corpus order.
    pub loops: Vec<Loop>,
}

/// Builds the machine, generates the corpus and selects the workload's
/// loop set: the set-up a run times. The population is always the one
/// `CORPUS_SEED` gives, so that `--seed` moves only the item order.
pub fn inputs(w: Workload) -> Inputs {
    let machine = cydra_like();
    let loops = select(corpus(&machine, CORPUS_SEED), &machine, w.size_limit());
    Inputs { machine, loops }
}

/// The scheduler a workload runs: one solver thread, the node cap,
/// and the safety net as its time limit.
pub fn scheduler(w: Workload) -> OptimalScheduler {
    let (style, objective) = w.solver();
    let mut cfg = SchedulerConfig::new(style, objective);
    cfg.limits.threads = 1;
    cfg.limits.node_limit = NODE_CAP;
    cfg.limits.time_limit = SAFETY_NET;
    OptimalScheduler::new(cfg)
}

/// One timed item.
pub struct Item {
    /// Index into [`Inputs::loops`].
    pub index: usize,
    /// What `schedule` returned.
    pub result: LoopResult,
    /// Its wall time.
    pub wall: Duration,
}

/// Runs one pass over the loops in `order`, timing each call and
/// sampling the host's speed into `probe` between calls. Checking happens
/// afterwards, outside the timed region.
pub fn timed_pass(
    sched: &OptimalScheduler,
    inputs: &Inputs,
    order: &[usize],
    probe: &mut Probe,
) -> Vec<Item> {
    order
        .iter()
        .map(|&index| {
            probe.tick();
            let start = Instant::now();
            let result = sched.schedule(&inputs.loops[index], &inputs.machine);
            let wall = start.elapsed();
            Item {
                index,
                result,
                wall,
            }
        })
        .collect()
}

/// Why an item failed, if it did: an abnormal status, the safety net, a
/// schedule the certifier refuses, or a contradiction of the reference.
pub fn failure(
    sched: &OptimalScheduler,
    inputs: &Inputs,
    reference: &Reference,
    item: &Item,
) -> Option<String> {
    let l = &inputs.loops[item.index];
    let r = &item.result;
    if matches!(r.status, LoopStatus::Failed | LoopStatus::Invalid) {
        return Some(format!(
            "{}: status {:?} ({:?})",
            l.name(),
            r.status,
            r.error
        ));
    }
    if item.wall >= SAFETY_NET {
        return Some(format!("{}: hit the {SAFETY_NET:?} safety net", l.name()));
    }
    let Some(schedule) = &r.schedule else {
        // Out of nodes is a limit, not a failure; a claim of infeasibility
        // on a loop the reference schedules is a failure.
        let e = reference.get(l)?;
        return unscheduled_contradiction(e, r.status)
            .map(|why| format!("{}: contradicts the reference: {why}", l.name()));
    };
    let ii = schedule.ii();
    let optimal = r.status == LoopStatus::Optimal;
    let exact_objective = sched.exact_objective(l, schedule);
    let claim = Claim {
        graph: l,
        machine: &inputs.machine,
        ii,
        times: schedule.times(),
        claimed_optimal: optimal,
        claimed_objective: r.objective_value,
        exact_objective,
        claimed_bound: None,
    };
    if let Err(e) = certify(&claim) {
        return Some(format!("{}: certifier refused: {e}", l.name()));
    }
    let e = reference.get(l)?;
    contradiction(e, sched.config().objective, ii, exact_objective, optimal)
        .map(|why| format!("{}: contradicts the reference: {why}", l.name()))
}

/// Totals over a traced replay, one field per per-layer counter.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    /// Items replayed.
    pub items: u64,
    /// II attempts (models built).
    pub ii_attempts: u64,
    /// Rows of every model built, before presolve.
    pub rows: u64,
    /// Nonzero coefficients of every model built, before presolve.
    pub nonzeros: u64,
    /// Binaries presolve fixed.
    pub binaries_fixed: u64,
    /// Rows presolve eliminated.
    pub rows_eliminated: u64,
    /// Simplex iterations of the extra cold root solves.
    pub root_iterations: u64,
    /// Refactorizations of the extra cold root solves.
    pub root_refactors: u64,
    /// Branch-and-bound nodes.
    pub bb_nodes: u64,
    /// LP relaxations the branch and bound solved.
    pub lp_solves: u64,
    /// Simplex iterations inside the branch and bound.
    pub bb_iterations: u64,
    /// Re-solves restarted from a parent basis.
    pub warm_starts: u64,
    /// Re-solves that tried a warm start and fell back to a cold one.
    pub warm_abandoned: u64,
    /// FTRAN time inside the branch and bound.
    pub ftran: Duration,
    /// BTRAN time inside the branch and bound.
    pub btran: Duration,
    /// Items whose node budget ran out.
    pub node_capped: u64,
    /// Formulation, presolve and search time spent on IIs proven infeasible.
    pub infeasible_ii: Duration,
    /// Wall time of the extra cold root solves.
    pub root_time: Duration,
}

/// What the replay of one item settled on, to compare with the end-to-end
/// call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settled {
    /// Status the ladder ended with.
    pub status: LoopStatus,
    /// The II, when scheduled.
    pub ii: Option<u32>,
    /// The exact objective, when scheduled with one.
    pub objective: Option<i64>,
    /// Branch-and-bound nodes over every II.
    pub nodes: u64,
    /// Simplex iterations over every II.
    pub iterations: u64,
}

impl Settled {
    /// The same fields of an end-to-end result.
    pub fn of(sched: &OptimalScheduler, l: &Loop, r: &LoopResult) -> Settled {
        Settled {
            status: r.status,
            ii: r.ii,
            objective: r
                .schedule
                .as_ref()
                .and_then(|s| sched.exact_objective(l, s)),
            nodes: r.stats.bb_nodes,
            iterations: r.stats.simplex_iterations,
        }
    }
}

/// Replays one `schedule` call layer by layer under spans: `compute_mii`,
/// then per II `build_model`, `presolve`, one extra cold root
/// `Simplex::solve` (timed on its own, outside the ladder's effort
/// counts), `Solver::solve` with the remaining node budget,
/// `try_extract_schedule` and `certify`. Mirrors the scheduler's own
/// ladder with fallback, speculation and the portfolio off.
pub fn replay(
    sched: &OptimalScheduler,
    l: &Loop,
    machine: &Machine,
    item: u32,
    rec: &mut Recorder,
    counts: &mut LayerCounts,
) -> Settled {
    let config = sched.config();
    let start = Instant::now();
    let root = rec.open("item", item);
    counts.items += 1;
    let mii = rec.span("mii", item, || compute_mii(l, machine));
    let cfg = FormulationConfig {
        dep_style: config.dep_style,
        objective: config.objective,
        sched_len_slack: config.sched_len_slack,
        max_live_limit: config.register_limit,
    };
    let first_only = config.objective == Objective::FirstFeasible;
    let node_limit = config.limits.node_limit;
    let mut settled = Settled {
        status: LoopStatus::Infeasible,
        ii: None,
        objective: None,
        nodes: 0,
        iterations: 0,
    };
    let end_ii = mii.value().saturating_add(config.max_ii_span);
    for ii in mii.value()..=end_ii {
        if settled.nodes >= node_limit {
            settled.status = LoopStatus::TimedOut;
            break;
        }
        counts.ii_attempts += 1;
        let attempt = Instant::now();
        let built = rec.span("formulation", item, || build_model(l, machine, ii, &cfg));
        let Some(mut built) = built else { continue };
        counts.rows += built.model.num_constraints() as u64;
        counts.nonzeros += built
            .model
            .rows()
            .map(|r| r.coeffs.len() as u64)
            .sum::<u64>();
        if config.presolve {
            let summary = rec.span("presolve", item, || {
                let ctx = IlpContext {
                    ii: built.ii,
                    num_stages: built.num_stages,
                    a: &built.a,
                    k: &built.k,
                };
                optimod_analyze::presolve(&mut built.model, l, &ctx, &config.presolve_options)
            });
            counts.binaries_fixed += summary.binaries_fixed;
            counts.rows_eliminated += summary.rows_eliminated;
        }

        let root_start = Instant::now();
        let lp = rec.span("root_lp", item, || {
            let model = &built.model;
            let lb: Vec<f64> = model.var_ids().map(|v| model.lb(v)).collect();
            let ub: Vec<f64> = model.var_ids().map(|v| model.ub(v)).collect();
            Simplex::new(model).solve(&lb, &ub, &SimplexOptions::default())
        });
        let root_time = root_start.elapsed();
        counts.root_time += root_time;
        counts.root_iterations += lp.iterations;
        counts.root_refactors += lp.refactors;

        let limits = SolveLimits {
            time_limit: config.limits.time_limit.saturating_sub(start.elapsed()),
            node_limit: node_limit.saturating_sub(settled.nodes),
            first_solution_only: first_only,
            threads: 1,
            ..SolveLimits::default()
        };
        let out = rec.span("bb", item, || Solver::new(limits).solve(&built.model));
        let s = &out.stats;
        settled.nodes += s.bb_nodes;
        settled.iterations += s.simplex_iterations;
        counts.bb_nodes += s.bb_nodes;
        counts.lp_solves += s.lp_solves;
        counts.bb_iterations += s.simplex_iterations;
        counts.warm_starts += s.warm_starts;
        counts.warm_abandoned += s.warm_abandoned;
        counts.ftran += s.ftran_time;
        counts.btran += s.btran_time;
        match out.status {
            SolveStatus::Optimal | SolveStatus::Feasible => {
                let schedule = rec.span("extract", item, || built.try_extract_schedule(&out));
                let Ok(schedule) = schedule else {
                    settled.status = LoopStatus::Failed;
                    break;
                };
                let optimal = out.status == SolveStatus::Optimal;
                let exact_objective = sched.exact_objective(l, &schedule);
                let certified = rec.span("certify", item, || {
                    certify(&Claim {
                        graph: l,
                        machine,
                        ii,
                        times: schedule.times(),
                        claimed_optimal: optimal,
                        claimed_objective: (!first_only)
                            .then(|| out.objective.round() as i64 as f64),
                        exact_objective,
                        claimed_bound: (!first_only && out.best_bound.is_finite())
                            .then_some(out.best_bound),
                    })
                });
                settled.status = match (certified.is_ok(), optimal) {
                    (false, _) => LoopStatus::Failed,
                    (true, true) => LoopStatus::Optimal,
                    (true, false) => LoopStatus::FeasibleOnly,
                };
                settled.ii = certified.is_ok().then_some(ii);
                settled.objective = if certified.is_ok() {
                    exact_objective
                } else {
                    None
                };
                break;
            }
            SolveStatus::Infeasible => {
                counts.infeasible_ii += attempt.elapsed().saturating_sub(root_time);
            }
            SolveStatus::LimitReached => {
                settled.status = LoopStatus::TimedOut;
                break;
            }
        }
    }
    if settled.nodes >= node_limit {
        counts.node_capped += 1;
    }
    rec.close(root);
    settled
}
