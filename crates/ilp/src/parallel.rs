//! Work-stealing parallel branch-and-bound (selected when
//! [`SolveLimits`](crate::SolveLimits) resolves to more than one thread).
//!
//! Architecture:
//!
//! * The root relaxation is solved on the calling thread; if it branches,
//!   its two children seed the node pool and `threads` workers are spawned
//!   with [`std::thread::scope`].
//! * Each worker owns a private [`Simplex`] workspace (the dense basis
//!   inverse is far too hot to share) and a deque of open nodes. Workers
//!   pop from the *back* of their own deque (depth-first, keeping the
//!   open-node memory footprint low) and steal from the *front* of a victim's
//!   deque (breadth-first steals hand out the shallowest — largest —
//!   subtrees).
//! * An open node is a path of bound tightenings (`Arc` chain back to the
//!   root), not a bound vector: pushing a child is O(1) and memory is
//!   shared between siblings. Workers materialize the bound arrays by
//!   replaying the path onto the root bounds; branch tightenings are
//!   monotone (`lb` only rises, `ub` only falls), so `max`/`min` folding in
//!   any order reproduces the exact node bounds.
//! * The incumbent objective is shared as an [`AtomicU64`] holding `f64`
//!   bits (monotonically decreasing in minimize sense, updated under the
//!   incumbent mutex, read lock-free on the pruning fast path).
//! * Termination: `pending` counts nodes that are queued or in flight;
//!   a worker that finds every deque empty exits when `pending == 0`.
//!   Cancellation (budget exhausted, first solution found in
//!   `first_solution_only` mode, or a caller-side stop) is broadcast
//!   through a [`StopFlag`] that every worker and every LP pivot loop
//!   polls.
//!
//! Node counts and which optimal *solution vector* is found may vary
//! between runs (pruning races); solve status and optimal objective value
//! do not.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use optimod_trace::{NodeOutcome, Phase, TraceEvent};

use crate::branch_bound::{
    choose_branch, down_child_first, lp_class, tighten_integral_bound, SolveLimits,
};
use crate::fault::{FaultAction, FaultSite};
use crate::model::{Model, Sense, VarId};
use crate::simplex::{Basis, LpStatus, Simplex, SimplexOptions};
use crate::solution::{panic_message, SolveError, SolveOutcome, SolveStats, SolveStatus};
use crate::stop::StopFlag;
use crate::tol::PRUNE_TOL;

/// One open node: a single bound tightening plus the chain to the root.
struct PathStep {
    j: usize,
    /// `true` tightens `lb[j]` up to `value`; `false` tightens `ub[j]`
    /// down to `value`.
    is_lb: bool,
    value: f64,
    parent: Option<Arc<PathStep>>,
    /// The parent node's optimal basis, for a warm-started re-solve.
    /// Shared (`Arc`) between siblings and cheap to hand across
    /// work-stealing workers — the snapshot holds no factorization state.
    /// The worker that branched can roll back to its own factor; any other
    /// worker's `Simplex` refuses the mark and refactorizes into its own
    /// private workspace.
    warm: Option<Arc<Basis>>,
}

/// State shared by all workers of one solve.
struct Shared<'a> {
    model: &'a Model,
    limits: &'a SolveLimits,
    start: Instant,
    minimize: bool,
    integral_objective: bool,
    int_vars: &'a [VarId],
    root_lb: &'a [f64],
    root_ub: &'a [f64],
    /// External cutoff in minimize sense (+inf when unset).
    cutoff_min: f64,
    /// Per-worker deques; worker `i` owns `queues[i]`.
    queues: Vec<Mutex<VecDeque<Arc<PathStep>>>>,
    /// Nodes queued or currently being expanded.
    pending: AtomicUsize,
    /// Incumbent objective (minimize sense) as `f64` bits; read lock-free
    /// for pruning, written only under the `incumbent` lock.
    incumbent_bits: AtomicU64,
    incumbent: Mutex<Option<(f64, Vec<f64>)>>,
    /// Nodes opened by all workers: the node budget and the reported count.
    bb_nodes: AtomicU64,
    /// Running iteration total for the iteration budget. The reported
    /// counters are each worker's own [`SolveStats`], merged at the end.
    simplex_iterations: AtomicU64,
    limit_hit: AtomicBool,
    /// Set when `first_solution_only` found its solution, so the resulting
    /// cooperative LP interruptions are not misread as a budget limit.
    found_first: AtomicBool,
    /// First abnormal condition observed by any worker (stalled LP, worker
    /// panic); later ones are dropped.
    error: Mutex<Option<SolveError>>,
    /// Search-internal stop (child of the caller's flag).
    stop: StopFlag,
}

impl Shared<'_> {
    fn to_min(&self, model_obj: f64) -> f64 {
        if self.minimize {
            model_obj
        } else {
            -model_obj
        }
    }

    /// Current pruning threshold in minimize sense.
    fn threshold(&self) -> f64 {
        f64::from_bits(self.incumbent_bits.load(Ordering::Acquire)).min(self.cutoff_min)
    }

    fn hit_limit(&self) {
        self.limit_hit.store(true, Ordering::Release);
        self.stop.stop();
    }

    /// Records the first abnormal condition of the solve.
    fn record_error(&self, err: SolveError) {
        let mut guard = self.error.lock().expect("error lock poisoned");
        guard.get_or_insert(err);
    }

    /// Records an integral solution; returns whether it became incumbent.
    fn offer_incumbent(&self, obj_min: f64, values: Vec<f64>) -> bool {
        let mut guard = self.incumbent.lock().expect("incumbent lock poisoned");
        let current = guard.as_ref().map_or(f64::INFINITY, |(o, _)| *o);
        if obj_min < current.min(self.cutoff_min) - PRUNE_TOL {
            self.incumbent_bits
                .store(obj_min.to_bits(), Ordering::Release);
            *guard = Some((obj_min, values));
            true
        } else {
            false
        }
    }

    /// Budget check at node entry (mirrors the serial `out_of_budget`).
    fn out_of_budget(&self) -> bool {
        if self.start.elapsed() >= self.limits.time_limit
            || self.bb_nodes.load(Ordering::Relaxed) >= self.limits.node_limit
            || self.simplex_iterations.load(Ordering::Relaxed) >= self.limits.iteration_limit
        {
            self.hit_limit();
            return true;
        }
        false
    }
}

/// Pops work for `wid`: own deque from the back, else steal from the front
/// of the first non-empty victim.
fn pop_work(shared: &Shared, wid: usize) -> Option<Arc<PathStep>> {
    if let Some(node) = shared.queues[wid]
        .lock()
        .expect("queue lock poisoned")
        .pop_back()
    {
        return Some(node);
    }
    let n = shared.queues.len();
    for d in 1..n {
        let victim = &shared.queues[(wid + d) % n];
        if let Some(node) = victim.lock().expect("queue lock poisoned").pop_front() {
            return Some(node);
        }
    }
    None
}

fn worker(shared: &Shared, opts: &SimplexOptions, wid: usize, stats: &mut SolveStats) {
    // Deterministic fault injection at worker startup. A stall or spurious
    // timeout wedges this worker before it processes anything; the limit
    // broadcast stops the search cleanly instead of letting a drained pool
    // masquerade as a proof of infeasibility. A panic unwinds from inside
    // `fire` and is recovered by the spawn wrapper.
    if let Some(action) = shared.limits.fault.fire(FaultSite::WorkerStart) {
        shared.limits.trace.emit(|| TraceEvent::FaultInjected {
            worker: wid as u32,
            site: FaultSite::WorkerStart.name(),
            action: action.name(),
        });
        match action {
            FaultAction::Stall | FaultAction::SpuriousTimeout => {
                shared.hit_limit();
                return;
            }
            FaultAction::Panic | FaultAction::PerturbIncumbent => {}
        }
    }
    let mut simplex = Simplex::new(shared.model);
    let mut lb = vec![0.0; shared.root_lb.len()];
    let mut ub = vec![0.0; shared.root_ub.len()];
    let mut idle_rounds = 0u32;
    loop {
        if shared.stop.is_stopped() {
            return;
        }
        let Some(node) = pop_work(shared, wid) else {
            if shared.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            // Other workers still hold nodes that may spawn children; back
            // off progressively so a 2-thread solve on one core does not
            // burn half the machine spinning.
            idle_rounds += 1;
            if idle_rounds > 32 {
                std::thread::sleep(std::time::Duration::from_micros(100));
            } else {
                std::thread::yield_now();
            }
            continue;
        };
        idle_rounds = 0;
        // A panic inside node expansion (numerical debug_assert, index bug
        // on a pathological model) must not abort the process: record it as
        // a typed error, drop the node, and let the solve wind down with
        // whatever incumbent exists.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            expand_node(
                shared,
                &mut simplex,
                opts,
                &node,
                &mut lb,
                &mut ub,
                wid,
                stats,
            );
        }));
        shared.pending.fetch_sub(1, Ordering::AcqRel);
        if let Err(payload) = unwound {
            // The node's NodeOpen was already emitted (it directly follows
            // the budget check, which cannot panic), so close it here to
            // keep every worker's open/close stream balanced.
            stats.panics_recovered += 1;
            shared.limits.trace.emit(|| TraceEvent::NodeClose {
                worker: wid as u32,
                outcome: NodeOutcome::Panicked,
            });
            shared
                .limits
                .trace
                .emit(|| TraceEvent::PanicRecovered { worker: wid as u32 });
            shared.record_error(SolveError::WorkerPanic(panic_message(payload.as_ref())));
            shared.hit_limit();
            return;
        }
    }
}

/// Expands one open node: materialize bounds, solve the relaxation, prune /
/// record / enqueue children. The node's counters go to the worker's own
/// `stats`.
#[allow(clippy::too_many_arguments)] // the worker's whole per-node context
fn expand_node(
    shared: &Shared,
    simplex: &mut Simplex,
    opts: &SimplexOptions,
    node: &Arc<PathStep>,
    lb: &mut [f64],
    ub: &mut [f64],
    wid: usize,
    stats: &mut SolveStats,
) {
    if shared.out_of_budget() {
        return;
    }
    shared.bb_nodes.fetch_add(1, Ordering::Relaxed);
    let trace = &shared.limits.trace;
    // NodeOpen directly follows the node-count increment so that a panic
    // anywhere in the expansion always has an open to match its
    // `NodeClose(Panicked)`, and so that every open is a counted node.
    if trace.is_active() {
        let mut depth = 0u32;
        let mut step: Option<&Arc<PathStep>> = Some(node);
        while let Some(s) = step {
            depth += 1;
            step = s.parent.as_ref();
        }
        trace.emit(|| TraceEvent::NodeOpen {
            worker: wid as u32,
            depth,
        });
    }
    let close = |outcome: NodeOutcome| {
        trace.emit(|| TraceEvent::NodeClose {
            worker: wid as u32,
            outcome,
        });
    };

    // Deterministic fault injection at node expansion. Placed after NodeOpen
    // so an injected panic (raised inside `fire`) is matched by the worker's
    // `NodeClose(Panicked)`; stall and spurious-timeout actions close the
    // node themselves before wedging the search.
    if let Some(action) = shared.limits.fault.fire(FaultSite::NodeExpand) {
        trace.emit(|| TraceEvent::FaultInjected {
            worker: wid as u32,
            site: FaultSite::NodeExpand.name(),
            action: action.name(),
        });
        match action {
            FaultAction::Stall => {
                shared.record_error(SolveError::NumericallyUnstable {
                    iterations: shared.simplex_iterations.load(Ordering::Relaxed),
                });
                shared.hit_limit();
                close(NodeOutcome::Limit);
                return;
            }
            FaultAction::SpuriousTimeout => {
                shared.hit_limit();
                close(NodeOutcome::Limit);
                return;
            }
            FaultAction::Panic | FaultAction::PerturbIncumbent => {}
        }
    }

    // Replay the path's tightenings onto the root bounds.
    lb.copy_from_slice(shared.root_lb);
    ub.copy_from_slice(shared.root_ub);
    let mut step: Option<&Arc<PathStep>> = Some(node);
    while let Some(s) = step {
        if s.is_lb {
            lb[s.j] = lb[s.j].max(s.value);
        } else {
            ub[s.j] = ub[s.j].min(s.value);
        }
        step = s.parent.as_ref();
    }

    let lp = simplex.solve_warm(lb, ub, opts, node.warm.as_deref());
    shared
        .simplex_iterations
        .fetch_add(lp.iterations, Ordering::Relaxed);
    stats.add_lp(&lp);
    trace.emit(|| TraceEvent::LpSolved {
        worker: wid as u32,
        class: lp_class(lp.status),
        iterations: lp.iterations,
        refactors: lp.refactors,
        etas: lp.eta_pivots,
        warm: lp.warm.name(),
    });
    match lp.status {
        LpStatus::Infeasible => {
            close(NodeOutcome::Infeasible);
            return; // subtree pruned
        }
        LpStatus::Unbounded => {
            shared.hit_limit();
            close(NodeOutcome::Limit);
            return;
        }
        LpStatus::IterLimit => {
            // Either a genuine per-LP/deadline limit or our own cooperative
            // cancellation after the first solution was found — only the
            // former is a reportable limit.
            if !shared.found_first.load(Ordering::Acquire) {
                shared.hit_limit();
            }
            close(NodeOutcome::Limit);
            return;
        }
        LpStatus::Stalled => {
            shared.record_error(SolveError::NumericallyUnstable {
                iterations: lp.iterations,
            });
            shared.hit_limit();
            close(NodeOutcome::Limit);
            return;
        }
        LpStatus::Optimal => {}
    }

    let mut bound = shared.to_min(lp.objective);
    if shared.integral_objective {
        bound = tighten_integral_bound(bound);
    }
    if bound >= shared.threshold() - PRUNE_TOL {
        close(NodeOutcome::PrunedBound);
        return; // pruned by incumbent or external cutoff
    }

    let rule = shared.limits.branch_rule;
    let Some((bv, bx)) = choose_branch(rule, shared.int_vars, &lp.values) else {
        // Integral solution.
        let mut obj = shared.to_min(lp.objective);
        if shared.limits.fault.take_incumbent_perturbation() {
            // Corrupt only the *claimed* objective, never the assignment:
            // the exact-arithmetic certifier downstream must catch the
            // mismatch, and a corrupted assignment would instead fail much
            // earlier inside the solver's own integrality checks.
            obj += 0.5;
        }
        let obj_model = if shared.minimize { obj } else { -obj };
        if shared.offer_incumbent(obj, lp.values) {
            stats.incumbents += 1;
            trace.emit(|| TraceEvent::Incumbent {
                worker: wid as u32,
                objective: obj_model,
            });
            if shared.limits.first_solution_only {
                shared.found_first.store(true, Ordering::Release);
                shared.stop.stop();
            }
        }
        close(NodeOutcome::Integral);
        return;
    };

    let j = bv.index();
    let floor = bx.floor();
    if floor >= ub[j] || floor + 1.0 <= lb[j] {
        debug_assert!(
            false,
            "LP value {bx} of {} escapes node bounds [{}, {}]",
            shared.model.var_name(bv),
            lb[j],
            ub[j]
        );
        shared.hit_limit();
        close(NodeOutcome::Limit);
        return;
    }
    let snapshot = simplex.basis_snapshot().map(Arc::new);
    let down = Arc::new(PathStep {
        j,
        is_lb: false,
        value: floor,
        parent: Some(Arc::clone(node)),
        warm: snapshot.clone(),
    });
    let up = Arc::new(PathStep {
        j,
        is_lb: true,
        value: floor + 1.0,
        parent: Some(Arc::clone(node)),
        warm: snapshot,
    });
    let (first, second) = if down_child_first(rule, bx, floor) {
        (down, up)
    } else {
        (up, down)
    };
    shared.pending.fetch_add(2, Ordering::AcqRel);
    {
        let mut q = shared.queues[wid].lock().expect("queue lock poisoned");
        q.push_back(second);
        q.push_back(first); // owner pops from the back: first child explored next
    }
    close(NodeOutcome::Branched);
}

/// Entry point: parallel counterpart of the serial `Solver::solve` body.
/// `base_opts` carries the per-LP options with the whole-solve deadline
/// already clamped and `stop` set to the *caller's* flag.
pub(crate) fn solve(
    model: &Model,
    limits: &SolveLimits,
    base_opts: &SimplexOptions,
    start: Instant,
) -> SolveOutcome {
    let threads = limits.resolve_threads();
    let trace = limits.trace.clone();
    trace.emit(|| TraceEvent::SolveBegin {
        variables: model.num_vars() as u64,
        constraints: model.num_constraints() as u64,
        threads: threads as u32,
    });
    let minimize = model.obj_sense == Sense::Minimize;
    let cutoff_min = limits
        .cutoff
        .map_or(f64::INFINITY, |c| if minimize { c } else { -c });
    let min_to_model = |v: f64| if minimize { v } else { -v };
    let mut stats = SolveStats {
        variables: model.num_vars() as u64,
        constraints: model.num_constraints() as u64,
        ..Default::default()
    };
    let int_vars: Vec<VarId> = (0..model.num_vars())
        .map(|i| VarId(i as u32))
        .filter(|v| model.is_integer(*v))
        .collect();

    let finish =
        |status: SolveStatus, mut stats: SolveStats, best_bound: f64, error: Option<SolveError>| {
            stats.wall_time = start.elapsed();
            trace.emit(|| TraceEvent::SolveEnd {
                status: status.name(),
            });
            SolveOutcome {
                status,
                objective: f64::NAN,
                values: vec![],
                best_bound: min_to_model(best_bound),
                stats,
                error,
            }
        };

    let mut root_lb: Vec<f64> = (0..model.num_vars()).map(|j| model.vars[j].lb).collect();
    let mut root_ub: Vec<f64> = (0..model.num_vars()).map(|j| model.vars[j].ub).collect();
    for &v in &int_vars {
        let j = v.index();
        root_lb[j] = root_lb[j].ceil();
        root_ub[j] = root_ub[j].floor();
        if root_lb[j] > root_ub[j] {
            return finish(SolveStatus::Infeasible, stats, f64::NEG_INFINITY, None);
        }
    }

    // Search-internal cancellation: a child of the caller's flag, so that
    // stopping the search (budget, first solution) does not stop the
    // caller's other solves, while a caller-side stop still reaches us.
    let search_stop = limits.stop.child();
    let opts = SimplexOptions {
        stop: search_stop.clone(),
        ..base_opts.clone()
    };

    // Root relaxation on the calling thread.
    let mut root_simplex = Simplex::new(model);
    let lp = {
        let _root_span = trace.span(Phase::RootLp);
        root_simplex.solve(&root_lb, &root_ub, &opts)
    };
    stats.add_lp(&lp);
    trace.emit(|| TraceEvent::LpSolved {
        worker: 0,
        class: lp_class(lp.status),
        iterations: lp.iterations,
        refactors: lp.refactors,
        etas: lp.eta_pivots,
        warm: lp.warm.name(),
    });
    match lp.status {
        LpStatus::Infeasible => {
            return finish(SolveStatus::Infeasible, stats, f64::NEG_INFINITY, None)
        }
        LpStatus::Unbounded | LpStatus::IterLimit => {
            return finish(SolveStatus::LimitReached, stats, f64::NEG_INFINITY, None)
        }
        LpStatus::Stalled => {
            return finish(
                SolveStatus::LimitReached,
                stats,
                f64::NEG_INFINITY,
                Some(SolveError::NumericallyUnstable {
                    iterations: lp.iterations,
                }),
            );
        }
        LpStatus::Optimal => {}
    }
    let mut root_bound = if minimize {
        lp.objective
    } else {
        -lp.objective
    };
    if model.objective_is_integral() {
        root_bound = tighten_integral_bound(root_bound);
    }
    if root_bound >= cutoff_min - PRUNE_TOL {
        // Nothing can beat the external cutoff (same Infeasible contract as
        // the serial search).
        return finish(SolveStatus::Infeasible, stats, root_bound, None);
    }

    let root_branch = choose_branch(limits.branch_rule, &int_vars, &lp.values);
    let Some((bv, bx)) = root_branch else {
        // Root already integral: optimal without any branching.
        let obj = if minimize {
            lp.objective
        } else {
            -lp.objective
        };
        stats.incumbents += 1;
        trace.emit(|| TraceEvent::Incumbent {
            worker: 0,
            objective: min_to_model(obj),
        });
        stats.wall_time = start.elapsed();
        trace.emit(|| TraceEvent::SolveEnd {
            status: SolveStatus::Optimal.name(),
        });
        return SolveOutcome {
            status: SolveStatus::Optimal,
            objective: min_to_model(obj),
            values: lp.values,
            best_bound: min_to_model(obj),
            stats,
            error: None,
        };
    };
    let root_snapshot = root_simplex.basis_snapshot().map(Arc::new);
    drop(root_simplex);

    let shared = Shared {
        model,
        limits,
        start,
        minimize,
        integral_objective: model.objective_is_integral(),
        int_vars: &int_vars,
        root_lb: &root_lb,
        root_ub: &root_ub,
        cutoff_min,
        queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: AtomicUsize::new(2),
        incumbent_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        incumbent: Mutex::new(None),
        bb_nodes: AtomicU64::new(0),
        simplex_iterations: AtomicU64::new(0),
        limit_hit: AtomicBool::new(false),
        found_first: AtomicBool::new(false),
        error: Mutex::new(None),
        stop: search_stop,
    };

    // Seed the pool with the root's two children, first-explored on top.
    {
        let j = bv.index();
        let floor = bx.floor();
        if floor >= root_ub[j] || floor + 1.0 <= root_lb[j] {
            debug_assert!(false, "root LP value {bx} escapes bounds");
            return finish(SolveStatus::LimitReached, stats, root_bound, None);
        }
        let down = Arc::new(PathStep {
            j,
            is_lb: false,
            value: floor,
            parent: None,
            warm: root_snapshot.clone(),
        });
        let up = Arc::new(PathStep {
            j,
            is_lb: true,
            value: floor + 1.0,
            parent: None,
            warm: root_snapshot,
        });
        let (first, second) = if down_child_first(limits.branch_rule, bx, floor) {
            (down, up)
        } else {
            (up, down)
        };
        let mut q = shared.queues[0].lock().expect("queue lock poisoned");
        q.push_back(second);
        q.push_back(first);
    }

    let worker_stats: Vec<SolveStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|wid| {
                let shared = &shared;
                let opts = opts.clone();
                scope.spawn(move || {
                    let mut local = SolveStats::default();
                    // A panic that escapes the worker loop itself (e.g. an
                    // injected worker-startup fault, or a bug outside the
                    // per-node recovery) must not propagate through the
                    // scope and abort the solve: record it and wind the
                    // search down.
                    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker(shared, &opts, wid, &mut local)
                    }));
                    if let Err(payload) = unwound {
                        local.panics_recovered += 1;
                        shared
                            .limits
                            .trace
                            .emit(|| TraceEvent::PanicRecovered { worker: wid as u32 });
                        shared
                            .record_error(SolveError::WorkerPanic(panic_message(payload.as_ref())));
                        shared.hit_limit();
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("worker panics are caught inside the worker")
            })
            .collect()
    });

    for local in &worker_stats {
        stats.absorb(local);
    }
    stats.bb_nodes = shared.bb_nodes.load(Ordering::Relaxed);
    stats.wall_time = start.elapsed();
    // A caller-side cancellation must read as a limit, never as an
    // infeasibility proof: workers drain without touching `limit_hit` when
    // the parent flag stops them mid-search, and an exhausted-looking pool
    // with no incumbent would otherwise be misreported as `Infeasible` —
    // unsound for anyone (the II ladder, the portfolio's oracle) who treats
    // infeasibility as a certificate.
    let limit_hit = shared.limit_hit.load(Ordering::Acquire) || limits.stop.is_stopped();
    let error = shared.error.lock().expect("error lock poisoned").take();
    let incumbent = shared
        .incumbent
        .lock()
        .expect("incumbent lock poisoned")
        .take();
    let outcome = match incumbent {
        Some((obj, values)) => {
            let status = if limit_hit && !limits.first_solution_only {
                SolveStatus::Feasible
            } else {
                SolveStatus::Optimal
            };
            SolveOutcome {
                status,
                objective: min_to_model(obj),
                values,
                best_bound: min_to_model(if status == SolveStatus::Optimal {
                    obj
                } else {
                    root_bound
                }),
                stats,
                error,
            }
        }
        None => SolveOutcome {
            status: if limit_hit {
                SolveStatus::LimitReached
            } else {
                SolveStatus::Infeasible
            },
            objective: f64::NAN,
            values: vec![],
            best_bound: min_to_model(root_bound),
            stats,
            error,
        },
    };
    trace.emit(|| TraceEvent::SolveEnd {
        status: outcome.status.name(),
    });
    outcome
}
