//! The branch-and-bound search: a work-stealing pool of workers, of which
//! [`SolveLimits::threads`] `= 1` is the one-worker case.
//!
//! Architecture:
//!
//! * An open node is a path of bound tightenings (`Arc` chain back to the
//!   root) plus its parent's optimal basis, not a bound vector: pushing a
//!   child is O(1) and memory is shared between siblings. Workers
//!   materialize the bound arrays by replaying the path onto the root
//!   bounds; branch tightenings are monotone (`lb` only rises, `ub` only
//!   falls), so `max`/`min` folding in any order reproduces the exact node
//!   bounds. The root is the node with no path step, at depth 0.
//! * Each worker owns a private [`Simplex`] (its LU factor and eta file
//!   change with every pivot) and a deque of open nodes. Workers pop from
//!   the *back* of their own deque (depth-first, keeping the open-node
//!   memory footprint low) and steal from the *front* of a victim's deque
//!   (breadth-first steals hand out the shallowest — largest — subtrees).
//! * Worker 0 is the calling thread and expands the root on its own
//!   `Simplex`. With one thread it goes on alone and nothing is spawned;
//!   with more, workers `1..threads` are spawned with
//!   [`std::thread::scope`] only if the root branched, and worker 0 keeps
//!   its `Simplex`, so the root's children roll its eta file back instead
//!   of refactorizing.
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
//! With one worker the node order is the classic recursive DFS order: the
//! first child is pushed last and popped next, the same `solve_warm`
//! sequence runs on the same `Simplex`, and path replay gives the bounds
//! the recursion would have set in place. Node counts and simplex
//! iterations are bit-identical run to run, which the figure/table
//! experiments and the golden corpus depend on. With more workers, node
//! counts and which optimal *solution vector* is found may vary between
//! runs (pruning races); solve status and optimal objective value do not.
//!
//! The verdict is derived in one place, [`finish`], from three facts: the
//! incumbent, whether a limit fired, and whether the caller stopped the
//! solve. An empty pool is an infeasibility proof only when neither of the
//! last two happened.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use optimod_trace::{NodeOutcome, Phase, TraceEvent};

use crate::branch_bound::{
    first_fractional, lp_class, ordered_split, tighten_integral_bound, SolveLimits,
};
use crate::fault::{FaultAction, FaultSite};
use crate::model::{Model, Sense, VarId};
use crate::simplex::{Basis, LpStatus, Simplex, SimplexOptions};
use crate::solution::{panic_message, SolveError, SolveOutcome, SolveStats, SolveStatus};
use crate::stop::StopFlag;
use crate::tol::PRUNE_TOL;

/// One bound tightening on the path from the root to an open node.
struct PathStep {
    j: usize,
    /// `true` tightens `lb[j]` up to `value`; `false` tightens `ub[j]`
    /// down to `value`.
    is_lb: bool,
    value: f64,
    parent: Option<Arc<PathStep>>,
}

/// Extends `parent` by the steps that zero every member of `members` whose
/// upper bound in `ub` is still positive.
fn zero_path(
    members: &[VarId],
    ub: &[f64],
    parent: Option<Arc<PathStep>>,
) -> Option<Arc<PathStep>> {
    members
        .iter()
        .filter(|m| ub[m.index()] > 0.0)
        .fold(parent, |parent, m| {
            Some(Arc::new(PathStep {
                j: m.index(),
                is_lb: false,
                value: 0.0,
                parent,
            }))
        })
}

/// One open node.
struct Node {
    /// The node's last tightening (`None` for the root).
    path: Option<Arc<PathStep>>,
    /// 0 for the root, which is not a counted branch-and-bound node.
    depth: u32,
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
    /// Per-LP options, with `stop` set to the search's own flag.
    opts: SimplexOptions,
    start: Instant,
    minimize: bool,
    integral_objective: bool,
    int_vars: Vec<VarId>,
    /// For each variable, the index of the first ordered set (in
    /// `model.sets`) it belongs to.
    set_of: Vec<Option<u32>>,
    root_lb: Vec<f64>,
    root_ub: Vec<f64>,
    /// Per-worker deques; worker `i` owns `queues[i]`.
    queues: Vec<Mutex<VecDeque<Node>>>,
    /// Nodes queued or currently being expanded.
    pending: AtomicUsize,
    /// Incumbent objective (minimize sense) as `f64` bits; read lock-free
    /// for pruning, written only under the `incumbent` lock.
    incumbent_bits: AtomicU64,
    incumbent: Mutex<Option<(f64, Vec<f64>)>>,
    /// The root's rounded LP bound (minimize sense) as `f64` bits; -inf
    /// until the root relaxation solves to optimality.
    best_bound_bits: AtomicU64,
    /// Nodes opened by all workers: the node budget and the reported count.
    bb_nodes: AtomicU64,
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
    /// Converts an objective between the model's sense and minimize sense
    /// (negation under maximize, so it is its own inverse).
    fn to_min(&self, obj: f64) -> f64 {
        if self.minimize {
            obj
        } else {
            -obj
        }
    }

    /// Current pruning threshold in minimize sense.
    fn threshold(&self) -> f64 {
        f64::from_bits(self.incumbent_bits.load(Ordering::Acquire))
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

    /// Offers an integral solution; returns its objective (minimize sense)
    /// if it became the incumbent. An armed incumbent perturbation corrupts
    /// only the *claimed* objective of an accepted solution, never the
    /// assignment: the exact-arithmetic certifier downstream must catch the
    /// mismatch, and a corrupted assignment would instead fail much earlier
    /// inside the solver's own integrality checks.
    fn offer_incumbent(&self, obj_min: f64, values: Vec<f64>) -> Option<f64> {
        let mut guard = self.incumbent.lock().expect("incumbent lock poisoned");
        let current = guard.as_ref().map_or(f64::INFINITY, |(o, _)| *o);
        if obj_min >= current - PRUNE_TOL {
            return None;
        }
        let obj = if self.limits.fault.take_incumbent_perturbation() {
            obj_min + 0.5
        } else {
            obj_min
        };
        self.incumbent_bits.store(obj.to_bits(), Ordering::Release);
        *guard = Some((obj, values));
        Some(obj)
    }

    /// Budget check at entry to a node at `depth`. The node cap counts
    /// nodes beyond the root, so the root LP always runs; the deadline
    /// applies everywhere.
    fn out_of_budget(&self, depth: u32) -> bool {
        if self.start.elapsed() >= self.limits.time_limit
            || (depth > 0 && self.bb_nodes.load(Ordering::Relaxed) >= self.limits.node_limit)
        {
            self.hit_limit();
            return true;
        }
        false
    }

    /// Fires `site` on behalf of worker `wid`, tracing what tripped.
    fn fault(&self, site: FaultSite, wid: usize) -> Option<FaultAction> {
        let action = self.limits.fault.fire(site)?;
        self.limits.trace.emit(|| TraceEvent::FaultInjected {
            worker: wid as u32,
            site: site.name(),
            action: action.name(),
        });
        Some(action)
    }

    /// Queues `nodes` on worker `wid`'s deque, the last one on top.
    fn push(&self, wid: usize, nodes: impl ExactSizeIterator<Item = Node>) {
        self.pending.fetch_add(nodes.len(), Ordering::AcqRel);
        self.queues[wid]
            .lock()
            .expect("queue lock poisoned")
            .extend(nodes);
    }

    /// Pops work for `wid`: own deque from the back, else steal from the
    /// front of the first non-empty victim.
    fn pop(&self, wid: usize) -> Option<Node> {
        if let Some(node) = self.queues[wid]
            .lock()
            .expect("queue lock poisoned")
            .pop_back()
        {
            return Some(node);
        }
        let n = self.queues.len();
        (1..n).find_map(|d| {
            self.queues[(wid + d) % n]
                .lock()
                .expect("queue lock poisoned")
                .pop_front()
        })
    }
}

/// One worker's private context: its LP workspace, bound scratch and
/// counters (merged into the outcome's [`SolveStats`] at the end).
struct Worker {
    id: usize,
    simplex: Simplex,
    lb: Vec<f64>,
    ub: Vec<f64>,
    stats: SolveStats,
    idle_rounds: u32,
}

impl Worker {
    fn new(shared: &Shared, id: usize) -> Self {
        Worker {
            id,
            simplex: Simplex::new(shared.model),
            lb: shared.root_lb.clone(),
            ub: shared.root_ub.clone(),
            stats: SolveStats::default(),
            idle_rounds: 0,
        }
    }

    /// A spawned worker's whole life: start, then drain the pool.
    fn run(mut self, shared: &Shared) -> SolveStats {
        if self.start(shared) {
            while self.step(shared) {}
        }
        self.stats
    }

    /// The worker-startup fault site. A stall or spurious timeout wedges
    /// this worker before it processes anything; the limit broadcast stops
    /// the search cleanly instead of letting a drained pool masquerade as
    /// a proof of infeasibility. Returns whether the worker may run.
    fn start(&mut self, shared: &Shared) -> bool {
        let id = self.id;
        let fired = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.fault(FaultSite::WorkerStart, id)
        }));
        match fired {
            Ok(Some(FaultAction::Stall | FaultAction::SpuriousTimeout)) => {
                shared.hit_limit();
                false
            }
            Ok(_) => true,
            Err(payload) => {
                self.recover(shared, payload);
                false
            }
        }
    }

    /// Takes and expands one open node, or backs off while other workers
    /// still hold nodes. Returns whether this worker should keep going.
    fn step(&mut self, shared: &Shared) -> bool {
        if shared.stop.is_stopped() {
            return false;
        }
        let Some(node) = shared.pop(self.id) else {
            if shared.pending.load(Ordering::Acquire) == 0 {
                return false;
            }
            // Other workers still hold nodes that may spawn children; back
            // off progressively so a 2-thread solve on one core does not
            // burn half the machine spinning.
            self.idle_rounds += 1;
            if self.idle_rounds > 32 {
                std::thread::sleep(std::time::Duration::from_micros(100));
            } else {
                std::thread::yield_now();
            }
            return true;
        };
        self.idle_rounds = 0;
        // A panic inside node expansion (an injected fault, a numerical
        // debug_assert, an index bug on a pathological model) must not
        // abort the process: record it as a typed error, drop the node,
        // and let the solve wind down with whatever incumbent exists.
        let unwound =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.expand(shared, &node)));
        shared.pending.fetch_sub(1, Ordering::AcqRel);
        let Err(payload) = unwound else {
            return true;
        };
        // A counted node's NodeOpen directly follows the budget check,
        // which cannot panic, so close it here to keep every worker's
        // open/close stream balanced.
        if node.depth > 0 {
            shared.limits.trace.emit(|| TraceEvent::NodeClose {
                worker: self.id as u32,
                outcome: NodeOutcome::Panicked,
            });
        }
        self.recover(shared, payload);
        false
    }

    /// Books a caught panic and winds the search down.
    fn recover(&mut self, shared: &Shared, payload: Box<dyn std::any::Any + Send>) {
        self.stats.panics_recovered += 1;
        shared.limits.trace.emit(|| TraceEvent::PanicRecovered {
            worker: self.id as u32,
        });
        shared.record_error(SolveError::WorkerPanic(panic_message(payload.as_ref())));
        shared.hit_limit();
    }

    /// Expands one open node: budget check, bounds, LP relaxation, then
    /// prune / record / enqueue children. The root (depth 0) is not a
    /// counted branch-and-bound node (matching the paper, where "0 nodes"
    /// means the root LP was already integral): it gets no open/close
    /// pair, its LP runs under the [`Phase::RootLp`] span, and its rounded
    /// bound becomes the search's best bound.
    fn expand(&mut self, shared: &Shared, node: &Node) {
        if shared.out_of_budget(node.depth) {
            return;
        }
        let trace = &shared.limits.trace;
        let (wid, depth) = (self.id as u32, node.depth);
        // NodeOpen directly follows the node-count increment so that a
        // panic anywhere in the expansion always has an open to match its
        // `NodeClose(Panicked)`, and so that every open is a counted node.
        if depth > 0 {
            shared.bb_nodes.fetch_add(1, Ordering::Relaxed);
            trace.emit(|| TraceEvent::NodeOpen { worker: wid, depth });
        }
        let close = |outcome: NodeOutcome| {
            if depth > 0 {
                trace.emit(|| TraceEvent::NodeClose {
                    worker: wid,
                    outcome,
                });
            }
        };

        // Deterministic fault injection at node expansion. An injected
        // panic (raised inside `fire`) is matched by the worker's
        // `NodeClose(Panicked)`; stall and spurious-timeout actions close
        // the node themselves before wedging the search.
        match shared.fault(FaultSite::NodeExpand, self.id) {
            Some(FaultAction::Stall) => {
                shared.record_error(SolveError::NumericallyUnstable {
                    iterations: self.stats.simplex_iterations,
                });
                shared.hit_limit();
                close(NodeOutcome::Limit);
                return;
            }
            Some(FaultAction::SpuriousTimeout) => {
                shared.hit_limit();
                close(NodeOutcome::Limit);
                return;
            }
            _ => {}
        }

        // Replay the path's tightenings onto the root bounds.
        let (lb, ub) = (&mut self.lb, &mut self.ub);
        lb.copy_from_slice(&shared.root_lb);
        ub.copy_from_slice(&shared.root_ub);
        let mut step = node.path.as_ref();
        while let Some(s) = step {
            if s.is_lb {
                lb[s.j] = lb[s.j].max(s.value);
            } else {
                ub[s.j] = ub[s.j].min(s.value);
            }
            step = s.parent.as_ref();
        }

        let lp = {
            let _root_span = (depth == 0).then(|| trace.span(Phase::RootLp));
            self.simplex
                .solve_warm(lb, ub, &shared.opts, node.warm.as_deref())
        };
        self.stats.add_lp(&lp);
        trace.emit(|| TraceEvent::LpSolved {
            worker: wid,
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
                // An unbounded relaxation of a bounded integer program can
                // only occur with unbounded integer variables; treat the
                // whole subtree as unprunable and bail out conservatively.
                shared.hit_limit();
                close(NodeOutcome::Limit);
                return;
            }
            LpStatus::IterLimit => {
                // Either a genuine per-LP/deadline limit or our own
                // cooperative cancellation after the first solution was
                // found — only the former is a reportable limit.
                if !shared.found_first.load(Ordering::Acquire) {
                    shared.hit_limit();
                }
                close(NodeOutcome::Limit);
                return;
            }
            LpStatus::Stalled => {
                // The watchdog abandoned a numerically unstable LP. Keep
                // whatever incumbent exists and report the cause.
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
            // Any integral solution has an integral objective: round up.
            bound = tighten_integral_bound(bound);
        }
        if depth == 0 {
            shared
                .best_bound_bits
                .store(bound.to_bits(), Ordering::Release);
        }
        if bound >= shared.threshold() - PRUNE_TOL {
            close(NodeOutcome::PrunedBound);
            return; // pruned by the incumbent
        }

        let Some((bv, bx)) = first_fractional(&shared.int_vars, &lp.values) else {
            // Integral solution.
            if let Some(obj) = shared.offer_incumbent(shared.to_min(lp.objective), lp.values) {
                self.stats.incumbents += 1;
                trace.emit(|| TraceEvent::Incumbent {
                    worker: wid,
                    objective: shared.to_min(obj),
                });
                if shared.limits.first_solution_only {
                    shared.found_first.store(true, Ordering::Release);
                    shared.stop.stop();
                }
            }
            close(NodeOutcome::Integral);
            return;
        };

        // Branch. A member of an ordered set splits the whole set at `s`:
        // one child zeroes the members `z >= s`, the other those `z < s`,
        // and the side with more LP mass is explored first. Any other
        // variable splits at its floor: the down child tightens the upper
        // bound to `floor`, the up child raises the lower bound to
        // `floor + 1`.
        let j = bv.index();
        let split = shared.set_of[j].and_then(|k| {
            let members = &shared.model.sets[k as usize].members;
            ordered_split(members, &lp.values).map(|(s, low_first)| (members, s, low_first))
        });
        let (first, second) = if let Some((members, s, low_first)) = split {
            let keep_low = zero_path(&members[s..], ub, node.path.clone());
            let keep_high = zero_path(&members[..s], ub, node.path.clone());
            if low_first {
                (keep_low, keep_high)
            } else {
                (keep_high, keep_low)
            }
        } else {
            let floor = bx.floor();
            // Defensive: an LP value outside the node bounds signals a
            // numerical failure in the relaxation; branching would not
            // shrink the domain and the search could loop forever.
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
            let step = |is_lb: bool| {
                Some(Arc::new(PathStep {
                    j,
                    is_lb,
                    value: if is_lb { floor + 1.0 } else { floor },
                    parent: node.path.clone(),
                }))
            };
            let down_first = bx - floor <= 0.5;
            (step(!down_first), step(down_first))
        };
        // This node's optimal basis warm-starts both children (pure bound
        // changes, so the parent basis stays dual feasible for them).
        let warm = self.simplex.basis_snapshot().map(Arc::new);
        let child = |path| Node {
            path,
            depth: depth + 1,
            warm: warm.clone(),
        };
        // The owner pops from the back: the first child is explored next.
        shared.push(self.id, [child(second), child(first)].into_iter());
        close(NodeOutcome::Branched);
    }
}

/// Runs the search and returns the workers' merged counters. Worker 0 is
/// the calling thread and expands the root; workers `1..threads` are
/// spawned only if the root branched.
fn run_workers(shared: &Shared, threads: usize) -> SolveStats {
    let mut lead = Worker::new(shared, 0);
    if lead.start(shared) && lead.step(shared) {
        if threads > 1 && shared.pending.load(Ordering::Acquire) > 0 {
            std::thread::scope(|scope| {
                let helpers: Vec<_> = (1..threads)
                    .map(|id| scope.spawn(move || Worker::new(shared, id).run(shared)))
                    .collect();
                while lead.step(shared) {}
                for helper in helpers {
                    let stats = helper.join().expect("worker panics are caught per node");
                    lead.stats.absorb(&stats);
                }
            });
        } else {
            while lead.step(shared) {}
        }
    }
    lead.stats
}

/// Entry point of [`Solver::solve`](crate::Solver::solve). `opts` carries
/// the per-LP options with the whole-solve deadline already clamped.
pub(crate) fn solve(
    model: &Model,
    limits: &SolveLimits,
    opts: &SimplexOptions,
    start: Instant,
) -> SolveOutcome {
    let threads = limits.resolve_threads();
    limits.trace.emit(|| TraceEvent::SolveBegin {
        variables: model.num_vars() as u64,
        constraints: model.num_constraints() as u64,
        threads: threads as u32,
    });
    let minimize = model.obj_sense == Sense::Minimize;
    let int_vars: Vec<VarId> = (0..model.num_vars())
        .map(|i| VarId(i as u32))
        .filter(|v| model.is_integer(*v))
        .collect();
    let mut set_of = vec![None; model.num_vars()];
    for (k, set) in model.sets.iter().enumerate() {
        for m in &set.members {
            set_of[m.index()].get_or_insert(k as u32);
        }
    }
    let mut root_lb: Vec<f64> = model.vars.iter().map(|v| v.lb).collect();
    let mut root_ub: Vec<f64> = model.vars.iter().map(|v| v.ub).collect();
    // Tighten integer bounds to integral values up front.
    for v in &int_vars {
        let j = v.index();
        root_lb[j] = root_lb[j].ceil();
        root_ub[j] = root_ub[j].floor();
    }
    // Crossed integer bounds leave the pool empty: nothing to search.
    let root_is_empty = int_vars
        .iter()
        .any(|v| root_lb[v.index()] > root_ub[v.index()]);
    // Search-internal cancellation: a child of the caller's flag, so that
    // stopping the search (budget, first solution) does not stop the
    // caller's other solves, while a caller-side stop still reaches us.
    let stop = limits.stop.child();
    let shared = Shared {
        model,
        limits,
        opts: SimplexOptions {
            stop: stop.clone(),
            ..opts.clone()
        },
        start,
        minimize,
        integral_objective: model.objective_is_integral(),
        int_vars,
        set_of,
        root_lb,
        root_ub,
        queues: (0..threads).map(|_| Mutex::default()).collect(),
        pending: AtomicUsize::new(0),
        incumbent_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        incumbent: Mutex::new(None),
        best_bound_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        bb_nodes: AtomicU64::new(0),
        limit_hit: AtomicBool::new(false),
        found_first: AtomicBool::new(false),
        error: Mutex::new(None),
        stop,
    };
    let mut stats = SolveStats {
        variables: model.num_vars() as u64,
        constraints: model.num_constraints() as u64,
        ..Default::default()
    };
    if !root_is_empty {
        let root = Node {
            path: None,
            depth: 0,
            warm: None,
        };
        shared.push(0, std::iter::once(root));
        stats.absorb(&run_workers(&shared, threads));
    }
    finish(shared, stats)
}

/// The search's one verdict. With an incumbent the status is `Optimal`
/// unless a limit cut the proof short; without one, an empty pool is an
/// infeasibility proof only when no limit fired and the caller did not
/// stop the solve. Workers drain on a caller-side stop without touching
/// `limit_hit`, and an exhausted-looking pool would otherwise be misread
/// as `Infeasible` — unsound for anyone (the II ladder, the portfolio's
/// oracle) who treats infeasibility as a certificate.
fn finish(shared: Shared, mut stats: SolveStats) -> SolveOutcome {
    stats.bb_nodes = shared.bb_nodes.load(Ordering::Relaxed);
    stats.wall_time = shared.start.elapsed();
    let limit_hit = shared.limit_hit.load(Ordering::Acquire) || shared.limits.stop.is_stopped();
    let root_bound = f64::from_bits(shared.best_bound_bits.load(Ordering::Acquire));
    let error = shared.error.lock().expect("error lock poisoned").take();
    let incumbent = shared
        .incumbent
        .lock()
        .expect("incumbent lock poisoned")
        .take();
    let (status, objective, values, best_bound) = match incumbent {
        Some((obj, values)) if limit_hit && !shared.limits.first_solution_only => {
            (SolveStatus::Feasible, obj, values, root_bound)
        }
        Some((obj, values)) => (SolveStatus::Optimal, obj, values, obj),
        None if limit_hit => (SolveStatus::LimitReached, f64::NAN, vec![], root_bound),
        None => (SolveStatus::Infeasible, f64::NAN, vec![], root_bound),
    };
    shared.limits.trace.emit(|| TraceEvent::SolveEnd {
        status: status.name(),
    });
    SolveOutcome {
        status,
        objective: shared.to_min(objective),
        values,
        best_bound: shared.to_min(best_bound),
        stats,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays `path` onto `ub` (a split only lowers upper bounds) and
    /// returns its number of steps.
    fn replay(path: &Option<Arc<PathStep>>, ub: &mut [f64]) -> usize {
        let (mut step, mut len) = (path.as_ref(), 0);
        while let Some(s) = step {
            assert!(!s.is_lb);
            ub[s.j] = ub[s.j].min(s.value);
            step = s.parent.as_ref();
            len += 1;
        }
        len
    }

    /// Each child of an ordered split zeroes a side that carries LP mass,
    /// so neither child contains its parent's LP point; members already at
    /// `ub = 0` add no step.
    #[test]
    fn both_children_of_a_split_exclude_the_parent_point() {
        let members: Vec<VarId> = (0..6).map(|i| VarId(i as u32)).collect();
        let points: [[f64; 6]; 4] = [
            [0.0, 0.5, 0.0, 0.0, 0.5, 0.0],
            [0.25, 0.25, 0.25, 0.0, 0.25, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.3, 0.7],
            [0.6, 0.0, 0.1, 0.0, 0.0, 0.3],
        ];
        for x in points {
            let mut node_ub = [1.0; 6];
            node_ub[3] = 0.0; // fixed by an earlier branch
            let (s, _) = ordered_split(&members, &x).expect("two members carry mass");
            let keep_low = zero_path(&members[s..], &node_ub, None);
            let keep_high = zero_path(&members[..s], &node_ub, None);
            for (child, zeroed) in [(&keep_low, s..6), (&keep_high, 0..s)] {
                let mut ub = node_ub;
                let len = replay(child, &mut ub);
                let violated = members.iter().any(|m| x[m.index()] > ub[m.index()] + 1e-9);
                assert!(violated, "{x:?}: a child keeps the parent point");
                let open = zeroed.filter(|&z| node_ub[z] > 0.0).count();
                assert_eq!(len, open, "{x:?}: one step per member still open");
            }
        }
    }
}
