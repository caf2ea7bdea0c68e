//! Bounded-variable revised simplex over a sparse LU basis.
//!
//! The implementation follows the classic two-phase revised simplex method
//! for problems of the form
//!
//! ```text
//!     minimize    c'x
//!     subject to  A x (<=|=|>=) b,    l <= x <= u
//! ```
//!
//! Every row receives a slack column with coefficient +1 whose bounds encode
//! the row sense (`<=` → `[0, ∞)`, `>=` → `(-∞, 0]`, `=` → `[0, 0]`).
//! Phase 1 introduces signed artificial columns only for rows whose slack
//! cannot absorb the initial residual. Nonbasic variables rest at one of
//! their bounds (or at 0 when free); the ratio test supports bound flips.
//!
//! The basis is a sparse LU factorization with Markowitz pivot selection
//! and threshold partial pivoting, triangular FTRAN/BTRAN solves, and
//! product-form eta updates between refactorizations (see
//! [`crate::factor`]). On the 0-1-structured scheduling bases this makes an
//! iteration cost O(nnz) instead of the O(m²) of an explicit inverse.
//!
//! Branch-and-bound re-solves are warm-started: [`Simplex::basis_snapshot`]
//! captures the optimal basis of a parent node as a cheap [`Basis`] value,
//! and [`Simplex::solve_warm`] restores it in a child (after a single bound
//! change) and runs a bounded **dual simplex** until primal feasibility is
//! restored — typically a handful of pivots instead of a full two-phase
//! solve. The snapshot also records a factor mark, and a child solved by
//! the same `Simplex` returns to the parent's factor by truncating the eta
//! file back to that mark instead of refactorizing; a stale or foreign mark
//! falls back to refactorizing the snapshot basis.
//! The dual loop prices its leaving row by Devex weights, computes the duals
//! once and then updates them from each pivot row. A warm start that goes
//! wrong (singular refactorization, pivot cap) is abandoned for the ordinary
//! cold start, never failed.
//!
//! Numerical robustness: primal Dantzig pricing with a Bland's-rule
//! fallback after a run of degenerate pivots, an eta-file growth bound that
//! triggers refactorization, a stall watchdog, and a residual check at
//! claimed optimality. The watchdog thresholds are [`SimplexOptions`]
//! fields so tests can tighten them without recompiling.
//!
//! Branch-and-bound solves thousands of closely related LPs, so the solver
//! keeps all working storage (basis factors, pricing and right-hand-side
//! buffers, bound arrays) inside the [`Simplex`] value and reuses it across
//! [`Simplex::solve`] calls — no per-node allocation of the constraint
//! matrix or of its dense work vectors.

use crate::factor::{FactorMark, SparseBasis};
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::model::{Model, RowSense, Sense};
use crate::stop::StopFlag;
use crate::tol::{
    ARTIFICIAL_PIVOT_TOL, DEGEN_STEP_TOL, FEAS_TOL, OPT_TOL, PHASE1_INFEAS_TOL, PIVOT_TOL,
    RATIO_TIE_TOL, RESIDUAL_TOL,
};

/// Outcome status of a single LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal within tolerances.
    Optimal,
    /// No feasible point exists (phase 1 ended with positive infeasibility,
    /// or the dual restart proved the child's box empty).
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The per-solve iteration limit was exhausted.
    IterLimit,
    /// The watchdog abandoned the solve: degenerate pivots kept cycling
    /// after the switch to Bland's rule and a forced refactorization —
    /// numerical instability on this LP instance.
    Stalled,
}

/// How a solve used (or did not use) a parent basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmStart {
    /// Solved from the crash (slack) basis.
    #[default]
    Cold,
    /// Restarted from a parent [`Basis`] snapshot.
    Taken,
    /// A restart was attempted but given up (singular refactorization or
    /// dual pivot cap); the solve fell back to a cold start.
    Abandoned,
}

impl WarmStart {
    /// Stable lowercase name used in trace events and reports.
    pub fn name(self) -> &'static str {
        match self {
            WarmStart::Cold => "cold",
            WarmStart::Taken => "warm",
            WarmStart::Abandoned => "abandoned",
        }
    }
}

/// The linear algebra that backs the basis: a sparse LU factorization with
/// product-form eta updates, the only engine there is. The type and
/// [`SimplexEngine::from_env`] remain only because the benchmark harness
/// prints the engine in its output header; both go when that harness
/// stops naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimplexEngine {
    /// Sparse LU factorization with product-form eta updates.
    Sparse,
}

impl SimplexEngine {
    /// The engine every solve runs: [`SimplexEngine::Sparse`]. No
    /// environment variable is read.
    pub fn from_env() -> Self {
        SimplexEngine::Sparse
    }
}

/// A snapshot of an optimal basis, handed from a branch-and-bound parent to
/// its children for warm-started re-solves. Cheap to clone (two flat
/// arrays and a mark) and free of any factorization state, so snapshots
/// can cross work-stealing worker threads untouched. The mark only names
/// the sparse factor the basis had when it was taken: a child solved by the
/// same [`Simplex`] rolls its eta file back to it, and any other child
/// (another worker, a factor rebuilt since) refactorizes the basis on
/// installation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// `basis[k]` = column (structural or slack) basic in row `k`.
    basis: Vec<u32>,
    /// Rest side of every nonbasic column (indexed by column).
    at_upper: Vec<bool>,
    /// Factor state at the snapshot; `None` unless the solve ended
    /// `Optimal`.
    mark: Option<FactorMark>,
}

impl Basis {
    /// Number of rows the snapshot was taken for.
    pub fn rows(&self) -> usize {
        self.basis.len()
    }
}

/// Result of solving one LP relaxation.
#[derive(Debug, Clone)]
pub struct LpOutcome {
    /// Solve status; `values`/`objective` are meaningful only for
    /// [`LpStatus::Optimal`].
    pub status: LpStatus,
    /// Objective value in the *model's* sense (a maximization model reports
    /// the maximum).
    pub objective: f64,
    /// Values of the structural (model) variables.
    pub values: Vec<f64>,
    /// Simplex iterations (primal and dual pivots, bound flips) performed
    /// by this solve.
    pub iterations: u64,
    /// Basis (re)factorizations performed by this solve (eta-file budget
    /// rebuilds, watchdog-forced ones, residual-check repairs, and
    /// warm-start installations that could not roll back to the parent's
    /// factor).
    pub refactors: u64,
    /// Product-form eta updates absorbed by the basis (one per
    /// basis-changing pivot).
    pub eta_pivots: u64,
    /// Whether this solve reused a parent basis.
    pub warm: WarmStart,
    /// Nanoseconds spent in FTRAN (transformed-column and right-hand-side
    /// solves).
    pub ftran_nanos: u64,
    /// Nanoseconds spent in BTRAN (pricing and dual-row solves).
    pub btran_nanos: u64,
    /// Nanoseconds spent factorizing the basis (every refactorization,
    /// warm-start installations included).
    pub factor_nanos: u64,
}

/// Tunables for the simplex method.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Hard cap on iterations for one LP solve.
    pub max_iterations: u64,
    /// Wall-clock deadline; checked every few hundred iterations so a
    /// single large LP cannot overshoot a branch-and-bound budget. A
    /// deadline hit reports [`LpStatus::IterLimit`].
    pub deadline: Option<std::time::Instant>,
    /// Cooperative cancellation, checked alongside the deadline inside the
    /// pivot loop; a stop reports [`LpStatus::IterLimit`]. Unlike the
    /// poll-only deadline this lets *another thread* interrupt a solve —
    /// the parallel branch-and-bound relies on it, and so does a caller's
    /// (or the daemon's) stop.
    pub stop: StopFlag,
    /// Deterministic fault injection ([`FaultSite::SimplexPivot`] fires one
    /// hit per pivot-loop iteration, primal or dual). Disabled by default.
    pub fault: FaultPlan,
    /// Consecutive degenerate pivots before switching to Bland's rule
    /// (default 60).
    pub degen_limit: u32,
    /// Degenerate-pivot streak at which the watchdog forces an out-of-cycle
    /// refactorization — a drifted basis representation can fake degeneracy
    /// (default 2 000).
    pub stall_refactor: u32,
    /// Force a refactorization once the eta file holds this many stored
    /// entries; `0` picks `16·m + 1024` at solve time.
    pub eta_nnz_limit: usize,
    /// Allow [`Simplex::solve_warm`] to restart from a parent basis
    /// (default true). When false a provided snapshot is ignored and the
    /// solve is cold.
    pub warm_start: bool,
    /// Dual-simplex pivot budget for one warm restart before it is
    /// abandoned for a cold start (default 1 000).
    pub warm_pivot_cap: u64,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: 200_000,
            deadline: None,
            stop: StopFlag::new(),
            fault: FaultPlan::none(),
            degen_limit: 60,
            stall_refactor: 2_000,
            eta_nnz_limit: 0,
            warm_start: true,
            warm_pivot_cap: 1_000,
        }
    }
}

/// Degenerate-pivot streak at which the solve is abandoned as numerically
/// unstable ([`LpStatus::Stalled`]). Bland's rule terminates in exact
/// arithmetic, so a streak this long under Bland's pricing means floating
/// point is cycling; burning the rest of a branch-and-bound budget on one LP
/// would be worse than reporting the stall.
const STALL_ABORT: u32 = 50_000;

impl SimplexOptions {
    fn eta_cap(&self, m: usize) -> usize {
        if self.eta_nnz_limit == 0 {
            16 * m + 1024
        } else {
            self.eta_nnz_limit
        }
    }
}

/// Immutable problem data compiled from a [`Model`].
#[derive(Debug, Clone)]
struct Problem {
    m: usize,
    n_struct: usize,
    /// Structural + slack columns (artificials live in `Work`).
    n: usize,
    cols: Vec<Vec<(u32, f64)>>,
    slack_lb: Vec<f64>,
    slack_ub: Vec<f64>,
    b: Vec<f64>,
    /// Minimization cost vector over structural columns.
    cost: Vec<f64>,
    obj_constant: f64,
    maximize: bool,
}

/// Reusable per-solve state. Indices `0..n` are structural + slack columns;
/// `n..n+arts` are artificial columns (single signed entry each).
#[derive(Debug, Clone, Default)]
struct Work {
    lb: Vec<f64>,
    ub: Vec<f64>,
    at_upper: Vec<bool>,
    basic_row: Vec<i32>,
    art_row: Vec<u32>,
    art_sign: Vec<f64>,
    basis: Vec<u32>,
    xb: Vec<f64>,
    /// The basis representation: LU factor plus eta file.
    lu: SparseBasis,
    /// Pricing buffer `y = c_B' B^{-1}`.
    y: Vec<f64>,
    /// Transformed entering column `v = B^{-1} A_j`.
    v: Vec<f64>,
    /// Dual-row buffer `rho = e_r' B^{-1}` for the dual pivot.
    rho: Vec<f64>,
    /// Devex reference weights of the basic rows, for the dual loop's
    /// leaving-row choice.
    devex: Vec<f64>,
    /// BTRAN input scratch (basic costs / unit vectors, basis-position
    /// coordinates).
    cb: Vec<f64>,
    /// Gather buffer for the sparse entries of one column.
    colbuf: Vec<(u32, f64)>,
    /// Dense row-space scratch: `b - N x_N` and row residuals.
    rhs: Vec<f64>,
    /// Phase cost vector (resized as artificials appear).
    cost: Vec<f64>,
    iterations: u64,
    degen_streak: u32,
    refactors: u64,
    eta_pivots: u64,
    warm: WarmStart,
    ftran_nanos: u64,
    btran_nanos: u64,
    factor_nanos: u64,
    /// Whether the last solve ended `Optimal`: only then may a snapshot
    /// carry a factor mark.
    optimal: bool,
}

/// A sparse-column LP instance with reusable solver workspace.
///
/// Build once per model with [`Simplex::new`]; call [`Simplex::solve`] with
/// per-solve structural bounds (branch-and-bound tightens bounds without
/// rebuilding the matrix).
#[derive(Debug, Clone)]
pub struct Simplex {
    p: Problem,
    w: Work,
}

impl Simplex {
    /// Compiles `model` into a solvable instance. Constraint rows and the
    /// objective are fixed; structural bounds are passed to
    /// [`Simplex::solve`].
    pub fn new(model: &Model) -> Self {
        let m = model.num_constraints();
        let n_struct = model.num_vars();
        let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_struct + m];
        let mut slack_lb = Vec::with_capacity(m);
        let mut slack_ub = Vec::with_capacity(m);
        let mut b = Vec::with_capacity(m);
        for (i, row) in model.rows.iter().enumerate() {
            for &(v, c) in &row.coeffs {
                cols[v.index()].push((i as u32, c));
            }
            cols[n_struct + i].push((i as u32, 1.0));
            let (lo, hi) = match row.sense {
                RowSense::Le => (0.0, f64::INFINITY),
                RowSense::Ge => (f64::NEG_INFINITY, 0.0),
                RowSense::Eq => (0.0, 0.0),
            };
            slack_lb.push(lo);
            slack_ub.push(hi);
            b.push(row.rhs);
        }
        let maximize = model.obj_sense == Sense::Maximize;
        let mut cost = vec![0.0; n_struct];
        for &(v, c) in &model.objective {
            cost[v.index()] = if maximize { -c } else { c };
        }
        Simplex {
            p: Problem {
                m,
                n_struct,
                n: n_struct + m,
                cols,
                slack_lb,
                slack_ub,
                b,
                cost,
                obj_constant: model.obj_constant,
                maximize,
            },
            w: Work::default(),
        }
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.p.m
    }

    /// Solves the LP relaxation with the given structural bounds from a
    /// cold (slack) basis. See [`Simplex::solve_warm`].
    pub fn solve(&mut self, lb: &[f64], ub: &[f64], opts: &SimplexOptions) -> LpOutcome {
        self.solve_warm(lb, ub, opts, None)
    }

    /// Solves the LP relaxation with the given structural bounds.
    ///
    /// `lb`/`ub` must have one entry per structural variable. A crossed
    /// bound pair (`lb[j] > ub[j]`) describes an empty box and reports
    /// [`LpStatus::Infeasible`] — branch-and-bound tightens bounds
    /// concurrently with pruning, so an empty box is a legitimate node, not
    /// a caller bug.
    ///
    /// When `warm` carries a parent [`Basis`] (and `opts.warm_start` is on),
    /// the snapshot basis is installed — by rolling the eta file back to the
    /// snapshot's factor mark when it is still valid here, else by
    /// refactorizing — and a bounded dual simplex re-establishes primal
    /// feasibility before the ordinary primal clean-up pass; if anything
    /// goes wrong the restart is abandoned for a cold start
    /// ([`WarmStart::Abandoned`]), never failed.
    ///
    /// # Panics
    ///
    /// Panics if the bound slices have the wrong length.
    pub fn solve_warm(
        &mut self,
        lb: &[f64],
        ub: &[f64],
        opts: &SimplexOptions,
        warm: Option<&Basis>,
    ) -> LpOutcome {
        let out = self.run(lb, ub, opts, warm);
        self.w.optimal = out.status == LpStatus::Optimal;
        out
    }

    /// The body of [`Simplex::solve_warm`], which records how it ended.
    fn run(
        &mut self,
        lb: &[f64],
        ub: &[f64],
        opts: &SimplexOptions,
        warm: Option<&Basis>,
    ) -> LpOutcome {
        let p = &self.p;
        assert_eq!(lb.len(), p.n_struct, "lower-bound slice length mismatch");
        assert_eq!(ub.len(), p.n_struct, "upper-bound slice length mismatch");
        if (0..p.n_struct).any(|j| lb[j] > ub[j]) {
            return LpOutcome {
                status: LpStatus::Infeasible,
                objective: f64::NAN,
                values: vec![],
                iterations: 0,
                refactors: 0,
                eta_pivots: 0,
                warm: WarmStart::Cold,
                ftran_nanos: 0,
                btran_nanos: 0,
                factor_nanos: 0,
            };
        }

        // The counters cover the whole solve: an abandoned warm start keeps
        // what it spent.
        reset_counters(&mut self.w);
        if opts.warm_start {
            if let Some(snap) = warm {
                if snap.basis.len() == p.m && snap.at_upper.len() == p.n {
                    if let Some(status) = try_warm(p, &mut self.w, snap, lb, ub, opts) {
                        return extract(p, &self.w, status);
                    }
                    self.w.warm = WarmStart::Abandoned;
                }
            }
        }

        init_work(p, &mut self.w, lb, ub);
        self.w.lu.reset_identity(p.m);
        if let Some(outcome) = phase1(p, &mut self.w, opts) {
            return outcome;
        }
        let status = phase2_finish(p, &mut self.w, opts);
        extract(p, &self.w, status)
    }

    /// Captures the current basis for reuse by a child node, or `None` when
    /// the basis is not reusable (no solve happened yet, or an artificial
    /// column is still basic after a degenerate phase 1). After an
    /// `Optimal` solve the snapshot also marks the current factor,
    /// so a child solved here can return to it without refactorizing.
    pub fn basis_snapshot(&self) -> Option<Basis> {
        let (p, w) = (&self.p, &self.w);
        if w.basis.len() != p.m || w.basis.iter().any(|&bv| bv as usize >= p.n) {
            return None;
        }
        Some(Basis {
            basis: w.basis.clone(),
            at_upper: w.at_upper[..p.n].to_vec(),
            mark: w.optimal.then(|| w.lu.mark()),
        })
    }
}

fn nb_value(w: &Work, j: usize) -> f64 {
    let (lo, hi) = (w.lb[j], w.ub[j]);
    if w.at_upper[j] {
        if hi.is_finite() {
            hi
        } else {
            0.0
        }
    } else if lo.is_finite() {
        lo
    } else if hi.is_finite() {
        hi
    } else {
        0.0
    }
}

/// Iterates the sparse entries of column `j` (structural, slack, or
/// artificial).
#[inline]
fn for_col(p: &Problem, w: &Work, j: usize, mut f: impl FnMut(usize, f64)) {
    if j < p.n {
        for &(i, a) in &p.cols[j] {
            f(i as usize, a);
        }
    } else {
        let idx = j - p.n;
        f(w.art_row[idx] as usize, w.art_sign[idx]);
    }
}

fn init_work(p: &Problem, w: &mut Work, lb: &[f64], ub: &[f64]) {
    let m = p.m;
    w.lb.clear();
    w.ub.clear();
    w.lb.extend_from_slice(lb);
    w.ub.extend_from_slice(ub);
    w.lb.extend_from_slice(&p.slack_lb);
    w.ub.extend_from_slice(&p.slack_ub);

    w.at_upper.clear();
    w.at_upper.resize(p.n, false);
    for j in 0..p.n_struct {
        // Rest nonbasic structurals at the finite bound nearest zero.
        w.at_upper[j] = match (w.lb[j].is_finite(), w.ub[j].is_finite()) {
            (true, true) => w.ub[j].abs() < w.lb[j].abs(),
            (true, false) => false,
            (false, true) => true,
            (false, false) => false, // free: rests at 0
        };
    }

    w.art_row.clear();
    w.art_sign.clear();
    w.basic_row.clear();
    w.basic_row.resize(p.n, -1);
    w.basis.clear();
    w.basis.extend((0..m).map(|i| (p.n_struct + i) as u32));
    for i in 0..m {
        w.basic_row[p.n_struct + i] = i as i32;
    }
    w.xb.clear();
    w.xb.resize(m, 0.0);
    w.y.clear();
    w.y.resize(m, 0.0);
    w.v.clear();
    w.v.resize(m, 0.0);
    w.rho.clear();
    w.rho.resize(m, 0.0);
    w.cb.clear();
    w.cb.resize(m, 0.0);
    w.degen_streak = 0;
}

/// Zeroes the per-solve effort counters reported in [`LpOutcome`].
fn reset_counters(w: &mut Work) {
    w.iterations = 0;
    w.refactors = 0;
    w.eta_pivots = 0;
    w.warm = WarmStart::Cold;
    w.ftran_nanos = 0;
    w.btran_nanos = 0;
    w.factor_nanos = 0;
}

/// Fills `w.rhs` with the residual of the slack-basis start: `b - N x_N`
/// for the current nonbasic rest positions, per row.
fn start_residual(p: &Problem, w: &mut Work) {
    let mut r = std::mem::take(&mut w.rhs);
    r.clear();
    r.extend_from_slice(&p.b);
    for j in 0..p.n_struct {
        let x = nb_value(w, j);
        if x != 0.0 {
            for &(i, a) in &p.cols[j] {
                r[i as usize] -= a * x;
            }
        }
    }
    w.rhs = r;
}

/// Installs the initial basis; adds artificial columns where the slack
/// cannot absorb the residual and runs phase 1 over them. Returns an
/// outcome early only on infeasibility or an iteration-limit hit.
#[allow(clippy::needless_range_loop)] // rows index several parallel arrays
fn phase1(p: &Problem, w: &mut Work, opts: &SimplexOptions) -> Option<LpOutcome> {
    start_residual(p, w);
    for i in 0..p.m {
        let s = p.n_struct + i;
        let r = w.rhs[i];
        if r >= w.lb[s] - FEAS_TOL && r <= w.ub[s] + FEAS_TOL {
            w.xb[i] = r.clamp(w.lb[s].max(f64::NEG_INFINITY), w.ub[s]);
        } else {
            // Pin the slack nonbasic at its nearest bound and absorb the
            // remainder in a signed artificial column.
            let pin = if r > w.ub[s] { w.ub[s] } else { w.lb[s] };
            w.basic_row[s] = -1;
            w.at_upper[s] = pin == w.ub[s] && w.ub[s].is_finite();
            let rem = r - pin;
            let aj = p.n + w.art_row.len();
            // The artificial column is sign(rem) * e_i; the (still
            // diagonal) basis representation carries the same sign.
            w.lu.set_diag_sign(i, rem.signum());
            w.art_row.push(i as u32);
            w.art_sign.push(rem.signum());
            w.lb.push(0.0);
            w.ub.push(f64::INFINITY);
            w.at_upper.push(false);
            w.basic_row.push(i as i32);
            w.basis[i] = aj as u32;
            w.xb[i] = rem.abs();
        }
    }
    // Artificial columns are numbered consecutively from `p.n`.
    let artificial_cols = p.n..p.n + w.art_row.len();
    if artificial_cols.is_empty() {
        return None;
    }
    w.cost.clear();
    w.cost.resize(p.n, 0.0);
    w.cost.resize(artificial_cols.end, 1.0);
    let cost = std::mem::take(&mut w.cost);
    let status = optimize(p, w, &cost, opts);
    w.cost = cost;
    if status != LpStatus::Optimal {
        // An interrupted phase 1 (iteration limit, deadline, stall
        // watchdog) proves nothing about feasibility: the artificial sum
        // below is only an infeasibility certificate at a phase-1
        // *optimum*. Propagate the interruption instead — reporting
        // `Infeasible` here would let branch-and-bound prune a subtree
        // that merely solved slowly. Phase 1 minimizes a sum bounded
        // below by zero, so `Unbounded` can only be numerical noise;
        // degrade it to `Stalled` rather than invent an unbounded ray.
        let status = if status == LpStatus::Unbounded {
            LpStatus::Stalled
        } else {
            status
        };
        return Some(LpOutcome {
            status,
            objective: f64::NAN,
            values: vec![],
            iterations: w.iterations,
            refactors: w.refactors,
            eta_pivots: w.eta_pivots,
            warm: w.warm,
            ftran_nanos: w.ftran_nanos,
            btran_nanos: w.btran_nanos,
            factor_nanos: w.factor_nanos,
        });
    }
    let infeas: f64 = (0..p.m)
        .filter(|&i| w.basis[i] as usize >= p.n)
        .map(|i| w.xb[i].max(0.0))
        .sum();
    if infeas > PHASE1_INFEAS_TOL {
        return Some(LpOutcome {
            status: LpStatus::Infeasible,
            objective: f64::NAN,
            values: vec![],
            iterations: w.iterations,
            refactors: w.refactors,
            eta_pivots: w.eta_pivots,
            warm: w.warm,
            ftran_nanos: w.ftran_nanos,
            btran_nanos: w.btran_nanos,
            factor_nanos: w.factor_nanos,
        });
    }
    // Freeze artificials at zero so phase 2 cannot reuse them; basic
    // artificials at ~0 sit in degenerate or redundant rows and get pivoted
    // out where a usable pivot exists.
    for aj in artificial_cols {
        w.lb[aj] = 0.0;
        w.ub[aj] = 0.0;
    }
    pivot_out_artificials(p, w);
    None
}

/// Phase 2 on the real objective from the current (feasible) basis,
/// including the residual-at-optimality re-check.
fn phase2_finish(p: &Problem, w: &mut Work, opts: &SimplexOptions) -> LpStatus {
    let total = p.n + w.art_row.len();
    w.cost.clear();
    w.cost.resize(total, 0.0);
    w.cost[..p.n_struct].copy_from_slice(&p.cost);
    let cost = std::mem::take(&mut w.cost);
    let mut status = optimize(p, w, &cost, opts);
    if status == LpStatus::Optimal && !residual_ok(p, w) {
        refactor(p, w);
        status = optimize(p, w, &cost, opts);
    }
    w.cost = cost;
    status
}

/// Attempts to replace basic artificial variables (at value 0) with
/// structural or slack columns.
fn pivot_out_artificials(p: &Problem, w: &mut Work) {
    let m = p.m;
    for row in 0..m {
        if (w.basis[row] as usize) < p.n {
            continue;
        }
        // Row `row` of B^{-1} A_j = rho . A_j over candidates.
        btran_unit(w, row);
        let mut best: Option<(usize, f64)> = None;
        for j in 0..p.n {
            if w.basic_row[j] >= 0 || w.lb[j] == w.ub[j] {
                continue;
            }
            let mut t = 0.0;
            for &(i, a) in &p.cols[j] {
                t += w.rho[i as usize] * a;
            }
            if t.abs() > ARTIFICIAL_PIVOT_TOL && best.is_none_or(|(_, bt)| t.abs() > bt.abs()) {
                best = Some((j, t));
            }
        }
        if let Some((j, _)) = best {
            compute_column(p, w, j);
            let enter_val = nb_value(w, j);
            let v = std::mem::take(&mut w.v);
            apply_pivot(w, row, j, &v, enter_val);
            w.v = v;
        }
    }
}

/// Fills `w.colbuf` with the sparse entries of column `j`.
fn gather_col(p: &Problem, w: &mut Work, j: usize) {
    w.colbuf.clear();
    if j < p.n {
        w.colbuf.extend_from_slice(&p.cols[j]);
    } else {
        let idx = j - p.n;
        w.colbuf.push((w.art_row[idx], w.art_sign[idx]));
    }
}

/// Fills `w.v = B^{-1} A_j` (FTRAN of the entering column).
fn compute_column(p: &Problem, w: &mut Work, j: usize) {
    gather_col(p, w, j);
    let t0 = std::time::Instant::now();
    w.lu.ftran_col(&w.colbuf, &mut w.v);
    w.ftran_nanos += t0.elapsed().as_nanos() as u64;
}

/// Fills `w.y = c_B' B^{-1}` (BTRAN of the basic costs).
fn btran_cb(w: &mut Work, cost: &[f64]) {
    for (k, &bv) in w.basis.iter().enumerate() {
        w.cb[k] = cost[bv as usize];
    }
    let t0 = std::time::Instant::now();
    w.lu.btran(&mut w.cb, &mut w.y);
    w.btran_nanos += t0.elapsed().as_nanos() as u64;
}

/// Fills `w.rho = e_r' B^{-1}` (row `r` of the basis inverse).
fn btran_unit(w: &mut Work, r: usize) {
    let t0 = std::time::Instant::now();
    w.cb.iter_mut().for_each(|x| *x = 0.0);
    w.cb[r] = 1.0;
    w.lu.btran(&mut w.cb, &mut w.rho);
    w.btran_nanos += t0.elapsed().as_nanos() as u64;
}

/// The checks every pivot-loop iteration, primal or dual, makes before it
/// prices: the iteration cap, then (amortized over 256 iterations) the stop
/// flag and the deadline, then one hit of the [`FaultSite::SimplexPivot`]
/// fault site. `Some` is the status to stop with. An injected stall takes
/// the watchdog's abandon path, a spurious timeout the deadline path, and a
/// panic unwinds from inside `fire` itself.
fn checkpoint(w: &Work, opts: &SimplexOptions) -> Option<LpStatus> {
    if w.iterations >= opts.max_iterations {
        return Some(LpStatus::IterLimit);
    }
    if w.iterations.is_multiple_of(256)
        && (opts.stop.is_stopped()
            || opts
                .deadline
                .is_some_and(|deadline| std::time::Instant::now() >= deadline))
    {
        return Some(LpStatus::IterLimit);
    }
    match opts.fault.fire(FaultSite::SimplexPivot)? {
        FaultAction::Stall => Some(LpStatus::Stalled),
        FaultAction::SpuriousTimeout => Some(LpStatus::IterLimit),
        FaultAction::Panic | FaultAction::PerturbIncumbent => None,
    }
}

/// Core primal simplex loop minimizing `cost` from the current basis.
#[allow(clippy::needless_range_loop)] // columns index several parallel arrays
fn optimize(p: &Problem, w: &mut Work, cost: &[f64], opts: &SimplexOptions) -> LpStatus {
    let m = p.m;
    loop {
        if let Some(status) = checkpoint(w, opts) {
            return status;
        }
        if w.lu.eta_nnz() >= opts.eta_cap(m) {
            refactor(p, w);
        }
        btran_cb(w, cost);
        // Pricing.
        let total = p.n + w.art_row.len();
        let bland = w.degen_streak >= opts.degen_limit;
        let mut enter: Option<(usize, f64, i8)> = None; // (col, |d|, dir)
        for j in 0..total {
            if w.basic_row[j] >= 0 || w.lb[j] == w.ub[j] {
                continue;
            }
            let mut d = cost[j];
            for_col(p, w, j, |i, a| d -= w.y[i] * a);
            let free = !w.lb[j].is_finite() && !w.ub[j].is_finite();
            let dir: i8 = if free {
                if d < -OPT_TOL {
                    1
                } else if d > OPT_TOL {
                    -1
                } else {
                    0
                }
            } else if w.at_upper[j] {
                if d > OPT_TOL {
                    -1
                } else {
                    0
                }
            } else if d < -OPT_TOL {
                1
            } else {
                0
            };
            if dir == 0 {
                continue;
            }
            if bland {
                enter = Some((j, d.abs(), dir));
                break;
            }
            if enter.is_none_or(|(_, best, _)| d.abs() > best) {
                enter = Some((j, d.abs(), dir));
            }
        }
        let Some((j, _, dir)) = enter else {
            return LpStatus::Optimal;
        };

        compute_column(p, w, j);
        let sigma = dir as f64;

        // Ratio test: step `t >= 0` in direction sigma.
        let span = w.ub[j] - w.lb[j]; // may be inf
        let mut t_best = if span.is_finite() {
            span
        } else {
            f64::INFINITY
        };
        let mut leave: Option<(usize, bool)> = None; // (row, leaves_at_upper)
        for k in 0..m {
            let wk = sigma * w.v[k];
            if wk.abs() <= PIVOT_TOL {
                continue;
            }
            let bvar = w.basis[k] as usize;
            // x_Bk moves by -t * wk.
            let (limit, at_up) = if wk > 0.0 {
                (w.lb[bvar], false)
            } else {
                (w.ub[bvar], true)
            };
            if !limit.is_finite() {
                continue;
            }
            let t = ((w.xb[k] - limit) / wk).max(0.0);
            if t < t_best - RATIO_TIE_TOL
                || (t < t_best + RATIO_TIE_TOL
                    && leave.is_some_and(|(lk, _)| w.v[k].abs() > w.v[lk].abs()))
            {
                t_best = t;
                leave = Some((k, at_up));
            }
        }

        if t_best.is_infinite() {
            return LpStatus::Unbounded;
        }
        w.iterations += 1;
        w.degen_streak = if t_best < DEGEN_STEP_TOL {
            w.degen_streak + 1
        } else {
            0
        };
        // Watchdog escalation: Bland's rule engaged at `degen_limit` (see
        // `bland` above); a persisting streak next forces a refactorization
        // (a drifted basis representation can fake degeneracy), and finally
        // abandons the solve rather than cycle forever on an unstable
        // instance.
        if w.degen_streak == opts.stall_refactor {
            refactor(p, w);
        } else if w.degen_streak >= STALL_ABORT {
            return LpStatus::Stalled;
        }

        match leave {
            None => {
                // Bound flip: entering runs to its opposite bound.
                for k in 0..m {
                    w.xb[k] -= sigma * t_best * w.v[k];
                }
                w.at_upper[j] = !w.at_upper[j];
            }
            Some((row, leaves_at_upper)) => {
                let enter_val = nb_value(w, j) + sigma * t_best;
                for k in 0..m {
                    if k != row {
                        w.xb[k] -= sigma * t_best * w.v[k];
                    }
                }
                let leaving = w.basis[row] as usize;
                w.at_upper[leaving] = leaves_at_upper;
                let v = std::mem::take(&mut w.v);
                apply_pivot(w, row, j, &v, enter_val);
                w.v = v;
            }
        }
    }
}

/// Outcome of the dual-simplex feasibility restoration loop.
enum DualResult {
    /// Primal feasibility restored; hand over to the primal clean-up pass.
    Feasible,
    /// A basic variable's row proves the child's box empty (no column can
    /// move it toward its violated bound).
    Infeasible,
    /// Budget/cancellation/fault exit with the status to report.
    Interrupted(LpStatus),
    /// Numerical trouble or pivot cap: abandon the warm start.
    Abandon,
}

/// Installs a parent basis snapshot and re-solves via dual simplex + primal
/// clean-up. `None` means the restart was given up for a cold start.
fn try_warm(
    p: &Problem,
    w: &mut Work,
    snap: &Basis,
    lb: &[f64],
    ub: &[f64],
    opts: &SimplexOptions,
) -> Option<LpStatus> {
    init_work(p, w, lb, ub);
    // Rollback or refactorization below replaces the basis representation,
    // so no identity is built first; a singular snapshot is abandoned, and
    // the cold start then resets the basis to the identity.

    // Install the snapshot: nonbasic rest sides, then the basis itself.
    w.at_upper.copy_from_slice(&snap.at_upper);
    w.basic_row.iter_mut().for_each(|x| *x = -1);
    w.basis.copy_from_slice(&snap.basis);
    for (k, &bv) in w.basis.iter().enumerate() {
        w.basic_row[bv as usize] = k as i32;
    }
    // Return to the parent's own factor when this basis still holds it:
    // the factor at the mark represents exactly the snapshot basis, so only
    // `x_B` has to follow the child's bounds, and the etas it keeps still
    // count toward the eta-file budget.
    if snap.mark.is_some_and(|mark| w.lu.rollback(mark)) {
        recompute_xb(p, w);
    } else if !refactor(p, w) {
        // A singular snapshot (possible after aggressive bound fixing)
        // abandons the restart.
        return None;
    }
    w.warm = WarmStart::Taken;

    w.cost.clear();
    w.cost.resize(p.n, 0.0);
    w.cost[..p.n_struct].copy_from_slice(&p.cost);
    let cost = std::mem::take(&mut w.cost);
    let dual = dual_restore(p, w, &cost, opts);
    w.cost = cost;
    match dual {
        DualResult::Feasible => Some(phase2_finish(p, w, opts)),
        DualResult::Infeasible => Some(LpStatus::Infeasible),
        DualResult::Interrupted(status) => Some(status),
        DualResult::Abandon => None,
    }
}

/// Bounded dual simplex: starting from a dual-feasible basis (the parent's
/// optimal basis with unchanged costs), drives out primal bound violations
/// introduced by the child's bound change. The leaving row is priced by
/// Devex (Forrest & Goldfarb 1992): the row maximizing `viol^2 / w_r`. The
/// reference weights `w` start at 1 on every entry (the exact steepest-edge
/// weights of a slack basis) and are updated from the entering column, so
/// they cost no extra solve. The entering column comes from the dual ratio
/// test `min |d_j / alpha_j|` over sign-eligible columns; no eligible
/// column proves infeasibility (the row is a Farkas certificate over the
/// box).
///
/// The duals `y = c_B' B^{-1}` are BTRANed on entry and after any
/// refactorization, and in between updated from the pivot row:
/// `y += (d_j / alpha_rj) * rho_r` (Koberstein 2005). The primal clean-up
/// that follows recomputes them before it trusts optimality.
#[allow(clippy::needless_range_loop)] // rows/columns index parallel arrays
fn dual_restore(p: &Problem, w: &mut Work, cost: &[f64], opts: &SimplexOptions) -> DualResult {
    let m = p.m;
    let mut pivots: u64 = 0;
    let mut y_current = false;
    w.devex.clear();
    w.devex.resize(m, 1.0);
    loop {
        // Leaving row: the largest Devex-weighted bound violation.
        let mut leave: Option<(usize, f64, bool)> = None; // (row, score, above)
        for k in 0..m {
            let bv = w.basis[k] as usize;
            let below = w.lb[bv] - w.xb[k];
            let above = w.xb[k] - w.ub[bv];
            let (viol, is_above) = if above > below {
                (above, true)
            } else {
                (below, false)
            };
            if viol > FEAS_TOL {
                let score = viol * viol / w.devex[k];
                if leave.is_none_or(|(_, best, _)| score > best) {
                    leave = Some((k, score, is_above));
                }
            }
        }
        let Some((r, _, above)) = leave else {
            return DualResult::Feasible;
        };
        if pivots >= opts.warm_pivot_cap {
            return DualResult::Abandon;
        }
        if let Some(status) = checkpoint(w, opts) {
            return DualResult::Interrupted(status);
        }
        if w.lu.eta_nnz() >= opts.eta_cap(m) {
            refactor(p, w);
            y_current = false;
        }
        btran_unit(w, r);
        if !y_current {
            btran_cb(w, cost);
            y_current = true;
        }
        // Entering column: dual ratio test over sign-eligible nonbasics.
        // `alpha = rho . A_j` is the pivot row entry; moving x_j by `s`
        // moves x_Br by `-s * alpha`, so eligibility is a sign condition on
        // alpha against the column's rest side and the violation side.
        let mut best: Option<(usize, f64, f64, f64)> = None; // (col, ratio, alpha, d)
        for j in 0..p.n {
            if w.basic_row[j] >= 0 || w.lb[j] == w.ub[j] {
                continue;
            }
            let mut alpha = 0.0;
            let mut d = cost[j];
            for &(i, a) in &p.cols[j] {
                alpha += w.rho[i as usize] * a;
                d -= w.y[i as usize] * a;
            }
            if alpha.abs() <= PIVOT_TOL {
                continue;
            }
            let free = !w.lb[j].is_finite() && !w.ub[j].is_finite();
            let eligible = free
                || if above {
                    // Need x_Br to decrease: s*alpha > 0.
                    if w.at_upper[j] {
                        alpha < 0.0
                    } else {
                        alpha > 0.0
                    }
                } else {
                    // Need x_Br to increase: s*alpha < 0.
                    if w.at_upper[j] {
                        alpha > 0.0
                    } else {
                        alpha < 0.0
                    }
                };
            if !eligible {
                continue;
            }
            let ratio = d.abs() / alpha.abs();
            let better = match best {
                None => true,
                Some((_, bratio, balpha, _)) => {
                    ratio < bratio - RATIO_TIE_TOL
                        || (ratio < bratio + RATIO_TIE_TOL && alpha.abs() > balpha.abs())
                }
            };
            if better {
                best = Some((j, ratio, alpha, d));
            }
        }
        let Some((j, _, alpha, d)) = best else {
            return DualResult::Infeasible;
        };
        compute_column(p, w, j);
        let vr = w.v[r];
        if vr.abs() <= PIVOT_TOL {
            // FTRAN disagrees with the BTRAN row — the factorization has
            // drifted; a cold start is safer than pivoting on noise.
            return DualResult::Abandon;
        }
        let bvr = w.basis[r] as usize;
        let target = if above { w.ub[bvr] } else { w.lb[bvr] };
        let s = (w.xb[r] - target) / vr;
        w.iterations += 1;
        pivots += 1;
        let enter_val = nb_value(w, j) + s;
        let wr = w.devex[r];
        for k in 0..m {
            if k != r {
                w.xb[k] -= s * w.v[k];
                let ratio = w.v[k] / vr;
                w.devex[k] = w.devex[k].max(ratio * ratio * wr);
            }
        }
        w.devex[r] = (wr / (vr * vr)).max(1.0);
        w.at_upper[bvr] = above;
        let v = std::mem::take(&mut w.v);
        apply_pivot(w, r, j, &v, enter_val);
        w.v = v;
        let theta = d / alpha;
        for (yi, &ri) in w.y.iter_mut().zip(&w.rho) {
            *yi += theta * ri;
        }
    }
}

/// Replaces the basic variable of `row` with column `j`, given the
/// transformed entering column `v = B^{-1} A_j`, updating the basis
/// representation (one eta) and bookkeeping.
fn apply_pivot(w: &mut Work, row: usize, j: usize, v: &[f64], enter_val: f64) {
    let leaving = w.basis[row] as usize;
    w.basic_row[leaving] = -1;
    w.basis[row] = j as u32;
    w.basic_row[j] = row as i32;
    w.xb[row] = enter_val;
    w.lu.push_eta(row, v);
    w.eta_pivots += 1;
}

/// Rebuilds the basis representation (and `xb`) from the basis columns.
/// Returns false when the basis is numerically singular, in which case the
/// previous representation (LU factor plus etas) stays in place for the
/// residual check to judge.
fn refactor(p: &Problem, w: &mut Work) -> bool {
    let m = p.m;
    let Work {
        lu,
        basis,
        art_row,
        art_sign,
        ..
    } = w;
    let col = |q: usize, f: &mut dyn FnMut(usize, f64)| {
        let bv = basis[q] as usize;
        if bv < p.n {
            for &(i, a) in &p.cols[bv] {
                f(i as usize, a);
            }
        } else {
            let idx = bv - p.n;
            f(art_row[idx] as usize, art_sign[idx]);
        }
    };
    let t0 = std::time::Instant::now();
    let ok = lu.refactor(m, col);
    w.factor_nanos += t0.elapsed().as_nanos() as u64;
    if ok {
        recompute_xb(p, w);
        w.refactors += 1;
    }
    ok
}

/// Recomputes basic values `x_B = B^{-1} (b - N x_N)`.
fn recompute_xb(p: &Problem, w: &mut Work) {
    let total = p.n + w.art_row.len();
    let mut rhs = std::mem::take(&mut w.rhs);
    rhs.clear();
    rhs.extend_from_slice(&p.b);
    for j in 0..total {
        if w.basic_row[j] >= 0 {
            continue;
        }
        let x = nb_value(w, j);
        if x != 0.0 {
            for_col(p, w, j, |i, a| rhs[i] -= a * x);
        }
    }
    let t0 = std::time::Instant::now();
    w.lu.ftran_rhs(&rhs, &mut w.xb);
    w.ftran_nanos += t0.elapsed().as_nanos() as u64;
    w.rhs = rhs;
}

/// Verifies `A x = b` within tolerance for the current point.
fn residual_ok(p: &Problem, w: &mut Work) -> bool {
    let total = p.n + w.art_row.len();
    let mut r = std::mem::take(&mut w.rhs);
    r.clear();
    r.extend_from_slice(&p.b);
    for j in 0..total {
        let x = if w.basic_row[j] >= 0 {
            w.xb[w.basic_row[j] as usize]
        } else {
            nb_value(w, j)
        };
        if x != 0.0 {
            for_col(p, w, j, |i, a| r[i] -= a * x);
        }
    }
    let ok = r.iter().all(|x| x.abs() <= RESIDUAL_TOL);
    w.rhs = r;
    ok
}

fn extract(p: &Problem, w: &Work, status: LpStatus) -> LpOutcome {
    let mut values = vec![0.0; p.n_struct];
    if status == LpStatus::Optimal {
        for (j, value) in values.iter_mut().enumerate() {
            *value = if w.basic_row[j] >= 0 {
                w.xb[w.basic_row[j] as usize]
            } else {
                nb_value(w, j)
            };
        }
    }
    let raw: f64 = values.iter().zip(&p.cost).map(|(x, c)| x * c).sum();
    let objective = if status == LpStatus::Optimal {
        if p.maximize {
            -raw + p.obj_constant
        } else {
            raw + p.obj_constant
        }
    } else {
        f64::NAN
    };
    LpOutcome {
        status,
        objective,
        values,
        iterations: w.iterations,
        refactors: w.refactors,
        eta_pivots: w.eta_pivots,
        warm: w.warm,
        ftran_nanos: w.ftran_nanos,
        btran_nanos: w.btran_nanos,
        factor_nanos: w.factor_nanos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    /// Solves `model` at its own bounds from a cold start.
    fn solve_lp(model: &Model) -> LpOutcome {
        let mut sx = Simplex::new(model);
        let lb: Vec<f64> = (0..model.num_vars()).map(|j| model.vars[j].lb).collect();
        let ub: Vec<f64> = (0..model.num_vars()).map(|j| model.vars[j].ub).collect();
        sx.solve(&lb, &ub, &SimplexOptions::default())
    }

    #[test]
    fn trivial_bounds_only() {
        let mut m = Model::new();
        let x = m.num_var(1.0, 5.0, "x");
        m.set_objective(Sense::Minimize, [(x, 1.0)]);
        let out = solve_lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective - 1.0).abs() < 1e-8);
    }

    #[test]
    fn classic_2d_max() {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> obj 36 at (2, 6)
        let mut m = Model::new();
        let x = m.num_var(0.0, f64::INFINITY, "x");
        let y = m.num_var(0.0, f64::INFINITY, "y");
        m.set_objective(Sense::Maximize, [(x, 3.0), (y, 5.0)]);
        m.add_le([(x, 1.0)], 4.0, "c1");
        m.add_le([(y, 2.0)], 12.0, "c2");
        m.add_le([(x, 3.0), (y, 2.0)], 18.0, "c3");
        let out = solve_lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective - 36.0).abs() < 1e-7, "{}", out.objective);
        assert!((out.values[0] - 2.0).abs() < 1e-7);
        assert!((out.values[1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn equality_rows_need_phase1() {
        // min x + y st x + y = 10, x - y = 4 -> x=7, y=3, obj 10
        let mut m = Model::new();
        let x = m.num_var(0.0, f64::INFINITY, "x");
        let y = m.num_var(0.0, f64::INFINITY, "y");
        m.set_objective(Sense::Minimize, [(x, 1.0), (y, 1.0)]);
        m.add_eq([(x, 1.0), (y, 1.0)], 10.0, "sum");
        m.add_eq([(x, 1.0), (y, -1.0)], 4.0, "diff");
        let out = solve_lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.values[0] - 7.0).abs() < 1e-7);
        assert!((out.values[1] - 3.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 1.0, "x");
        m.add_ge([(x, 1.0)], 2.0, "too-big");
        let out = solve_lp(&m);
        assert_eq!(out.status, LpStatus::Infeasible);
    }

    #[test]
    fn interrupted_phase1_is_not_an_infeasibility_proof() {
        // min x + y st x + y = 10 needs an artificial at the slack start.
        // Stall the very first phase-1 pivot: the solve must report the
        // interruption, not mistake the still-positive artificial for a
        // Farkas certificate (a feasible subtree would be pruned).
        let mut m = Model::new();
        let x = m.num_var(0.0, 8.0, "x");
        let y = m.num_var(0.0, 8.0, "y");
        m.set_objective(Sense::Minimize, [(x, 1.0), (y, 1.0)]);
        m.add_eq([(x, 1.0), (y, 1.0)], 10.0, "sum");
        let opts = SimplexOptions {
            fault: crate::fault::FaultPlan::single(
                crate::fault::FaultSite::SimplexPivot,
                crate::fault::FaultAction::Stall,
                1,
            ),
            ..Default::default()
        };
        let mut sx = Simplex::new(&m);
        let out = sx.solve(&[0.0, 0.0], &[8.0, 8.0], &opts);
        assert_eq!(
            out.status,
            LpStatus::Stalled,
            "stalled phase 1 must propagate, got {:?}",
            out.status
        );
        // And without the fault the same model solves fine.
        let ok = sx.solve(&[0.0, 0.0], &[8.0, 8.0], &SimplexOptions::default());
        assert_eq!(ok.status, LpStatus::Optimal);
        assert!((ok.objective - 10.0).abs() < 1e-7);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new();
        let x = m.num_var(0.0, f64::INFINITY, "x");
        m.set_objective(Sense::Maximize, [(x, 1.0)]);
        m.add_ge([(x, 1.0)], 1.0, "at-least-one");
        let out = solve_lp(&m);
        assert_eq!(out.status, LpStatus::Unbounded);
    }

    #[test]
    fn ge_rows_and_negative_coeffs() {
        let mut m = Model::new();
        let x = m.num_var(0.0, f64::INFINITY, "x");
        let y = m.num_var(0.0, 3.0, "y");
        m.set_objective(Sense::Minimize, [(x, 2.0), (y, 3.0)]);
        m.add_ge([(x, 1.0), (y, 1.0)], 4.0, "c1");
        m.add_le([(x, 1.0), (y, -1.0)], 2.0, "c2");
        let out = solve_lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective - 9.0).abs() < 1e-7, "{}", out.objective);
    }

    #[test]
    fn free_variable_enters() {
        // min x st x + y = 3, y in [0, 1], x free -> x = 2
        let mut m = Model::new();
        let x = m.num_var(f64::NEG_INFINITY, f64::INFINITY, "x");
        let y = m.num_var(0.0, 1.0, "y");
        m.set_objective(Sense::Minimize, [(x, 1.0)]);
        m.add_eq([(x, 1.0), (y, 1.0)], 3.0, "sum");
        let out = solve_lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective - 2.0).abs() < 1e-7, "{}", out.objective);
    }

    #[test]
    fn negative_lower_bounds() {
        let mut m = Model::new();
        let x = m.num_var(-5.0, 5.0, "x");
        let y = m.num_var(-5.0, 5.0, "y");
        m.set_objective(Sense::Minimize, [(x, 1.0), (y, 1.0)]);
        m.add_ge([(x, 1.0), (y, 1.0)], -3.0, "floor");
        let out = solve_lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective + 3.0).abs() < 1e-7, "{}", out.objective);
    }

    #[test]
    fn bound_flip_path() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 1.0, "x");
        let y = m.num_var(0.0, 1.0, "y");
        m.set_objective(Sense::Maximize, [(x, 1.0), (y, 1.0)]);
        m.add_le([(x, 1.0), (y, 1.0)], 1.5, "cap");
        let out = solve_lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective - 1.5).abs() < 1e-7);
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 10.0, "x");
        let y = m.num_var(0.0, 10.0, "y");
        m.set_objective(Sense::Maximize, [(x, 1.0), (y, 1.0)]);
        for i in 0..20 {
            let a = 1.0 + (i as f64) * 0.1;
            m.add_le([(x, a), (y, 1.0)], 10.0, format!("c{i}"));
        }
        let out = solve_lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!(out.objective > 0.0);
    }

    #[test]
    fn fixed_variables_are_respected() {
        let mut m = Model::new();
        let x = m.num_var(2.0, 2.0, "x");
        let y = m.num_var(0.0, 10.0, "y");
        m.set_objective(Sense::Minimize, [(y, 1.0)]);
        m.add_ge([(x, 1.0), (y, 1.0)], 5.0, "c");
        let out = solve_lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.values[1] - 3.0).abs() < 1e-7);
    }

    #[test]
    fn workspace_reuse_across_solves() {
        // The same instance solved repeatedly with different bounds must
        // give fresh, correct answers each time.
        let mut m = Model::new();
        let x = m.num_var(0.0, 10.0, "x");
        let y = m.num_var(0.0, 10.0, "y");
        m.set_objective(Sense::Maximize, [(x, 1.0), (y, 2.0)]);
        m.add_le([(x, 1.0), (y, 1.0)], 6.0, "cap");
        let mut sx = Simplex::new(&m);
        let opts = SimplexOptions::default();
        let o1 = sx.solve(&[0.0, 0.0], &[10.0, 10.0], &opts);
        assert!((o1.objective - 12.0).abs() < 1e-7); // y = 6
        let o2 = sx.solve(&[0.0, 0.0], &[10.0, 2.0], &opts);
        assert!((o2.objective - 8.0).abs() < 1e-7); // y = 2, x = 4
        let o3 = sx.solve(&[5.0, 5.0], &[10.0, 10.0], &opts);
        assert_eq!(o3.status, LpStatus::Infeasible); // 5 + 5 > 6
        let o4 = sx.solve(&[0.0, 0.0], &[10.0, 10.0], &opts);
        assert!((o4.objective - 12.0).abs() < 1e-7);
    }

    #[test]
    fn warm_restart_matches_cold_solve() {
        // Parent LP, snapshot, tighten one bound (exactly the B&B child
        // pattern), warm solve must agree with a cold solve and actually
        // take the warm path.
        let m = three_var_model();
        let mut sx = Simplex::new(&m);
        let opts = SimplexOptions::default();
        let parent = sx.solve(&[0.0; 3], &[10.0; 3], &opts);
        assert_eq!(parent.status, LpStatus::Optimal);
        let snap = sx.basis_snapshot().expect("clean optimal basis");

        // Child: force z <= 3 (tighter than its relaxation value).
        let child_ub = [10.0, 10.0, 3.0];
        let warm = sx.solve_warm(&[0.0; 3], &child_ub, &opts, Some(&snap));
        assert_eq!(warm.status, LpStatus::Optimal);
        assert_eq!(warm.warm, WarmStart::Taken);
        let cold = sx.solve(&[0.0; 3], &child_ub, &opts);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-7,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert!(
            warm.iterations <= cold.iterations,
            "warm restart took more pivots ({}) than cold ({})",
            warm.iterations,
            cold.iterations
        );
    }

    /// The `warm_restart_matches_cold_solve` model: a parent snapshot
    /// whose child `z <= 3` needs dual pivots.
    fn three_var_model() -> Model {
        let mut m = Model::new();
        let x = m.num_var(0.0, 10.0, "x");
        let y = m.num_var(0.0, 10.0, "y");
        let z = m.num_var(0.0, 10.0, "z");
        m.set_objective(Sense::Maximize, [(x, 3.0), (y, 2.0), (z, 4.0)]);
        m.add_le([(x, 1.0), (y, 1.0), (z, 1.0)], 7.5, "cap");
        m.add_le([(x, 2.0), (z, 1.0)], 9.0, "mix");
        m
    }

    #[test]
    fn warm_install_rolls_back_only_to_its_own_factor() {
        let m = three_var_model();
        let child_ub = [10.0, 10.0, 3.0];
        let sparse = SimplexOptions::default();
        let cold = Simplex::new(&m).solve(&[0.0; 3], &child_ub, &sparse);
        let mut sx = Simplex::new(&m);
        assert_eq!(
            sx.solve(&[0.0; 3], &[10.0; 3], &sparse).status,
            LpStatus::Optimal
        );
        let snap = sx.basis_snapshot().expect("clean optimal basis");

        // Both siblings return to the parent's factor without refactorizing,
        // the second after the first pushed its own etas.
        for _ in 0..2 {
            let child = sx.solve_warm(&[0.0; 3], &child_ub, &sparse, Some(&snap));
            assert_eq!((child.warm, child.refactors), (WarmStart::Taken, 0));
            assert!(child.eta_pivots > 0, "the child must pivot");
            assert!((child.objective - cold.objective).abs() < 1e-7);
        }

        // Another Simplex refuses the mark and refactorizes the snapshot.
        let mut other = Simplex::new(&m);
        other.solve(&[0.0; 3], &[10.0; 3], &sparse);
        let foreign = other.solve_warm(&[0.0; 3], &child_ub, &sparse, Some(&snap));
        assert_eq!((foreign.warm, foreign.refactors), (WarmStart::Taken, 1));

        // So does this one after a cold solve reset its factor.
        sx.solve(&[0.0; 3], &child_ub, &sparse);
        let stale = sx.solve_warm(&[0.0; 3], &child_ub, &sparse, Some(&snap));
        assert_eq!((stale.warm, stale.refactors), (WarmStart::Taken, 1));
        for out in [&foreign, &stale] {
            assert!(
                (out.objective - cold.objective).abs() < 1e-7,
                "{}",
                out.objective
            );
        }
    }

    #[test]
    fn snapshot_after_a_non_optimal_solve_carries_no_mark() {
        let m = three_var_model();
        let mut sx = Simplex::new(&m);
        sx.solve(&[0.0; 3], &[10.0; 3], &SimplexOptions::default());
        assert!(sx.basis_snapshot().expect("snapshot").mark.is_some());
        let capped = SimplexOptions {
            max_iterations: 0,
            ..Default::default()
        };
        assert_eq!(
            sx.solve(&[0.0; 3], &[10.0; 3], &capped).status,
            LpStatus::IterLimit
        );
        assert!(sx.basis_snapshot().expect("snapshot").mark.is_none());
    }

    #[test]
    fn warm_restart_detects_child_infeasibility() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 10.0, "x");
        let y = m.num_var(0.0, 10.0, "y");
        m.set_objective(Sense::Minimize, [(x, 1.0), (y, 1.0)]);
        m.add_ge([(x, 1.0), (y, 1.0)], 8.0, "floor");
        let mut sx = Simplex::new(&m);
        let opts = SimplexOptions::default();
        let parent = sx.solve(&[0.0; 2], &[10.0; 2], &opts);
        assert_eq!(parent.status, LpStatus::Optimal);
        let snap = sx.basis_snapshot().expect("snapshot");
        // x <= 3 and y <= 3 cannot reach x + y >= 8.
        let out = sx.solve_warm(&[0.0; 2], &[3.0, 3.0], &opts, Some(&snap));
        assert_eq!(out.status, LpStatus::Infeasible);
    }

    #[test]
    fn warm_start_disabled_is_cold() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 4.0, "x");
        m.set_objective(Sense::Maximize, [(x, 1.0)]);
        m.add_le([(x, 1.0)], 3.0, "cap");
        let mut sx = Simplex::new(&m);
        let opts = SimplexOptions::default();
        sx.solve(&[0.0], &[4.0], &opts);
        let snap = sx.basis_snapshot().expect("snapshot");
        let off = SimplexOptions {
            warm_start: false,
            ..Default::default()
        };
        let out = sx.solve_warm(&[0.0], &[2.0], &off, Some(&snap));
        assert_eq!(out.status, LpStatus::Optimal);
        assert_eq!(out.warm, WarmStart::Cold);
    }

    #[test]
    fn sparse_engine_counts_eta_pivots() {
        let mut m = Model::new();
        let x = m.num_var(0.0, f64::INFINITY, "x");
        let y = m.num_var(0.0, f64::INFINITY, "y");
        m.set_objective(Sense::Maximize, [(x, 3.0), (y, 5.0)]);
        m.add_le([(x, 1.0)], 4.0, "c1");
        m.add_le([(y, 2.0)], 12.0, "c2");
        m.add_le([(x, 3.0), (y, 2.0)], 18.0, "c3");
        let out = solve_lp(&m);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!(out.eta_pivots > 0, "basis-changing pivots must record etas");
        assert_eq!(out.warm, WarmStart::Cold);
    }
}
