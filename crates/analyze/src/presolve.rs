//! Certified ILP presolve for modulo-scheduling models.
//!
//! Every reduction below is a logical consequence of constraints already in
//! the model (dependence rows, assignment rows, variable bounds), so the set
//! of feasible *integer* points — and therefore the certified II and
//! objective — is preserved exactly. The reductions are:
//!
//! * **Stage-bound tightening** — longest-path ASAP/ALAP windows imply
//!   `floor(asap_i/II) <= k_i <= floor(alap_i/II)` for the stage variable of
//!   every operation (integer rounding of the time decomposition
//!   `t_i = k_i*II + row_i`, `0 <= row_i <= II-1`). Upper bounds are always
//!   applied; lower bounds only when the window pins the stage to a single
//!   value (see [`presolve`] for why).
//! * **Binary fixing** — when an operation's time window spans fewer than
//!   `II` cycles, MRT rows outside the cyclic interval
//!   `[asap mod II .. alap mod II]` are unreachable and their `a_{i,row}`
//!   binaries are fixed to 0 (to 1 when a single row remains, by the
//!   assignment row).
//! * **Redundant-row elimination** — a row whose activity bounds (extreme
//!   values of its left-hand side over the variable boxes) already satisfy
//!   its sense can never be violated and is dropped.
//! * **Conflict-clique detection** — packing rows over MRT binaries
//!   (unit coefficients, right-hand side 1) are surfaced as lint findings;
//!   they are the cliques a conflict-graph branching rule would exploit.

use optimod_ddg::Loop;
use optimod_ilp::{Model, RowSense, SolveStats, VarId};

use crate::lint::{Finding, LintCode};

/// Tolerance for the floating-point comparisons of activity bounds. All
/// scheduling rows have integral coefficients, bounds, and right-hand
/// sides, so any true difference is at least 1.
const EPS: f64 = 1e-9;

/// The formulation-level context presolve needs alongside the raw
/// [`Model`]: how the scheduler's variables map onto operations.
///
/// Mirrors the fields of `optimod::BuiltModel` without depending on it
/// (the core crate depends on this one, not vice versa).
#[derive(Debug, Clone, Copy)]
pub struct IlpContext<'a> {
    /// The tentative initiation interval the model was built for.
    pub ii: u32,
    /// Number of stages (`k_i` ranges over `0..num_stages`).
    pub num_stages: i64,
    /// `a[op][row]`: the MRT binaries of each operation (`row < ii`).
    pub a: &'a [Vec<VarId>],
    /// `k[op]`: the stage variable of each operation.
    pub k: &'a [VarId],
}

/// Options controlling which reductions run and what they report.
#[derive(Debug, Clone, Copy)]
pub struct PresolveOptions {
    /// Tighten stage-variable bounds from ASAP/ALAP windows.
    pub tighten_stage_bounds: bool,
    /// Fix MRT binaries outside narrow cyclic windows.
    pub fix_binaries: bool,
    /// Drop rows whose activity bounds prove them redundant.
    pub eliminate_rows: bool,
    /// Collect per-reduction [`Finding`]s (`OM101..OM104`). The scheduler's
    /// hot path leaves this off and reads only the counters; lint mode
    /// turns it on.
    pub collect_findings: bool,
}

impl Default for PresolveOptions {
    fn default() -> Self {
        PresolveOptions {
            tighten_stage_bounds: true,
            fix_binaries: true,
            eliminate_rows: true,
            collect_findings: false,
        }
    }
}

/// What one presolve run did to one model.
#[derive(Debug, Clone, Default)]
pub struct PresolveSummary {
    /// Constraint rows removed as redundant.
    pub rows_eliminated: u64,
    /// MRT binaries fixed to 0 or 1.
    pub binaries_fixed: u64,
    /// Stage variables whose bounds were strictly tightened.
    pub bounds_tightened: u64,
    /// Presolve proved the model infeasible (an empty time window or a row
    /// violated by the variable boxes). The model is left solvable — the
    /// reductions applied so far stand — so callers may still run the
    /// solver to obtain its own infeasibility proof.
    pub infeasible: bool,
    /// Per-reduction findings (empty unless
    /// [`PresolveOptions::collect_findings`]).
    pub findings: Vec<Finding>,
}

impl PresolveSummary {
    /// This run as solver effort: one presolve pass and its reductions in
    /// the `presolve_*` counters, ready for [`SolveStats::absorb`].
    pub fn stats(&self) -> SolveStats {
        SolveStats {
            presolve_runs: 1,
            presolve_rows_eliminated: self.rows_eliminated,
            presolve_binaries_fixed: self.binaries_fixed,
            presolve_bounds_tightened: self.bounds_tightened,
            presolve_infeasible: u64::from(self.infeasible),
            ..SolveStats::default()
        }
    }
}

/// Presolves a modulo-scheduling model in place.
///
/// Sound by construction: only removes rows implied by the remaining
/// constraints and tightens variable bounds to values every feasible
/// integer point already satisfies, so the optimal II and objective are
/// unchanged (the equivalence is proptested end-to-end in the core crate
/// and every presolved solve is still certified by `optimod-verify`).
pub fn presolve(
    model: &mut Model,
    l: &Loop,
    ctx: &IlpContext<'_>,
    opts: &PresolveOptions,
) -> PresolveSummary {
    let mut s = PresolveSummary::default();
    let ii = ctx.ii as i64;
    if ii <= 0 || ctx.num_stages <= 0 {
        return s;
    }
    let Some(windows) = time_windows(l, ctx) else {
        // Positive cycle at this II: the caller's own MII machinery already
        // rejects this case before building a model.
        return s;
    };
    if opts.tighten_stage_bounds {
        tighten_stage_bounds(model, ctx, &windows, opts, &mut s);
    }
    if opts.fix_binaries {
        fix_window_binaries(model, l, ctx, &windows, opts, &mut s);
    }
    if opts.eliminate_rows {
        eliminate_redundant_rows(model, opts, &mut s);
    }
    if opts.collect_findings {
        s.findings.extend(detect_cliques(model));
    }
    s
}

/// `[asap, alap]` per operation, from longest paths over
/// `latency - II*distance`. `None` when the graph has a positive cycle at
/// this II (i.e. `II < RecMII`).
fn time_windows(l: &Loop, ctx: &IlpContext<'_>) -> Option<Vec<(i64, i64)>> {
    let n = l.num_ops();
    let ii = ctx.ii as i64;
    let t_max = ctx
        .num_stages
        .checked_mul(ii)
        .map(|x| x - 1)
        .filter(|&x| x >= 0)?;
    // ASAP: longest path into each op from a virtual source (weight 0).
    let mut asap = vec![0i64; n];
    relax_to_fixpoint(l, ii, &mut asap, false)?;
    // Longest path *from* each op (relax over reversed edges); the ALAP
    // time is the stage horizon minus that tail.
    let mut down = vec![0i64; n];
    relax_to_fixpoint(l, ii, &mut down, true)?;
    Some((0..n).map(|i| (asap[i], t_max - down[i])).collect())
}

/// Bellman-Ford longest-path fixpoint; `reversed` relaxes `from` against
/// `to` (computing the longest path *out of* each vertex). Returns `None`
/// on a positive cycle.
fn relax_to_fixpoint(l: &Loop, ii: i64, dist: &mut [i64], reversed: bool) -> Option<()> {
    let n = l.num_ops();
    for round in 0..=n {
        let mut changed = false;
        for e in l.edges() {
            let w = e.latency - ii * e.distance as i64;
            let (src, dst) = if reversed {
                (e.to.index(), e.from.index())
            } else {
                (e.from.index(), e.to.index())
            };
            let cand = dist[src] + w;
            if cand > dist[dst] {
                dist[dst] = cand;
                changed = true;
            }
        }
        if !changed {
            return Some(());
        }
        if round == n {
            return None;
        }
    }
    Some(())
}

/// Tightens each `k_i` toward `[floor(asap/II), floor(alap/II)]`.
///
/// Valid for every feasible integer point: `t_i = k_i*II + row_i` with
/// `0 <= row_i < II`, and the dependence rows force `asap <= t_i <= alap`,
/// so `k_i = floor(t_i/II)` lies in the tightened interval. Upper bounds
/// are applied unconditionally; lower bounds only when they pin the
/// variable (`lb == ub`) — see the inline comment.
fn tighten_stage_bounds(
    model: &mut Model,
    ctx: &IlpContext<'_>,
    windows: &[(i64, i64)],
    opts: &PresolveOptions,
    s: &mut PresolveSummary,
) {
    let ii = ctx.ii as i64;
    for (i, &(asap, alap)) in windows.iter().enumerate() {
        if asap > alap {
            s.infeasible = true;
            continue;
        }
        let var = ctx.k[i];
        let (cur_lb, cur_ub) = (model.lb(var), model.ub(var));
        let mut lb = (asap.div_euclid(ii) as f64).max(cur_lb);
        let ub = (alap.div_euclid(ii) as f64).min(cur_ub);
        // Raising a lower bound moves the variable's crash position (the
        // simplex starts structurals nonbasic at their lower bound), which
        // perturbs every LP re-solve for an LP-implied gain of zero — the
        // dependence rows already force `t_i >= asap` in the relaxation.
        // So lower bounds move only when the window pins the stage
        // outright, removing the variable from the search; upper bounds
        // always shrink (they leave the crash basis alone).
        if lb < ub {
            lb = cur_lb;
        }
        if lb > ub {
            s.infeasible = true;
            continue;
        }
        if lb > cur_lb || ub < cur_ub {
            model.set_bounds(var, lb, ub);
            s.bounds_tightened += 1;
            if opts.collect_findings {
                s.findings.push(Finding::new(
                    LintCode::StageBoundTightened,
                    model.var_name(var).to_string(),
                    format!(
                        "stage bounds [{cur_lb}, {cur_ub}] tightened to [{lb}, {ub}] \
                         from time window [{asap}, {alap}]"
                    ),
                ));
            }
        }
    }
}

/// Fixes MRT binaries outside an operation's cyclic row window to 0 (and
/// the single surviving row, if any, to 1).
fn fix_window_binaries(
    model: &mut Model,
    l: &Loop,
    ctx: &IlpContext<'_>,
    windows: &[(i64, i64)],
    opts: &PresolveOptions,
    s: &mut PresolveSummary,
) {
    let ii = ctx.ii as i64;
    for (i, &(asap, alap)) in windows.iter().enumerate() {
        if asap > alap || alap - asap + 1 >= ii {
            continue; // window covers every row; nothing to fix
        }
        let mut allowed = vec![false; ii as usize];
        for t in asap..=alap {
            allowed[t.rem_euclid(ii) as usize] = true;
        }
        let mut fixed_here = 0u64;
        let survivors: Vec<usize> = (0..ii as usize).filter(|&r| allowed[r]).collect();
        for (r, &var) in ctx.a[i].iter().enumerate() {
            if !allowed[r] && model.ub(var) > 0.5 {
                model.set_bounds(var, 0.0, 0.0);
                fixed_here += 1;
            }
        }
        if survivors.len() == 1 {
            let var = ctx.a[i][survivors[0]];
            if model.lb(var) < 0.5 {
                model.set_bounds(var, 1.0, 1.0);
                fixed_here += 1;
            }
        }
        if fixed_here > 0 {
            s.binaries_fixed += fixed_here;
            if opts.collect_findings {
                s.findings.push(Finding::new(
                    LintCode::BinaryFixed,
                    l.op(optimod_ddg::OpId::from_index(i)).name.clone(),
                    format!(
                        "{fixed_here} MRT binaries fixed: time window [{asap}, {alap}] \
                         reaches only rows {survivors:?} of 0..{ii}"
                    ),
                ));
            }
        }
    }
}

/// Removes rows whose activity bounds prove them unconditionally satisfied.
fn eliminate_redundant_rows(model: &mut Model, opts: &PresolveOptions, s: &mut PresolveSummary) {
    let n = model.num_constraints();
    let mut drop = vec![false; n];
    for (i, dropped) in drop.iter_mut().enumerate() {
        let row = model.row(i);
        let (mut min_act, mut max_act) = (0.0f64, 0.0f64);
        for &(v, c) in row.coeffs {
            let (lb, ub) = (model.lb(v), model.ub(v));
            if c >= 0.0 {
                min_act += c * lb;
                max_act += c * ub;
            } else {
                min_act += c * ub;
                max_act += c * lb;
            }
        }
        let (redundant, violated) = match row.sense {
            RowSense::Le => (max_act <= row.rhs + EPS, min_act > row.rhs + EPS),
            RowSense::Ge => (min_act >= row.rhs - EPS, max_act < row.rhs - EPS),
            RowSense::Eq => (
                max_act <= row.rhs + EPS && min_act >= row.rhs - EPS,
                min_act > row.rhs + EPS || max_act < row.rhs - EPS,
            ),
        };
        if violated {
            // The variable boxes alone violate the row: the model is
            // infeasible. Keep the row so a subsequent solve proves it.
            s.infeasible = true;
        } else if redundant {
            *dropped = true;
            s.rows_eliminated += 1;
            if opts.collect_findings {
                s.findings.push(Finding::new(
                    LintCode::RedundantRow,
                    row.name.to_string(),
                    format!(
                        "activity bounds [{min_act}, {max_act}] already satisfy \
                         {:?} {}; row removed",
                        row.sense, row.rhs
                    ),
                ));
            }
        }
    }
    if s.rows_eliminated > 0 {
        model.retain_rows(|i| !drop[i]);
    }
}

/// Detects conflict cliques among binaries: rows of unit coefficients over
/// binary variables with right-hand side 1 (`<=` is a packing clique, `=`
/// an equality clique — at most/exactly one member can be 1).
pub fn detect_cliques(model: &Model) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..model.num_constraints() {
        let row = model.row(i);
        if (row.rhs - 1.0).abs() > EPS || row.coeffs.len() < 2 {
            continue;
        }
        if !matches!(row.sense, RowSense::Le | RowSense::Eq) {
            continue;
        }
        let all_unit_binary = row.coeffs.iter().all(|&(v, c)| {
            (c - 1.0).abs() <= EPS
                && model.is_integer(v)
                && model.lb(v) >= -EPS
                && model.ub(v) <= 1.0 + EPS
        });
        if !all_unit_binary {
            continue;
        }
        let free: Vec<&(VarId, f64)> = row
            .coeffs
            .iter()
            .filter(|&&(v, _)| model.ub(v) > 0.5 && model.lb(v) < 0.5)
            .collect();
        if free.len() < 2 {
            continue; // degenerate after fixing; nothing left to conflict
        }
        let kind = if row.sense == RowSense::Eq {
            "exactly-one"
        } else {
            "at-most-one"
        };
        out.push(Finding::new(
            LintCode::ConflictClique,
            row.name.to_string(),
            format!(
                "{kind} clique over {} free binaries (a conflict-graph \
                 branching rule could branch on the clique as a unit)",
                free.len()
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimod_ddg::LoopBuilder;
    use optimod_machine::{example_3fu, OpClass};

    /// Hand-builds the variable skeleton of a structured formulation for a
    /// two-op chain: `a[i][r]` binaries, `k[i]` stages, assignment rows.
    fn two_op_chain(
        latency_override: i64,
        ii: u32,
        num_stages: i64,
    ) -> (Model, Loop, Vec<Vec<VarId>>, Vec<VarId>) {
        let m = example_3fu();
        let mut b = LoopBuilder::new("chain");
        let x = b.op(OpClass::Load, "x");
        let y = b.op(OpClass::Store, "y");
        b.dep(x, y, latency_override, 0, optimod_ddg::DepKind::Control);
        let l = b.build(&m);
        let mut model = Model::new();
        let mut a = Vec::new();
        let mut k = Vec::new();
        for i in 0..2 {
            let rows: Vec<VarId> = (0..ii)
                .map(|r| model.bool_var(format!("a{i}_{r}")))
                .collect();
            let expr: Vec<(VarId, f64)> = rows.iter().map(|&v| (v, 1.0)).collect();
            model.add_eq(expr, 1.0, format!("assign{i}"));
            a.push(rows);
            k.push(model.int_var(0.0, (num_stages - 1) as f64, format!("k{i}")));
        }
        (model, l, a, k)
    }

    #[test]
    fn stage_bounds_tighten_from_windows() {
        let (mut model, l, a, k) = two_op_chain(2, 2, 2);
        let ctx = IlpContext {
            ii: 2,
            num_stages: 2,
            a: &a,
            k: &k,
        };
        let s = presolve(&mut model, &l, &ctx, &PresolveOptions::default());
        // asap = [0, 2], down = [2, 0], Tmax = 3, alap = [1, 3]:
        // k0 in [0, 0], k1 in [1, 1].
        assert_eq!(s.bounds_tightened, 2);
        assert!(!s.infeasible);
        assert_eq!((model.lb(k[0]), model.ub(k[0])), (0.0, 0.0));
        assert_eq!((model.lb(k[1]), model.ub(k[1])), (1.0, 1.0));
    }

    #[test]
    fn narrow_window_fixes_binaries_both_ways() {
        // Latency 3 at II=2, 2 stages: windows [0,0] and [3,3].
        let (mut model, l, a, k) = two_op_chain(3, 2, 2);
        let ctx = IlpContext {
            ii: 2,
            num_stages: 2,
            a: &a,
            k: &k,
        };
        let s = presolve(&mut model, &l, &ctx, &PresolveOptions::default());
        // Op 0 must issue at row 0 (a0_1 := 0, a0_0 := 1); op 1 at row 1.
        assert_eq!(s.binaries_fixed, 4);
        assert_eq!((model.lb(a[0][0]), model.ub(a[0][0])), (1.0, 1.0));
        assert_eq!((model.lb(a[0][1]), model.ub(a[0][1])), (0.0, 0.0));
        assert_eq!((model.lb(a[1][1]), model.ub(a[1][1])), (1.0, 1.0));
        // Fully-fixed assignment rows become redundant and are dropped.
        assert_eq!(s.rows_eliminated, 2);
        assert_eq!(model.num_constraints(), 0);
    }

    #[test]
    fn redundant_row_is_eliminated_and_binding_row_kept() {
        let (mut model, l, a, k) = two_op_chain(1, 2, 4);
        let _ = model.add_le([(a[0][0], 1.0), (a[0][1], 1.0)], 5.0, "slack");
        let before = model.num_constraints();
        let ctx = IlpContext {
            ii: 2,
            num_stages: 4,
            a: &a,
            k: &k,
        };
        let opts = PresolveOptions {
            collect_findings: true,
            ..PresolveOptions::default()
        };
        let s = presolve(&mut model, &l, &ctx, &opts);
        // Only the slack row can be proven redundant; both assignment rows
        // stay (their activity can be 0 or 2).
        assert_eq!(s.rows_eliminated, 1);
        assert_eq!(model.num_constraints(), before - 1);
        assert!(s
            .findings
            .iter()
            .any(|f| f.code == LintCode::RedundantRow && f.subject == "slack"));
        // Assignment rows surface as exactly-one cliques.
        assert!(
            s.findings
                .iter()
                .filter(|f| f.code == LintCode::ConflictClique)
                .count()
                >= 2
        );
    }

    #[test]
    fn summaries_fold_into_solve_stats() {
        let mut s = PresolveSummary {
            rows_eliminated: 3,
            binaries_fixed: 2,
            bounds_tightened: 1,
            ..PresolveSummary::default()
        };
        let mut t = s.stats();
        s.infeasible = true;
        t.absorb(&s.stats());
        assert_eq!(t.presolve_runs, 2);
        assert_eq!(t.presolve_rows_eliminated, 6);
        assert_eq!(t.presolve_binaries_fixed, 4);
        assert_eq!(t.presolve_bounds_tightened, 2);
        assert_eq!(t.presolve_infeasible, 1);
        assert_eq!(t.bb_nodes, 0, "presolve does no search");
    }
}
