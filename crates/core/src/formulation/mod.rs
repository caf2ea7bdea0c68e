//! Integer-linear-programming formulations of the modulo scheduling space.
//!
//! For a candidate initiation interval `II`, a formulation consists of
//! (paper Section 3):
//!
//! * **variables** — a binary MRT-row matrix `a[op][row]` and an integer
//!   stage vector `k[op]`, so `time(op) = k*II + row`;
//! * **assignment constraints** (Eq. 1) — every operation occupies exactly
//!   one row;
//! * **dependence constraints** — either the *traditional* form (Ineq. 4)
//!   or the *0-1-structured* form (Ineq. 20), chosen by [`DepStyle`];
//! * **resource constraints** (Ineq. 5) — MRT packing respects the machine.
//!
//! Secondary objectives (register requirements, buffers, lifetimes) add
//! *kill pseudo-operations* per virtual register; see [`objective`].

pub mod dependence;
pub mod objective;

use optimod_ddg::{Loop, OpId};
use optimod_ilp::{LinExpr, Model, RowTag, SolveOutcome, VarId};
use optimod_machine::Machine;

use crate::error::ScheduleError;
use crate::mii::asap_times;
use crate::schedule::Schedule;

/// Which dependence-constraint formulation to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DepStyle {
    /// Inequality (4): row numbers weighted by `r`, stages by `II`.
    Traditional,
    /// Inequality (20): the paper's 0-1-structured contribution (default).
    #[default]
    Structured,
}

/// Secondary objective minimized among all schedules of the given `II`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// No objective — accept the first feasible integral schedule (the
    /// paper's *NoObj* scheduler).
    #[default]
    FirstFeasible,
    /// Minimize MaxLive, the exact register requirement (*MinReg*).
    MinMaxLive,
    /// Minimize buffers, registers reserved in multiples of `II`
    /// (*MinBuff*).
    MinBuffers,
    /// Minimize the cumulative register lifetime (*MinLife*).
    MinCumLifetime,
    /// Minimize the schedule length of one iteration (extension; mentioned
    /// in the paper's introduction as a common secondary objective).
    MinSchedLength,
}

impl Objective {
    /// Whether this objective requires kill pseudo-operations.
    pub fn needs_kills(self, style: DepStyle) -> bool {
        match self {
            Objective::FirstFeasible | Objective::MinSchedLength => false,
            Objective::MinMaxLive | Objective::MinBuffers => true,
            // The traditional MinLife formulation (after [16]) bounds
            // per-use lifetimes directly; the structured one re-weights the
            // kill-based live counts.
            Objective::MinCumLifetime => style == DepStyle::Structured,
        }
    }
}

/// Formulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct FormulationConfig {
    /// Dependence-constraint style.
    pub dep_style: DepStyle,
    /// Secondary objective.
    pub objective: Objective,
    /// Extra schedule length allowed beyond the dependence-height minimum
    /// (the paper uses 20 cycles "to achieve schedules with high transient
    /// performance").
    pub sched_len_slack: u32,
    /// Hard register-file constraint: only schedules with
    /// `MaxLive <= limit` are feasible. An extension toward the
    /// register-file-aware scheduling the paper's introduction motivates
    /// ("the size of the register files"); composes with any objective.
    pub max_live_limit: Option<u32>,
}

impl Default for FormulationConfig {
    fn default() -> Self {
        FormulationConfig {
            dep_style: DepStyle::Structured,
            objective: Objective::FirstFeasible,
            sched_len_slack: 20,
            max_live_limit: None,
        }
    }
}

/// A compiled formulation: the ILP model plus the variable maps needed to
/// recover a schedule or pin parts of it.
#[derive(Debug, Clone)]
pub struct BuiltModel {
    /// The integer program.
    pub model: Model,
    /// Initiation interval the model was built for.
    pub ii: u32,
    /// Number of stages allowed (`k` bounds are `[0, num_stages-1]`).
    pub num_stages: i64,
    /// `a[op][row]` binaries.
    pub a: Vec<Vec<VarId>>,
    /// `k[op]` stage integers.
    pub k: Vec<VarId>,
    /// `kill_row[vreg][row]` binaries (empty unless the objective needs
    /// kills).
    pub kill_row: Vec<Vec<VarId>>,
    /// `kill_stage[vreg]` integers (empty unless the objective needs
    /// kills).
    pub kill_stage: Vec<VarId>,
    /// The MaxLive variable for [`Objective::MinMaxLive`].
    pub max_live_var: Option<VarId>,
}

impl BuiltModel {
    /// The analyzer's view of this model: the variable-to-operation mapping
    /// [`optimod_analyze::presolve`] needs alongside the raw [`Model`].
    pub fn analyzer_context(&self) -> optimod_analyze::IlpContext<'_> {
        optimod_analyze::IlpContext {
            ii: self.ii,
            num_stages: self.num_stages,
            a: &self.a,
            k: &self.k,
        }
    }

    /// Recovers the concrete schedule from a solved model.
    ///
    /// # Panics
    ///
    /// Panics if `out` carries no solution or the solution does not decode
    /// into a schedule; use [`BuiltModel::try_extract_schedule`] for a
    /// non-panicking variant.
    pub fn extract_schedule(&self, out: &SolveOutcome) -> Schedule {
        match self.try_extract_schedule(out) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Recovers the concrete schedule from a solved model, reporting a
    /// no-solution outcome or an undecodable assignment as a typed error
    /// instead of panicking.
    pub fn try_extract_schedule(&self, out: &SolveOutcome) -> Result<Schedule, ScheduleError> {
        if !out.status.has_solution() {
            return Err(ScheduleError::MalformedSolution {
                detail: format!("no solution available (status: {})", out.status),
            });
        }
        let ii = self.ii as i64;
        let mut times = Vec::with_capacity(self.a.len());
        for (i, (rows, &k)) in self.a.iter().zip(&self.k).enumerate() {
            let row = rows
                .iter()
                .position(|&v| out.value(v) > 0.5)
                .ok_or_else(|| ScheduleError::MalformedSolution {
                    detail: format!("no MRT row selected for op{i} (assignment violated)"),
                })?;
            times.push(out.int_value(k) * ii + row as i64);
        }
        Ok(Schedule::new(self.ii, times))
    }

    /// Pins the MRT rows of every operation to those of `s` (used by the
    /// ILP-optimal stage-scheduling ablation: rows fixed, stages free).
    ///
    /// # Panics
    ///
    /// Panics if `s` has a different `II` than the model.
    pub fn fix_rows(&mut self, s: &Schedule) {
        assert_eq!(s.ii(), self.ii, "schedule II differs from model II");
        for (i, rows) in self.a.iter().enumerate() {
            let row = s.row(OpId::from_index(i)) as usize;
            for (r, &v) in rows.iter().enumerate() {
                let fixed = if r == row { 1.0 } else { 0.0 };
                self.model.set_bounds(v, fixed, fixed);
            }
        }
    }
}

/// Builds the ILP for scheduling `l` on `machine` at the given `ii`.
///
/// Returns `None` when `ii` is below the recurrence bound (no schedule of
/// any length exists, so no finite stage count can be chosen).
pub fn build_model(
    l: &Loop,
    machine: &Machine,
    ii: u32,
    cfg: &FormulationConfig,
) -> Option<BuiltModel> {
    assert!(ii > 0, "II must be positive");
    let asap = asap_times(l, ii)?;
    let min_len = asap.iter().copied().max().unwrap_or(0) + 1;
    let max_len = min_len + cfg.sched_len_slack as i64;
    let num_stages = max_len.div_euclid(ii as i64) + 1;

    let n = l.num_ops();
    let mut model = Model::new();

    // Variables: a[op][row] binaries and k[op] stages.
    let a: Vec<Vec<VarId>> = (0..n)
        .map(|i| {
            (0..ii)
                .map(|r| model.bool_var(format!("a[{i}][{r}]")))
                .collect()
        })
        .collect();
    let k: Vec<VarId> = (0..n)
        .map(|i| model.int_var(0.0, (num_stages - 1) as f64, format!("k[{i}]")))
        .collect();

    // Assignment constraints (Eq. 1), each declared as an ordered set in
    // MRT-row order so that branch and bound splits an operation's rows
    // "row < s" against "row >= s".
    for (i, rows) in a.iter().enumerate() {
        let before = model.num_constraints();
        model.add_ordered_set(rows, format!("assign[{i}]"));
        model.tag_rows_from(before, RowTag::Assignment(i as u32));
    }

    // Dependence constraints for every scheduling edge.
    for (ei, e) in l.edges().iter().enumerate() {
        let before = model.num_constraints();
        dependence::add_dependence(
            &mut model,
            cfg.dep_style,
            ii,
            (&a[e.from.index()], k[e.from.index()]),
            (&a[e.to.index()], k[e.to.index()]),
            e.latency,
            e.distance as i64,
            &format!("dep[{ei}]"),
        );
        model.tag_rows_from(before, RowTag::Dependence(ei as u32));
    }

    // Resource constraints (Ineq. 5). Following the paper, resources with a
    // single usage slot in the whole loop cannot conflict and are skipped;
    // a single operation with several usages of one resource *can* conflict
    // with its own copies from other iterations, so the criterion is the
    // total usage count, not the operation count.
    for q in machine.resources() {
        let mut slots: Vec<(usize, u32)> = Vec::new(); // (op, offset)
        for (i, op) in l.ops().iter().enumerate() {
            for &(r, c) in machine.usages(op.class) {
                if r == q {
                    slots.push((i, c));
                }
            }
        }
        if slots.len() < 2 {
            continue;
        }
        let cap = machine.resource_count(q) as f64;
        for r in 0..ii as i64 {
            let mut expr = LinExpr::new();
            for &(i, c) in &slots {
                let row = (r - c as i64).rem_euclid(ii as i64) as usize;
                expr.add_term(a[i][row], 1.0);
            }
            let before = model.num_constraints();
            model.add_le(expr, cap, format!("res[{}][{r}]", machine.resource_name(q)));
            model.tag_rows_from(
                before,
                RowTag::Resource {
                    resource: q.index() as u32,
                    row: r as u32,
                },
            );
        }
    }

    let mut built = BuiltModel {
        model,
        ii,
        num_stages,
        a,
        k,
        kill_row: Vec::new(),
        kill_stage: Vec::new(),
        max_live_var: None,
    };

    let before = built.model.num_constraints();
    objective::install(&mut built, l, cfg);
    built.model.tag_rows_from(before, RowTag::Objective);
    Some(built)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimod_ddg::kernels;
    use optimod_ilp::SolveStatus;
    use optimod_machine::example_3fu;

    fn solve_figure1(style: DepStyle) -> (BuiltModel, SolveOutcome) {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let cfg = FormulationConfig {
            dep_style: style,
            ..Default::default()
        };
        let built = build_model(&l, &m, 2, &cfg).expect("II=2 >= RecMII");
        let out = built.model.solve();
        (built, out)
    }

    #[test]
    fn figure1_feasible_at_ii2_traditional() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let (built, out) = solve_figure1(DepStyle::Traditional);
        assert_eq!(out.status, SolveStatus::Optimal);
        let s = built.extract_schedule(&out);
        assert_eq!(s.validate(&l, &m), None);
    }

    #[test]
    fn figure1_feasible_at_ii2_structured() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let (built, out) = solve_figure1(DepStyle::Structured);
        assert_eq!(out.status, SolveStatus::Optimal);
        let s = built.extract_schedule(&out);
        assert_eq!(s.validate(&l, &m), None);
    }

    #[test]
    fn figure1_infeasible_at_ii1() {
        // 5 ops, 3 FUs: II=1 cannot pack the MRT.
        let m = example_3fu();
        let l = kernels::figure1(&m);
        for style in [DepStyle::Traditional, DepStyle::Structured] {
            let cfg = FormulationConfig {
                dep_style: style,
                ..Default::default()
            };
            let built = build_model(&l, &m, 1, &cfg).unwrap();
            let out = built.model.solve();
            assert_eq!(out.status, SolveStatus::Infeasible, "{style:?}");
        }
    }

    #[test]
    fn rows_carry_provenance_tags() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let cfg = FormulationConfig {
            objective: Objective::MinMaxLive,
            ..Default::default()
        };
        let built = build_model(&l, &m, 2, &cfg).unwrap();
        let (mut assign, mut dep, mut res, mut obj) = (0usize, 0usize, 0usize, 0usize);
        for row in built.model.rows() {
            match row.tag {
                RowTag::Assignment(_) => {
                    assign += 1;
                    assert!(row.name.starts_with("assign["), "{}", row.name);
                }
                RowTag::Dependence(_) => {
                    dep += 1;
                    assert!(row.name.starts_with("dep["), "{}", row.name);
                }
                RowTag::Resource { .. } => {
                    res += 1;
                    assert!(row.name.starts_with("res["), "{}", row.name);
                }
                RowTag::Objective => obj += 1,
                RowTag::Untagged => panic!("builder left row {} untagged", row.name),
            }
        }
        assert_eq!(assign, l.num_ops());
        assert!(dep > 0 && res > 0 && obj > 0);
    }

    #[test]
    fn below_recmii_yields_no_model() {
        let m = example_3fu();
        let l = kernels::lfk5_tridiag(&m); // RecMII 5
        let cfg = FormulationConfig::default();
        assert!(build_model(&l, &m, 4, &cfg).is_none());
        assert!(build_model(&l, &m, 5, &cfg).is_some());
    }

    #[test]
    fn formulation_sizes_grow_with_style() {
        // Structured emits II dependence rows per edge; traditional emits 1.
        let m = example_3fu();
        let l = kernels::lfk1_hydro(&m);
        let t = build_model(&l, &m, 3, &FormulationConfig::default()).unwrap();
        let trad = build_model(
            &l,
            &m,
            3,
            &FormulationConfig {
                dep_style: DepStyle::Traditional,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(t.model.num_constraints() > trad.model.num_constraints());
        assert_eq!(t.model.num_vars(), trad.model.num_vars());
    }
}
