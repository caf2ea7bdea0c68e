//! Stage scheduling: reduce the register requirements of an existing
//! modulo schedule by reassigning stages while keeping MRT rows fixed.
//!
//! Because moving an operation by whole multiples of `II` does not change
//! its MRT row, resource constraints stay satisfied for free; only the
//! dependence constraints restrict stage choices. This is the insight of
//! the stage-scheduling heuristics (Eichenberger & Davidson, MICRO-28 — the
//! paper's references \[9\] and \[10\]) whose register quality Section 6 of the
//! paper measures against the optimal MinReg/MinLife/MinBuff schedulers.
//!
//! Two entry points:
//!
//! * [`stage_schedule`] — the heuristic: iterative per-operation moves
//!   within dependence slack, greedily minimizing total register lifetime.
//! * [`optimal_stages`] — the exact variant: re-solve the ILP with every
//!   row variable pinned (an ablation of how much the heuristic leaves on
//!   the table).

use optimod_ddg::{Loop, OpId};
use optimod_ilp::{SolveLimits, SolveStatus};
use optimod_machine::Machine;

use crate::formulation::{build_model, DepStyle, FormulationConfig, Objective};
use crate::schedule::Schedule;

/// `ceil(a / b)` for positive `b`.
fn ceil_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    -((-a).div_euclid(b))
}

/// Minimum stage separation implied by an edge once both rows are fixed:
/// `k_to - k_from >= ceil((latency - distance*II - row_to + row_from)/II)`.
fn stage_gap(latency: i64, distance: i64, row_from: i64, row_to: i64, ii: i64) -> i64 {
    ceil_div(latency - distance * ii - row_to + row_from, ii)
}

/// Improves the stages of `s` (rows unchanged) to reduce cumulative
/// register lifetime, a proxy that also lowers MaxLive in practice.
///
/// The result is always a valid schedule for `l`; when no improving move
/// exists the input stages are returned unchanged.
///
/// # Panics
///
/// Panics if `s` is not a valid schedule for `l` on `machine`.
pub fn stage_schedule(l: &Loop, machine: &Machine, s: &Schedule) -> Schedule {
    assert_eq!(
        s.validate(l, machine),
        None,
        "stage scheduling requires a valid input schedule"
    );
    let ii = s.ii() as i64;
    let n = l.num_ops();
    let rows: Vec<i64> = (0..n).map(|i| s.row(OpId::from_index(i)) as i64).collect();
    let mut stages: Vec<i64> = (0..n).map(|i| s.stage(OpId::from_index(i))).collect();

    // Evaluates the cumulative lifetime of the registers touching `op`
    // under candidate stages.
    let cost_around = |op: usize, stages: &[i64]| -> i64 {
        let time = |i: usize| stages[i] * ii + rows[i];
        let mut cost = 0i64;
        for vr in l.vregs() {
            let involved = vr.def.index() == op || vr.uses.iter().any(|u| u.op.index() == op);
            if !involved {
                continue;
            }
            let start = time(vr.def.index());
            let end = vr
                .uses
                .iter()
                .map(|u| time(u.op.index()) + ii * u.distance as i64)
                .max()
                .unwrap_or(start)
                .max(start);
            cost += end - start + 1;
        }
        cost
    };

    // Local search: move one op at a time within its dependence slack.
    let max_passes = 4 * n.max(4);
    for _ in 0..max_passes {
        let mut improved = false;
        for op in 0..n {
            let mut lo = i64::MIN;
            let mut hi = i64::MAX;
            for e in l.edges() {
                let (f, t) = (e.from.index(), e.to.index());
                let gap = stage_gap(e.latency, e.distance as i64, rows[f], rows[t], ii);
                if t == op && f != op {
                    lo = lo.max(stages[f] + gap);
                }
                if f == op && t != op {
                    hi = hi.min(stages[t] - gap);
                }
                if f == op && t == op && gap > 0 {
                    // Self-edge that cannot be satisfied at any stage; the
                    // input schedule being valid rules this out.
                    unreachable!("valid schedule violates a self-edge");
                }
            }
            // Keep stages within the input schedule's envelope: nothing is
            // gained by growing the schedule, and it bounds the search.
            let cur = stages[op];
            let lo = lo.max(0).min(cur);
            let hi = hi.min(cur.max(lo) + 2 * ii.max(4)).max(cur);
            let mut best = (cost_around(op, &stages), cur);
            for cand in lo..=hi {
                if cand == cur {
                    continue;
                }
                stages[op] = cand;
                let c = cost_around(op, &stages);
                if c < best.0 {
                    best = (c, cand);
                }
            }
            stages[op] = best.1;
            if best.1 != cur {
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }

    let out = Schedule::new(s.ii(), (0..n).map(|i| stages[i] * ii + rows[i]).collect());
    debug_assert_eq!(out.validate(l, machine), None);
    out
}

/// Optimal stage assignment: re-solves the scheduling ILP with every MRT
/// row pinned to `s`'s rows, minimizing `objective` exactly under the
/// register cap `max_live_limit` (`None`: unlimited registers).
///
/// Returns the schedule and the proven objective value, or `None` when the
/// solver hits its limits before proving optimality or no stage
/// assignment fits the cap.
pub fn optimal_stages(
    l: &Loop,
    machine: &Machine,
    s: &Schedule,
    objective: Objective,
    max_live_limit: Option<u32>,
    limits: SolveLimits,
) -> Option<(Schedule, f64)> {
    let cfg = FormulationConfig {
        dep_style: DepStyle::Structured,
        objective,
        sched_len_slack: 40,
        max_live_limit,
    };
    let mut built = build_model(l, machine, s.ii(), &cfg)?;
    built.fix_rows(s);
    let out = built.model.solve_with(limits);
    if out.status != SolveStatus::Optimal {
        return None;
    }
    Some((built.extract_schedule(&out), out.objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::ims::{ims_schedule, ImsConfig};
    use optimod_ddg::kernels;
    use optimod_machine::{cydra_like, example_3fu};

    #[test]
    fn ceil_div_matches_math() {
        assert_eq!(ceil_div(5, 2), 3);
        assert_eq!(ceil_div(4, 2), 2);
        assert_eq!(ceil_div(-5, 2), -2);
        assert_eq!(ceil_div(0, 3), 0);
    }

    #[test]
    fn stage_scheduling_never_hurts_lifetime() {
        for m in [example_3fu(), cydra_like()] {
            for l in kernels::all_kernels(&m) {
                let ims = ims_schedule(&l, &m, &ImsConfig::default()).expect("ims");
                let before = ims.schedule.cumulative_lifetime(&l);
                let staged = stage_schedule(&l, &m, &ims.schedule);
                let after = staged.cumulative_lifetime(&l);
                assert!(after <= before, "{} on {}", l.name(), m.name());
                assert_eq!(staged.ii(), ims.schedule.ii());
                // Rows unchanged.
                for id in l.op_ids() {
                    assert_eq!(staged.row(id), ims.schedule.row(id));
                }
            }
        }
    }

    #[test]
    fn stage_scheduling_reduces_registers_somewhere() {
        // At least one kernel must actually improve, or the heuristic is
        // a no-op.
        let m = cydra_like();
        let mut improved = 0;
        for l in kernels::all_kernels(&m) {
            let ims = ims_schedule(&l, &m, &ImsConfig::default()).expect("ims");
            let staged = stage_schedule(&l, &m, &ims.schedule);
            if staged.max_live(&l) < ims.schedule.max_live(&l) {
                improved += 1;
            }
        }
        assert!(improved > 0, "stage scheduling improved no kernel");
    }

    #[test]
    fn optimal_stages_dominate_heuristic() {
        let m = example_3fu();
        for l in [
            kernels::figure1(&m),
            kernels::saxpy(&m),
            kernels::lfk1_hydro(&m),
        ] {
            let ims = ims_schedule(&l, &m, &ImsConfig::default()).expect("ims");
            let staged = stage_schedule(&l, &m, &ims.schedule);
            let (opt, obj) = optimal_stages(
                &l,
                &m,
                &ims.schedule,
                Objective::MinMaxLive,
                None,
                SolveLimits::default(),
            )
            .expect("small models solve");
            assert!(opt.max_live(&l) <= staged.max_live(&l), "{}", l.name());
            assert_eq!(opt.max_live(&l) as f64, obj, "{}", l.name());
        }
    }
}
