//! Tests for the register-file-constrained extension
//! (`SchedulerConfig::register_limit` / `FormulationConfig::max_live_limit`).

use std::time::Duration;

use optimod::{
    DepStyle, FallbackConfig, LoopStatus, Objective, OptimalScheduler, Provenance, SchedulerConfig,
};
use optimod_ddg::kernels;
use optimod_machine::example_3fu;

fn scheduler(objective: Objective, limit: Option<u32>) -> OptimalScheduler {
    let mut cfg = SchedulerConfig::new(DepStyle::Structured, objective)
        .with_time_limit(Duration::from_secs(5));
    cfg.register_limit = limit;
    OptimalScheduler::new(cfg)
}

/// Figure 1 needs 7 registers at II=2; capping below that must push the
/// scheduler to a larger II (or fail), never to an over-budget schedule.
#[test]
fn cap_below_min_changes_ii_or_fails() {
    let machine = example_3fu();
    let l = kernels::figure1(&machine);

    // Unlimited: II=2, MaxLive 7.
    let free = scheduler(Objective::MinMaxLive, None).schedule(&l, &machine);
    assert_eq!(free.ii, Some(2));
    assert_eq!(free.schedule.as_ref().unwrap().max_live(&l), 7);

    // Cap at 6: any schedule returned must satisfy the cap.
    let capped = scheduler(Objective::MinMaxLive, Some(6)).schedule(&l, &machine);
    if let Some(s) = &capped.schedule {
        assert!(s.max_live(&l) <= 6, "cap violated: {}", s.max_live(&l));
        assert!(capped.ii.unwrap() > 2, "II=2 needs 7 registers");
    } else {
        assert!(matches!(
            capped.status,
            LoopStatus::Infeasible | LoopStatus::TimedOut
        ));
    }
}

/// A cap at exactly the unconstrained optimum changes nothing.
#[test]
fn cap_at_optimum_is_tight_but_feasible() {
    let machine = example_3fu();
    let l = kernels::figure1(&machine);
    let r = scheduler(Objective::MinMaxLive, Some(7)).schedule(&l, &machine);
    assert_eq!(r.status, LoopStatus::Optimal);
    assert_eq!(r.ii, Some(2));
    assert_eq!(r.schedule.unwrap().max_live(&l), 7);
}

/// The cap also works without an objective (feasibility mode): NoObj with
/// a register limit returns only cap-respecting schedules.
#[test]
fn cap_applies_to_noobj() {
    let machine = example_3fu();
    let l = kernels::figure1(&machine);

    // Without a cap, NoObj at II=2 may use more registers than 7.
    let capped = scheduler(Objective::FirstFeasible, Some(7)).schedule(&l, &machine);
    let s = capped.schedule.expect("figure1 schedulable within 7 regs");
    assert!(s.max_live(&l) <= 7, "cap violated: {}", s.max_live(&l));
    assert_eq!(s.validate(&l, &machine), None);

    // The portfolio's CNF has no MaxLive term, so under a cap it must stay
    // out of the way: the SAT backend would happily return II=2 with
    // MaxLive 10.
    let mut cfg = scheduler(Objective::FirstFeasible, Some(6))
        .config()
        .clone();
    cfg.portfolio = true;
    cfg.limits.threads = 1;
    let r = OptimalScheduler::new(cfg).schedule(&l, &machine);
    let s = r.schedule.expect("figure1 schedulable within 6 regs");
    assert!(s.max_live(&l) <= 6, "cap violated: {}", s.max_live(&l));
    assert_eq!(r.ii, Some(3), "II=2 needs 7 registers");
    assert_eq!(r.provenance, Some(Provenance::Exact));
    assert_eq!(r.stats.sat_decisions + r.stats.sat_propagations, 0);
}

/// The degraded rungs honour the cap too: the brownout ladder (stage ILP,
/// then IMS) either returns a schedule within the cap or withholds it and
/// reports the exact rung's retryable `TimedOut`.
#[test]
fn degraded_ladder_respects_the_cap() {
    let machine = example_3fu();
    let l = kernels::figure1(&machine);
    for cap in [6u32, 7] {
        for objective in [Objective::FirstFeasible, Objective::MinMaxLive] {
            let mut cfg = scheduler(objective, Some(cap)).config().clone();
            cfg.fallback = FallbackConfig::degraded_only();
            let r = OptimalScheduler::new(cfg).schedule(&l, &machine);
            match &r.schedule {
                Some(s) => {
                    assert!(
                        s.max_live(&l) <= cap,
                        "cap {cap} violated by {:?}: MaxLive {}",
                        r.provenance,
                        s.max_live(&l)
                    );
                    assert!(r.provenance.is_some_and(|p| p.degraded()));
                }
                None => assert_eq!(r.status, LoopStatus::TimedOut, "cap {cap}"),
            }
        }
    }
}

/// A generous cap must not change the optimum.
#[test]
fn loose_cap_is_a_noop() {
    let machine = example_3fu();
    for l in [kernels::saxpy(&machine), kernels::lfk1_hydro(&machine)] {
        let free = scheduler(Objective::MinMaxLive, None).schedule(&l, &machine);
        let capped = scheduler(Objective::MinMaxLive, Some(1000)).schedule(&l, &machine);
        assert_eq!(free.ii, capped.ii, "{}", l.name());
        assert_eq!(free.objective_value, capped.objective_value, "{}", l.name());
    }
}

/// Sweeping the cap downward yields a monotone (non-decreasing) II
/// staircase.
#[test]
fn cap_sweep_monotone() {
    let machine = example_3fu();
    let l = kernels::lfk7_eos(&machine);
    let mut last_ii = 0;
    for cap in [24u32, 16, 12] {
        let r = scheduler(Objective::FirstFeasible, Some(cap)).schedule(&l, &machine);
        let Some(ii) = r.ii else { continue };
        assert!(
            ii >= last_ii || last_ii == 0,
            "tighter cap {cap} gave smaller II {ii} (previous {last_ii})"
        );
        if let Some(s) = &r.schedule {
            assert!(s.max_live(&l) <= cap);
        }
        last_ii = ii.max(last_ii);
    }
}
