//! Equivalence properties of the analyzer's certified presolve: on random
//! loops, scheduling with presolve on and off must reach the *identical*
//! certified II and secondary-objective value — serially and under the
//! parallel branch-and-bound — because every presolve reduction is implied
//! by constraints already in the model. A divergence here means presolve
//! cut off an optimal integer point (unsound) or manufactured one
//! (nonsense); both would also be caught by the certifier, but this test
//! pins the equivalence directly at the scheduler interface.

use std::time::Duration;

use optimod::{DepStyle, LoopStatus, Objective, OptimalScheduler, SchedulerConfig};
use optimod_ddg::{generate_loop, GeneratorConfig};
use optimod_machine::{cydra_like, example_3fu, vliw_4issue, Machine};
use proptest::prelude::*;

/// Small loops so each case solves in milliseconds even in debug builds.
fn small_cfg() -> GeneratorConfig {
    GeneratorConfig {
        max_ops: 9,
        size_log_median: 5.0_f64.ln(),
        size_log_sigma: 0.4,
        ..Default::default()
    }
}

fn machine_for(idx: u8) -> Machine {
    match idx % 3 {
        0 => example_3fu(),
        1 => cydra_like(),
        _ => vliw_4issue(),
    }
}

fn scheduler(style: DepStyle, presolve: bool, threads: u32) -> OptimalScheduler {
    let mut cfg =
        SchedulerConfig::new(style, Objective::MinMaxLive).with_time_limit(Duration::from_secs(30));
    cfg.presolve = presolve;
    cfg.limits.threads = threads;
    OptimalScheduler::new(cfg)
}

/// The property proper, shared by the serial and parallel variants.
fn check_equivalence(seed: u64, midx: u8, style: DepStyle, threads: u32) {
    let machine = machine_for(midx);
    let l = generate_loop(&small_cfg(), &machine, seed);
    let off = scheduler(style, false, threads).schedule(&l, &machine);
    let on = scheduler(style, true, threads).schedule(&l, &machine);
    // Budget exhaustion on either side carries no equivalence information.
    if off.status != LoopStatus::Optimal || on.status != LoopStatus::Optimal {
        return;
    }
    assert_eq!(
        on.ii,
        off.ii,
        "{}: presolve changed the certified II",
        l.name()
    );
    assert_eq!(
        on.objective_value,
        off.objective_value,
        "{}: presolve changed the certified objective",
        l.name()
    );
    assert!(
        on.stats.presolve_runs > 0,
        "{}: presolve-enabled run never invoked presolve",
        l.name()
    );
    // Both schedules must stand on their own (the scheduler certified them
    // internally; re-validate the decoded schedules for good measure).
    for r in [&off, &on] {
        let s = r.schedule.as_ref().expect("optimal result has a schedule");
        assert_eq!(s.validate(&l, &machine), None, "{}", l.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Serial search: node-for-node deterministic, so any divergence is
    /// presolve's fault alone.
    #[test]
    fn presolve_preserves_certified_results_serial(
        seed in 0u64..2_000,
        midx in 0u8..3,
        structured in proptest::bool::ANY,
    ) {
        let style = if structured { DepStyle::Structured } else { DepStyle::Traditional };
        check_equivalence(seed, midx, style, 1);
    }

    /// Parallel search (2 workers): different node orders, same certified
    /// answers.
    #[test]
    fn presolve_preserves_certified_results_parallel(
        seed in 0u64..2_000,
        midx in 0u8..3,
    ) {
        check_equivalence(seed, midx, DepStyle::Structured, 2);
    }
}
