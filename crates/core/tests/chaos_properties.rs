//! Fault-injection properties of the scheduling pipeline: under *any*
//! seeded fault plan — injected panics, stalls, spurious timeouts, and
//! incumbent corruptions at the solver's named sites — `schedule()` must
//! return a typed [`LoopResult`] (never unwind), every schedule it does
//! emit must pass the exact-arithmetic certifier, and the trace stream must
//! stay balanced no matter where the fault landed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::time::Duration;

use optimod::{
    certify, Claim, DepStyle, FallbackConfig, LoopResult, LoopStatus, Objective, OptimalScheduler,
    Provenance, SchedulerConfig,
};
use optimod_ddg::{kernels, Loop};
use optimod_ilp::{FaultAction, FaultPlan, FaultSite};
use optimod_machine::{example_3fu, Machine};
use optimod_trace::{MemorySink, Trace};
use proptest::prelude::*;

/// Injected panics are recovered inside the solver, but the default panic
/// hook would still spray their messages over the test output. Silence
/// exactly those; every other panic (including proptest assertion
/// failures) keeps the default report.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("injected fault:"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

fn chaos_loop(idx: u8, machine: &Machine) -> Loop {
    match idx % 3 {
        0 => kernels::figure1(machine),
        1 => kernels::lfk5_tridiag(machine),
        _ => kernels::fir4(machine),
    }
}

struct ChaosRun {
    result: LoopResult,
    balanced: bool,
}

/// Schedules `l` under `plan`, asserting the panic never escapes.
fn run_under_plan(machine: &Machine, l: &Loop, plan: FaultPlan, threads: u32) -> ChaosRun {
    quiet_injected_panics();
    let sink = Arc::new(MemorySink::default());
    let mut cfg = SchedulerConfig::new(DepStyle::Structured, Objective::MinMaxLive)
        .with_time_limit(Duration::from_millis(800));
    cfg.limits.threads = threads;
    cfg.limits.trace = Trace::new(sink.clone());
    cfg.limits.fault = plan;
    cfg.fallback = FallbackConfig::enabled();
    let sched = OptimalScheduler::new(cfg);
    let result = catch_unwind(AssertUnwindSafe(|| sched.schedule(l, machine)))
        .unwrap_or_else(|_| panic!("schedule() let a fault escape on {}", l.name()));
    ChaosRun {
        result,
        balanced: sink.report().balanced(),
    }
}

/// The invariant every chaos outcome must satisfy: balanced traces, typed
/// degradation, and certified schedules.
fn assert_outcome_well_formed(machine: &Machine, l: &Loop, run: &ChaosRun) {
    assert!(run.balanced, "{}: unbalanced trace stream", l.name());
    let r = &run.result;
    match &r.schedule {
        Some(s) => {
            let exact_rung = r.provenance == Some(Provenance::Exact);
            let claim = Claim {
                graph: l,
                machine,
                ii: s.ii(),
                times: s.times(),
                claimed_optimal: exact_rung && r.status == LoopStatus::Optimal,
                claimed_objective: if exact_rung { r.objective_value } else { None },
                exact_objective: exact_rung.then(|| s.max_live(l) as i64),
                claimed_bound: None,
            };
            certify(&claim).unwrap_or_else(|e| {
                panic!("{}: emitted schedule failed certification: {e}", l.name())
            });
        }
        None => {
            assert!(
                !r.status.scheduled(),
                "{}: scheduled status without a schedule",
                l.name()
            );
            if r.status == LoopStatus::Failed {
                assert!(
                    r.error.is_some(),
                    "{}: failed outcome without a typed cause",
                    l.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any seed-derived fault plan, on serial and parallel engines alike,
    /// yields a certified schedule or a clean typed degradation.
    #[test]
    fn seeded_fault_plans_degrade_cleanly(seed in 0u64..10_000, lidx in 0u8..3) {
        let machine = example_3fu();
        let l = chaos_loop(lidx, &machine);
        let threads = 1 + (seed % 2) as u32;
        let run = run_under_plan(&machine, &l, FaultPlan::from_seed(seed), threads);
        assert_outcome_well_formed(&machine, &l, &run);
    }

    /// A single targeted injection at each site/action pair is survived.
    #[test]
    fn targeted_single_injections_degrade_cleanly(
        site_idx in 0usize..64,
        action_idx in 0usize..4,
        nth in 1u64..8,
        lidx in 0u8..3,
    ) {
        let machine = example_3fu();
        let l = chaos_loop(lidx, &machine);
        let site = FaultSite::ALL[site_idx % FaultSite::ALL.len()];
        let action = [
            FaultAction::Panic,
            FaultAction::Stall,
            FaultAction::SpuriousTimeout,
            FaultAction::PerturbIncumbent,
        ][action_idx];
        let run = run_under_plan(&machine, &l, FaultPlan::single(site, action, nth), 2);
        assert_outcome_well_formed(&machine, &l, &run);
    }
}

/// A stalled extraction with the fallback ladder disabled is a typed
/// failure — no schedule, a cause naming the injected fault, no panic.
#[test]
fn stalled_extraction_without_fallback_is_typed() {
    quiet_injected_panics();
    let machine = example_3fu();
    let l = kernels::figure1(&machine);
    let mut cfg = SchedulerConfig::new(DepStyle::Structured, Objective::MinMaxLive)
        .with_time_limit(Duration::from_millis(800));
    cfg.limits.threads = 1;
    cfg.limits.fault = FaultPlan::single(FaultSite::Extraction, FaultAction::Stall, 1);
    let r = OptimalScheduler::new(cfg).schedule(&l, &machine);
    assert!(r.schedule.is_none());
    let cause = r
        .error
        .expect("stalled extraction must carry a cause")
        .to_string();
    assert!(cause.contains("injected fault"), "cause was: {cause}");
}

/// An injected panic in the extraction path is recovered as a typed worker
/// panic, never an unwind out of `schedule()`.
#[test]
fn extraction_panic_is_recovered() {
    quiet_injected_panics();
    let machine = example_3fu();
    let l = kernels::figure1(&machine);
    let mut cfg = SchedulerConfig::new(DepStyle::Structured, Objective::MinMaxLive)
        .with_time_limit(Duration::from_millis(800));
    cfg.limits.threads = 1;
    cfg.limits.fault = FaultPlan::single(FaultSite::Extraction, FaultAction::Panic, 1);
    let r = catch_unwind(AssertUnwindSafe(|| {
        OptimalScheduler::new(cfg).schedule(&l, &machine)
    }))
    .expect("extraction panic must not escape");
    assert!(r.schedule.is_none());
    assert!(r.error.is_some());
}

/// An incumbent perturbed by +0.5 either gets displaced by a clean
/// incumbent before the end of the search or is refused by the certifier —
/// it can never surface as a silently-wrong objective.
#[test]
fn perturbed_incumbent_never_surfaces_unchecked() {
    quiet_injected_panics();
    let machine = example_3fu();
    let l = kernels::figure1(&machine);
    for nth in 1..=6u64 {
        let mut cfg = SchedulerConfig::new(DepStyle::Structured, Objective::MinMaxLive)
            .with_time_limit(Duration::from_millis(800));
        cfg.limits.threads = 1;
        cfg.limits.fault =
            FaultPlan::single(FaultSite::NodeExpand, FaultAction::PerturbIncumbent, nth);
        let r = OptimalScheduler::new(cfg).schedule(&l, &machine);
        match &r.schedule {
            Some(s) => {
                // Whatever survived certification is exactly right.
                assert_eq!(s.max_live(&l), 7, "figure1's optimal MaxLive");
                assert_eq!(r.objective_value, Some(7.0));
            }
            None => {
                let cause = r.error.expect("refusal must be typed").to_string();
                assert!(cause.contains("certification failed"), "cause was: {cause}");
            }
        }
    }
}

/// Every fault a plan fires is counted in the result's `SolveStats`,
/// wherever it fired — pivot loop, node expansion or schedule extraction,
/// including an injected panic caught at extraction. Serial MinReg runs
/// with a node cap and no fallback ladder, so every fire happens inside
/// the exact search whose effort the result reports.
#[test]
fn every_fired_fault_is_counted_in_stats() {
    quiet_injected_panics();
    let machine = example_3fu();
    let loops = [
        kernels::figure1(&machine),
        kernels::saxpy(&machine),
        kernels::lfk5_tridiag(&machine),
        kernels::lfk6_recurrence(&machine),
        kernels::fir4(&machine),
        kernels::horner(&machine),
    ];
    let mut extraction_panics = 0;
    for seed in 0..64u64 {
        for l in &loops {
            for style in [DepStyle::Traditional, DepStyle::Structured] {
                let plan = FaultPlan::from_seed(seed);
                let mut cfg = SchedulerConfig::new(style, Objective::MinMaxLive)
                    .with_time_limit(Duration::from_secs(30));
                cfg.limits.threads = 1;
                cfg.limits.node_limit = 300;
                cfg.limits.fault = plan.clone();
                let r = catch_unwind(AssertUnwindSafe(|| {
                    OptimalScheduler::new(cfg).schedule(l, &machine)
                }))
                .unwrap_or_else(|_| panic!("seed {seed}: a fault escaped on {}", l.name()));
                assert_eq!(
                    r.stats.faults_injected,
                    plan.fired_count(),
                    "seed {seed}, {} / {style:?}: fired {:?}",
                    l.name(),
                    plan.fired()
                );
                extraction_panics += plan
                    .fired()
                    .iter()
                    .filter(|i| i.site == FaultSite::Extraction && i.action == FaultAction::Panic)
                    .count();
            }
        }
    }
    assert!(
        extraction_panics > 0,
        "the sweep must cover a panic caught at extraction"
    );
}
