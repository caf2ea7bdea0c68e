//! Exhaustive cross-validation on tiny loops: enumerate *every* schedule in
//! the stage-bounded window and compare the ground truth (feasibility and
//! minimum MaxLive) against both ILP formulations.
//!
//! This is the strongest correctness oracle in the suite: nothing is
//! mocked, approximated, or sampled — for loops small enough to enumerate,
//! the ILP must agree exactly.

use optimod::{build_model, DepStyle, FormulationConfig, Objective, Schedule};
use optimod_ddg::{DepKind, Loop, LoopBuilder};
use optimod_ilp::{FaultAction, FaultPlan, FaultSite, SolveLimits, SolveStatus};
use optimod_machine::{Machine, MachineBuilder, OpClass};
use optimod_sat::{encode, EncodeOptions, SatLimits, SatOutcome, SlotDomains};

/// A machine with a shared single-slot bus at offset 1, so resource
/// conflicts appear across rows (stressing the `(r - c) mod II` wrap).
fn bus_machine() -> Machine {
    let mut b = MachineBuilder::new("bus");
    let fu = b.resource("fu", 2);
    let bus = b.resource("bus", 1);
    b.reserve(OpClass::Load, 2, [(fu, 0), (bus, 1)]);
    b.reserve(OpClass::FMul, 3, [(fu, 0), (bus, 2)]);
    b.default_reservation(1, [(fu, 0)]);
    b.build()
}

fn tiny_loops(machine: &Machine) -> Vec<Loop> {
    let mut out = Vec::new();

    let mut b = LoopBuilder::new("chain");
    let a = b.op(OpClass::Load, "ld");
    let c = b.op(OpClass::FMul, "mul");
    let d = b.op(OpClass::Store, "st");
    b.flow(a, c, 0);
    b.flow(c, d, 0);
    out.push(b.build(machine));

    let mut b = LoopBuilder::new("diamond");
    let a = b.op(OpClass::Load, "ld");
    let c = b.op(OpClass::FMul, "mul");
    let d = b.op(OpClass::FAdd, "add");
    let e = b.op(OpClass::Store, "st");
    b.flow(a, c, 0);
    b.flow(a, d, 0);
    b.flow(c, e, 0);
    b.flow(d, e, 0);
    out.push(b.build(machine));

    let mut b = LoopBuilder::new("recurrence");
    let a = b.op(OpClass::Load, "ld");
    let c = b.op(OpClass::FAdd, "acc");
    b.flow(a, c, 0);
    b.flow(c, c, 1);
    out.push(b.build(machine));

    let mut b = LoopBuilder::new("anti");
    let a = b.op(OpClass::Load, "ld");
    let c = b.op(OpClass::Store, "st");
    b.flow(a, c, 0);
    b.dep(c, a, 1, 1, DepKind::Memory);
    out.push(b.build(machine));

    let mut b = LoopBuilder::new("cross-iteration-use");
    let a = b.op(OpClass::Load, "ld");
    let c = b.op(OpClass::FMul, "mul");
    b.flow(a, c, 0);
    b.flow(a, c, 2); // value from two iterations back
    out.push(b.build(machine));

    out
}

/// Enumerates every time assignment in `[0, window)^N`; returns the best
/// (validity, MaxLive) found.
fn brute_force(l: &Loop, machine: &Machine, ii: u32, window: i64) -> Option<u32> {
    let n = l.num_ops();
    let mut times = vec![0i64; n];
    let mut best: Option<u32> = None;
    fn rec(
        l: &Loop,
        machine: &Machine,
        ii: u32,
        window: i64,
        idx: usize,
        times: &mut Vec<i64>,
        best: &mut Option<u32>,
    ) {
        if idx == times.len() {
            let s = Schedule::new(ii, times.clone());
            if s.validate(l, machine).is_none() {
                let ml = s.max_live(l);
                *best = Some(best.map_or(ml, |b| b.min(ml)));
            }
            return;
        }
        for t in 0..window {
            times[idx] = t;
            rec(l, machine, ii, window, idx + 1, times, best);
        }
    }
    rec(l, machine, ii, window, 0, &mut times, &mut best);
    best
}

#[test]
fn ilp_matches_exhaustive_enumeration() {
    let machine = bus_machine();
    for l in tiny_loops(&machine) {
        for ii in 1..=4u32 {
            for style in [DepStyle::Traditional, DepStyle::Structured] {
                let cfg = FormulationConfig {
                    dep_style: style,
                    objective: Objective::MinMaxLive,
                    // Keep the window small enough to enumerate: stages
                    // limited by a slack of 4 cycles.
                    sched_len_slack: 4,
                    max_live_limit: None,
                };
                let Some(built) = build_model(&l, &machine, ii, &cfg) else {
                    // Below RecMII: brute force over the same window must
                    // also fail.
                    let bf = brute_force(&l, &machine, ii, 3 * ii as i64);
                    assert_eq!(bf, None, "{} II={ii} {style:?}", l.name());
                    continue;
                };
                let window = built.num_stages * ii as i64;
                let out = built.model.solve();
                let bf = brute_force(&l, &machine, ii, window);
                match (out.status, bf) {
                    (SolveStatus::Optimal, Some(best_ml)) => {
                        assert_eq!(
                            out.objective.round() as u32,
                            best_ml,
                            "{} II={ii} {style:?}: ILP MaxLive vs exhaustive",
                            l.name()
                        );
                        let s = built.extract_schedule(&out);
                        assert_eq!(s.validate(&l, &machine), None);
                        // The ILP may place ops in any window translate;
                        // only the objective must match.
                    }
                    (SolveStatus::Infeasible, None) => {}
                    (st, bf) => panic!(
                        "{} II={ii} {style:?}: ILP says {st:?}, exhaustive says {bf:?}",
                        l.name()
                    ),
                }
            }
        }
    }
}

#[test]
fn noobj_feasibility_matches_exhaustive() {
    let machine = bus_machine();
    for l in tiny_loops(&machine) {
        for ii in 1..=4u32 {
            let cfg = FormulationConfig {
                dep_style: DepStyle::Structured,
                objective: Objective::FirstFeasible,
                sched_len_slack: 4,
                max_live_limit: None,
            };
            let Some(built) = build_model(&l, &machine, ii, &cfg) else {
                continue;
            };
            let window = built.num_stages * ii as i64;
            let out = built.model.solve();
            let bf = brute_force(&l, &machine, ii, window);
            assert_eq!(
                out.status.has_solution(),
                bf.is_some(),
                "{} II={ii}: feasibility mismatch",
                l.name()
            );
        }
    }
}

/// A search stopped at any checkpoint is a limit, never an infeasibility
/// proof. Each tiny loop is solved at its first feasible II and, under a
/// register cap one below the enumerated minimum MaxLive, at the first II
/// whose capped model is LP-feasible (the root branches) but has no
/// integral point. A stall or spurious timeout is injected at every
/// node-expansion hit of the clean run (the root and each counted node hit
/// once) plus one past the end, at one and two threads: `Infeasible` may
/// only come from a run in which nothing fired, and never where the
/// enumeration finds a schedule.
#[test]
fn a_stop_at_any_node_is_never_an_infeasibility_proof() {
    let machine = bus_machine();
    let mut capped_cells = 0;
    for l in tiny_loops(&machine) {
        for style in [DepStyle::Traditional, DepStyle::Structured] {
            let cfg = |max_live_limit| FormulationConfig {
                dep_style: style,
                objective: Objective::MinMaxLive,
                sched_len_slack: 4,
                max_live_limit,
            };
            let mut cells = Vec::new();
            for ii in 1..=4u32 {
                let Some(built) = build_model(&l, &machine, ii, &cfg(None)) else {
                    continue;
                };
                let window = built.num_stages * ii as i64;
                let Some(min_live) = brute_force(&l, &machine, ii, window) else {
                    continue;
                };
                if cells.is_empty() {
                    cells.push((ii, built.model, true));
                }
                if min_live == 0 || cells.len() == 2 {
                    continue;
                }
                let capped = build_model(&l, &machine, ii, &cfg(Some(min_live - 1)))
                    .expect("a capped model builds wherever the uncapped one does");
                let clean = capped.model.solve_with(SolveLimits {
                    threads: 1,
                    ..Default::default()
                });
                assert_eq!(
                    clean.status,
                    SolveStatus::Infeasible,
                    "{} II={ii}",
                    l.name()
                );
                if clean.stats.bb_nodes > 0 {
                    cells.push((ii, capped.model, false));
                    capped_cells += 1;
                }
            }
            for (ii, model, has_schedule) in cells {
                let clean = model.solve_with(SolveLimits {
                    threads: 1,
                    ..Default::default()
                });
                let hits = clean.stats.bb_nodes + 1;
                for threads in [1u32, 2] {
                    for action in [FaultAction::SpuriousTimeout, FaultAction::Stall] {
                        for nth in 1..=hits + 1 {
                            let plan = FaultPlan::single(FaultSite::NodeExpand, action, nth);
                            let out = model.solve_with(SolveLimits {
                                threads,
                                fault: plan.clone(),
                                ..Default::default()
                            });
                            let cell = format!(
                                "{} II={ii} {style:?} threads={threads} {action:?}@{nth}",
                                l.name()
                            );
                            if plan.fired_count() > 0 {
                                assert!(
                                    matches!(
                                        out.status,
                                        SolveStatus::Feasible | SolveStatus::LimitReached
                                    ),
                                    "{cell}: a stopped search reported {:?}",
                                    out.status
                                );
                            } else if out.status == SolveStatus::Infeasible {
                                assert!(!has_schedule, "{cell}: Infeasible with a schedule");
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(capped_cells > 0, "no LP-feasible, integer-infeasible cell");
}

/// The SAT backend's counterpart of the test above: an interrupted CDCL
/// search is `Unknown`, never an unsatisfiability proof. Each tiny loop is
/// encoded at every II the ILP formulates, over the same stage window and
/// with unrestricted slot domains. A stall or spurious timeout is injected
/// at the nth hit of each SAT site, for nth = 1, 2, ... until a run no
/// longer fires: `Unsat` may only come from a run in which nothing fired,
/// and never where the enumeration finds a schedule.
#[test]
fn an_interrupted_sat_search_is_never_an_unsat_proof() {
    let machine = bus_machine();
    let cfg = FormulationConfig {
        dep_style: DepStyle::Structured,
        objective: Objective::FirstFeasible,
        sched_len_slack: 4,
        max_live_limit: None,
    };
    let (mut cells, mut fired_runs) = (0, 0);
    for l in tiny_loops(&machine) {
        for ii in 1..=4u32 {
            let Some(built) = build_model(&l, &machine, ii, &cfg) else {
                continue;
            };
            let window = built.num_stages * ii as i64;
            let has_schedule = brute_force(&l, &machine, ii, window).is_some();
            let domains = SlotDomains::unrestricted(l.num_ops(), ii, built.num_stages);
            let enc = encode(&l, &machine, ii, &domains, &EncodeOptions::default());
            let (clean, _) = optimod_sat::solve(&enc.cnf, &SatLimits::default());
            assert_eq!(
                matches!(clean, SatOutcome::Sat(_)),
                has_schedule,
                "{} II={ii}: clean SAT run says {}",
                l.name(),
                clean.name()
            );
            cells += 1;
            for site in FaultSite::SAT {
                for action in [FaultAction::Stall, FaultAction::SpuriousTimeout] {
                    for nth in 1.. {
                        let plan = FaultPlan::single(site, action, nth);
                        let limits = SatLimits {
                            fault: plan.clone(),
                            ..SatLimits::default()
                        };
                        let (out, _) = optimod_sat::solve(&enc.cnf, &limits);
                        let cell = format!("{} II={ii} {site:?} {action:?}@{nth}", l.name());
                        if plan.fired_count() == 0 {
                            assert!(
                                out != SatOutcome::Unsat || !has_schedule,
                                "{cell}: Unsat with a schedule"
                            );
                            break;
                        }
                        fired_runs += 1;
                        assert_ne!(
                            out,
                            SatOutcome::Unsat,
                            "{cell}: an interrupted search reported unsat"
                        );
                    }
                }
            }
        }
    }
    assert!(cells > 0 && fired_runs > 0, "no cell exercised a SAT fault");
}
