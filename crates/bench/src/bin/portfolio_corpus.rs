//! Cross-backend portfolio acceptance scenario over the golden corpus.
//!
//! Every golden cell (11 kernels x both dependence formulations) is solved
//! ILP-only (the reference), then under the portfolio (SAT decides first)
//! with one and with two worker threads. Acceptance:
//!
//! * both thread counts certify the *exact same II* as the ILP-only
//!   reference on every cell, with zero cross-backend disagreements, and
//!   pick the same winner and provenance — the portfolio is deterministic
//!   at every thread count;
//! * the SAT backend wins at least one cell outright (provenance
//!   `sat-exact`);
//! * at every II from the first one `build_model` accepts up to the
//!   reference II*, both backends, run to completion independently of
//!   each other and of the portfolio (the CNF over unrestricted slot
//!   domains, the ILP without presolve), agree: both prove every II below
//!   II* infeasible, and both witnesses at II* certify;
//! * the differential oracle is live: a deliberately broken encoder
//!   (an op with every CNF slot forbidden) must be caught as a
//!   `BackendDisagreement` whose minimized repro replays through the
//!   textual loop format and still disagrees.

use std::sync::Arc;
use std::time::Duration;

use optimod::{
    build_model, certify, Claim, DepStyle, FormulationConfig, LoopStatus, Objective,
    OptimalScheduler, Provenance, SatEncodeOptions, ScheduleError, SchedulerConfig,
};
use optimod_ddg::{kernels, textfmt, Loop};
use optimod_ilp::{SolveLimits, SolveStatus};
use optimod_machine::{example_3fu, Machine};
use optimod_sat::{encode, solve as sat_solve, SatLimits, SatOutcome, SlotDomains};
use optimod_trace::{MemorySink, Trace};

fn golden_loops(machine: &Machine) -> Vec<Loop> {
    vec![
        kernels::figure1(machine),
        kernels::saxpy(machine),
        kernels::dot_product(machine),
        kernels::lfk5_tridiag(machine),
        kernels::lfk6_recurrence(machine),
        kernels::lfk11_first_sum(machine),
        kernels::lfk12_first_diff(machine),
        kernels::fir4(machine),
        kernels::horner(machine),
        kernels::divide_recurrence(machine),
        kernels::stream_copy(machine),
    ]
}

fn scheduler(style: DepStyle, portfolio: bool, threads: u32, trace: Trace) -> OptimalScheduler {
    let mut cfg = SchedulerConfig::new(style, Objective::FirstFeasible)
        .with_time_limit(Duration::from_secs(60));
    cfg.limits.threads = threads;
    cfg.limits.trace = trace;
    cfg.portfolio = portfolio;
    OptimalScheduler::new(cfg)
}

/// Runs both backends to completion, independently, at every II from the
/// first one `build_model` accepts up to `ii_star`: the CNF over
/// unrestricted slot domains and the ILP without presolve. Below `ii_star`
/// both must prove infeasibility; at `ii_star` both witnesses must
/// certify. Returns how many IIs were checked.
fn backends_agree_up_to(
    l: &Loop,
    machine: &Machine,
    style: DepStyle,
    ii_star: u32,
    cell: &str,
) -> u32 {
    let cfg = FormulationConfig {
        dep_style: style,
        objective: Objective::FirstFeasible,
        ..FormulationConfig::default()
    };
    let ilp_limits = SolveLimits {
        threads: 1,
        first_solution_only: true,
        ..SolveLimits::default()
    };
    let mut checked = 0;
    for ii in 1..=ii_star {
        let Some(built) = build_model(l, machine, ii, &cfg) else {
            assert!(ii < ii_star, "{cell}: build_model refused II* {ii}");
            continue;
        };
        checked += 1;
        let domains = SlotDomains::unrestricted(l.num_ops(), ii, built.num_stages);
        let enc = encode(l, machine, ii, &domains, &SatEncodeOptions::default());
        let (sat, _) = sat_solve(&enc.cnf, &SatLimits::default());
        let ilp = built.model.solve_with(ilp_limits.clone());
        if ii < ii_star {
            assert!(
                matches!(sat, SatOutcome::Unsat),
                "{cell}: sat says {} at II {ii}, below II* {ii_star}",
                sat.name()
            );
            assert_eq!(
                ilp.status,
                SolveStatus::Infeasible,
                "{cell}: ilp at II {ii}, below II* {ii_star}"
            );
            continue;
        }
        let SatOutcome::Sat(model) = sat else {
            panic!("{cell}: sat says {} at II* {ii}", sat.name());
        };
        let sat_times = enc
            .decode(&model)
            .unwrap_or_else(|e| panic!("{cell}: sat model at II* {ii} does not decode: {e}"));
        let ilp_schedule = built
            .try_extract_schedule(&ilp)
            .unwrap_or_else(|e| panic!("{cell}: ilp ({:?}) at II* {ii}: {e}", ilp.status));
        for (side, times) in [("sat", &sat_times[..]), ("ilp", ilp_schedule.times())] {
            if let Err(e) = certify(&Claim::feasibility(l, machine, ii, times, false)) {
                panic!("{cell}: {side} witness at II* {ii} refused by the certifier: {e}");
            }
        }
    }
    checked
}

fn main() {
    let machine = example_3fu();
    let loops = golden_loops(&machine);
    let styles = [
        ("traditional", DepStyle::Traditional),
        ("structured", DepStyle::Structured),
    ];

    let mut cells = 0u64;
    let mut iis_checked = 0u32;
    let mut sat_wins = 0u64;
    let mut ilp_wins = 0u64;
    for (style_name, style) in styles {
        for l in &loops {
            cells += 1;
            let cell = format!("{} / {style_name}", l.name());
            let reference = scheduler(style, false, 1, Trace::disabled()).schedule(l, &machine);
            assert_eq!(
                reference.status,
                LoopStatus::Optimal,
                "{cell}: reference ILP solve must be optimal"
            );
            let ref_ii = reference.ii.expect("optimal result has an II");
            iis_checked += backends_agree_up_to(l, &machine, style, ref_ii, &cell);

            let mut winners = Vec::new();
            for threads in [1u32, 2] {
                let sink = Arc::new(MemorySink::default());
                let r =
                    scheduler(style, true, threads, Trace::new(sink.clone())).schedule(l, &machine);
                assert!(
                    !matches!(r.error, Some(ScheduleError::BackendDisagreement { .. })),
                    "{cell} / {threads} thread(s): cross-backend disagreement: {:?}",
                    r.error
                );
                assert_eq!(
                    r.status,
                    LoopStatus::Optimal,
                    "{cell} / {threads} thread(s): portfolio did not settle the cell ({:?})",
                    r.status
                );
                assert_eq!(
                    r.ii,
                    Some(ref_ii),
                    "{cell} / {threads} thread(s): portfolio certified a different II"
                );
                let schedule = r.schedule.as_ref().expect("optimal result has a schedule");
                assert_eq!(
                    schedule.validate(l, &machine),
                    None,
                    "{cell} / {threads} thread(s): emitted schedule does not validate"
                );
                let rep = sink.report();
                assert_eq!(
                    rep.sat_wins + rep.ilp_wins,
                    1,
                    "{cell} / {threads} thread(s): exactly one portfolio win event per cell"
                );
                winners.push((r.provenance, rep.sat_wins, rep.ilp_wins));
            }
            assert_eq!(
                winners[0], winners[1],
                "{cell}: two threads picked a different winner or provenance than one"
            );
            match winners[0].0 {
                Some(Provenance::SatExact) => sat_wins += 1,
                Some(Provenance::Exact) => ilp_wins += 1,
                other => panic!("{cell}: unexpected provenance {other:?}"),
            }
        }
    }
    println!(
        "portfolio corpus: {cells} cells x (1 + 2 threads), all IIs identical to ILP-only, \
         same winner at both thread counts; wins: sat {sat_wins}, ilp {ilp_wins}"
    );
    println!(
        "per-II oracle: {iis_checked} (cell, II) pairs up to II*, sat and ilp run independently: \
         0 disagreements"
    );
    assert!(
        sat_wins >= 1,
        "the SAT backend must win at least one golden cell outright"
    );

    // The differential oracle must actually fire: sabotage the encoder
    // (forbid op 0's every slot) and demand a minimized, replayable repro.
    let l = kernels::figure1(&machine);
    let mut cfg = SchedulerConfig::new(DepStyle::Structured, Objective::FirstFeasible);
    cfg.portfolio = true;
    cfg.limits.threads = 1;
    cfg.sat_encode = SatEncodeOptions {
        forbid_op: Some(0),
        ..SatEncodeOptions::default()
    };
    let sabotage_opts = cfg.sat_encode;
    let r = OptimalScheduler::new(cfg).schedule(&l, &machine);
    assert_eq!(
        r.status,
        LoopStatus::Failed,
        "a sabotaged encoder must fail the run, got {:?}",
        r.status
    );
    let Some(ScheduleError::BackendDisagreement { ii, detail, repro }) = r.error else {
        panic!("expected BackendDisagreement, got {:?}", r.error);
    };
    let parsed = textfmt::parse(&repro).expect("minimized repro parses as a loop file");
    assert_eq!(parsed.machine.name(), machine.name());
    assert!(
        parsed.l.edges().len() < l.edges().len(),
        "minimizer should drop at least one edge from figure1"
    );
    // The minimized instance still disagrees when replayed from the text:
    // the SAT side (same sabotage) refutes the II the ILP certifies.
    let mut replay_cfg = SchedulerConfig::new(DepStyle::Structured, Objective::FirstFeasible);
    replay_cfg.portfolio = true;
    replay_cfg.limits.threads = 1;
    replay_cfg.sat_encode = sabotage_opts;
    let replayed = OptimalScheduler::new(replay_cfg).schedule(&parsed.l, &parsed.machine);
    assert!(
        matches!(
            replayed.error,
            Some(ScheduleError::BackendDisagreement { .. })
        ),
        "replayed repro no longer disagrees: {:?}",
        replayed.error
    );
    println!(
        "differential oracle: sabotaged encoder caught at II {ii} ({detail}); minimized repro \
         has {} ops / {} edges and still disagrees on replay",
        parsed.l.num_ops(),
        parsed.l.edges().len()
    );
    println!("portfolio corpus acceptance criteria satisfied");
}
