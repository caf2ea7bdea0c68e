//! Chaos-sweep acceptance scenario: golden kernels are scheduled under a
//! seeded matrix of deterministic fault plans — injected panics, forced
//! stalls, spurious timeouts, and incumbent corruptions at the solver's
//! named sites — and every single outcome must be either a schedule the
//! exact-arithmetic certifier accepts or a clean typed degradation. The
//! sweep itself asserts:
//!
//! * zero process aborts and zero panics escaping `schedule()`;
//! * every produced schedule certifies (constraints in exact integer
//!   arithmetic; objective claims re-checked for exact-rung results);
//! * every per-run trace stream stays balanced (opens == closes) no matter
//!   where the fault landed;
//! * unscheduled outcomes are typed (timed out / infeasible / failed with
//!   a cause), never silent.
//!
//! Seeds are fixed (0..64), so any failure replays from its printed seed
//! alone: `optimod --chaos SEED <loop>`.
//!
//! Each seed runs twice per loop: once through the plain exact-plus-ladder
//! path (solver-site fault pool), and once through the cross-backend
//! portfolio (`--portfolio`; SAT-site-leading fault pool). Portfolio cells
//! additionally assert that no injected fault ever manufactures a
//! cross-backend disagreement — faults degrade a backend, they never make
//! a *certified* contradiction.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use optimod::{
    certify, Claim, DepStyle, FallbackConfig, LoopResult, Objective, OptimalScheduler,
    SchedulerConfig,
};
use optimod_bench::{CorpusRow, OutcomeKind};
use optimod_ddg::{kernels, Loop};
use optimod_ilp::FaultPlan;
use optimod_machine::{example_3fu, Machine};
use optimod_trace::{MemorySink, Trace};

const SEEDS: u64 = 64;

/// A varied slice of the golden kernels: acyclic, recurrence-bound, and
/// deep-lifetime graphs, kept small so the full matrix stays fast.
fn chaos_loops(machine: &Machine) -> Vec<Loop> {
    vec![
        kernels::figure1(machine),
        kernels::lfk5_tridiag(machine),
        kernels::fir4(machine),
    ]
}

/// One cell of the sweep matrix.
struct Cell {
    seed: u64,
    portfolio: bool,
    row: CorpusRow,
    faults_fired: u64,
    balanced: bool,
    certified: Option<bool>,
    disagreed: bool,
}

fn run_cell(machine: &Machine, l: &Loop, seed: u64, portfolio: bool) -> Cell {
    // Portfolio cells draw from the SAT-site-leading fault pool and run
    // objective-free (the portfolio only covers NoObj); plain cells replay
    // the historical solver-only pool under MinReg.
    let plan = if portfolio {
        FaultPlan::portfolio_from_seed(seed)
    } else {
        FaultPlan::from_seed(seed)
    };
    let objective = if portfolio {
        Objective::FirstFeasible
    } else {
        Objective::MinMaxLive
    };
    let sink = Arc::new(MemorySink::default());
    let mut cfg = SchedulerConfig::new(DepStyle::Structured, objective)
        .with_time_limit(Duration::from_millis(1500));
    // Odd seeds exercise the parallel engine (worker-start faults can only
    // fire there); even seeds pin the deterministic serial engine. A
    // portfolio cell always runs SAT serially first, then the ILP on these
    // workers.
    cfg.limits.threads = if seed.is_multiple_of(2) { 1 } else { 2 };
    cfg.limits.trace = Trace::new(sink.clone());
    cfg.limits.fault = plan.clone();
    cfg.fallback = FallbackConfig::enabled();
    cfg.portfolio = portfolio;
    let sched = OptimalScheduler::new(cfg);

    let row = match catch_unwind(AssertUnwindSafe(|| sched.schedule(l, machine))) {
        Ok(r) => {
            let row = CorpusRow::classify(l.name(), l.num_ops(), &r);
            (row, Some(r))
        }
        Err(payload) => (
            CorpusRow {
                name: l.name().to_string(),
                n_ops: l.num_ops(),
                kind: OutcomeKind::Crashed,
                ii: None,
                wall_time: Duration::ZERO,
                detail: Some(optimod_ilp::panic_message(payload.as_ref())),
            },
            None,
        ),
    };
    let (row, result) = row;
    let certified = result.as_ref().and_then(|r| recertify(machine, l, r));
    let disagreed = result.as_ref().is_some_and(|r| {
        matches!(
            r.error,
            Some(optimod::ScheduleError::BackendDisagreement { .. })
        )
    });
    Cell {
        seed,
        portfolio,
        row,
        faults_fired: plan.fired_count(),
        balanced: sink.report().balanced(),
        certified,
        disagreed,
    }
}

/// Independently re-certifies a scheduled result (the scheduler already
/// certified internally; this is the outside auditor). Objective claims are
/// only re-checked for exact-rung results — ladder rungs claim none.
fn recertify(machine: &Machine, l: &Loop, r: &LoopResult) -> Option<bool> {
    let s = r.schedule.as_ref()?;
    let exact_rung = r.provenance.is_some_and(|p| !p.degraded());
    // Objective-free results (portfolio cells, including SAT wins) carry no
    // objective claims; MinReg cells re-check the exact objective too.
    let objective_free = r.objective_value.is_none();
    let claim = Claim {
        graph: l,
        machine,
        ii: s.ii(),
        times: s.times(),
        claimed_optimal: exact_rung && r.status == optimod::LoopStatus::Optimal,
        claimed_objective: if exact_rung && !objective_free {
            r.objective_value
        } else {
            None
        },
        exact_objective: (exact_rung && !objective_free).then(|| s.max_live(l) as i64),
        claimed_bound: None,
    };
    Some(certify(&claim).is_ok())
}

fn main() {
    // Injected panics are *supposed* to fire and be recovered; the default
    // hook would spray backtraces over the sweep output. Their messages
    // still reach the outcome rows through the typed recovery paths. The
    // hook is restored before the acceptance assertions below.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let machine = example_3fu();
    let loops = chaos_loops(&machine);
    let seeds: Vec<u64> = (0..SEEDS).collect();

    let cells: Vec<Cell> = optimod_par::par_map(0, &seeds, |_, &seed| {
        loops
            .iter()
            .flat_map(|l| {
                [
                    run_cell(&machine, l, seed, false),
                    run_cell(&machine, l, seed, true),
                ]
            })
            .collect::<Vec<Cell>>()
    })
    .into_iter()
    .flatten()
    .collect();
    std::panic::set_hook(default_hook);

    let total = cells.len();
    let mut by_kind: Vec<(String, usize)> = Vec::new();
    for c in &cells {
        let k = c.row.kind.to_string();
        match by_kind.iter_mut().find(|(name, _)| *name == k) {
            Some((_, n)) => *n += 1,
            None => by_kind.push((k, 1)),
        }
    }
    by_kind.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let faults_fired: u64 = cells.iter().map(|c| c.faults_fired).sum();
    let scheduled = cells.iter().filter(|c| c.row.kind.scheduled()).count();
    let certified_ok = cells.iter().filter(|c| c.certified == Some(true)).count();

    let portfolio_cells = cells.iter().filter(|c| c.portfolio).count();
    println!(
        "chaos sweep: {SEEDS} fault plans x {} loops x (plain + portfolio) = {total} runs \
         ({portfolio_cells} portfolio)",
        loops.len()
    );
    println!("injected faults fired: {faults_fired}");
    for (kind, n) in &by_kind {
        println!("  {kind:<20} {n}");
    }
    println!("scheduled: {scheduled}/{total}, certified: {certified_ok}/{scheduled}");

    // Acceptance criteria. Every violation names its seed for replay.
    for c in &cells {
        assert!(
            c.row.kind != OutcomeKind::Crashed,
            "seed {} / {}: panic escaped schedule(): {:?}",
            c.seed,
            c.row.name,
            c.row.detail
        );
        assert!(
            c.balanced,
            "seed {} / {}: unbalanced trace stream (outcome {})",
            c.seed, c.row.name, c.row.kind
        );
        if let Some(ok) = c.certified {
            assert!(
                ok,
                "seed {} / {}: emitted schedule failed certification",
                c.seed, c.row.name
            );
        }
        if c.row.kind == OutcomeKind::Failed {
            assert!(
                c.row.detail.is_some(),
                "seed {} / {}: failed outcome without a typed cause",
                c.seed,
                c.row.name
            );
        }
        assert!(
            !c.disagreed,
            "seed {} / {}: an injected fault manufactured a cross-backend disagreement",
            c.seed, c.row.name
        );
    }
    assert_eq!(
        scheduled, certified_ok,
        "every emitted schedule must certify"
    );
    assert!(
        faults_fired > 0,
        "the seeded matrix should trip at least one injection"
    );
    println!(
        "acceptance criteria satisfied: zero aborts, balanced traces, \
         {certified_ok} certified schedules under {faults_fired} injected faults"
    );
}
