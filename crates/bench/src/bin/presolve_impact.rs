//! Presolve impact over the golden corpus: for each of the 11 golden
//! kernels and both dependence formulations, solve serially with the
//! analyzer's presolve off and on, and report what presolve removed and
//! what the branch-and-bound search cost with and without it.
//!
//! Exits non-zero if presolve fails to reduce the *total* golden-corpus
//! branch-and-bound nodes or simplex iterations — the acceptance gate of
//! the analyzer work — or if any kernel's certified II or objective
//! differs between the two modes (which would mean presolve is unsound).
//!
//! Run: `cargo run --release -p optimod-bench --bin presolve_impact`

use std::time::Duration;

use optimod::{DepStyle, LoopStatus, Objective, OptimalScheduler, SchedulerConfig};
use optimod_ddg::{kernels, Loop};
use optimod_machine::{example_3fu, Machine};

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

fn scheduler(style: DepStyle, presolve: bool) -> OptimalScheduler {
    let mut cfg = SchedulerConfig::new(style, Objective::MinMaxLive)
        .with_time_limit(Duration::from_secs(120));
    cfg.limits.threads = 1;
    cfg.presolve = presolve;
    OptimalScheduler::new(cfg)
}

fn style_name(style: DepStyle) -> &'static str {
    match style {
        DepStyle::Traditional => "traditional",
        DepStyle::Structured => "structured",
    }
}

fn main() {
    let machine = example_3fu();
    let loops = golden_loops(&machine);

    let mut sound = true;
    let (mut nodes_off, mut nodes_on) = (0u64, 0u64);
    let (mut iters_off, mut iters_on) = (0u64, 0u64);
    let (mut rows, mut fixed, mut tightened) = (0u64, 0u64, 0u64);

    println!(
        "{:<20} {:<12} {:>3} {:>10} {:>10} {:>10} {:>10} {:>6} {:>6} {:>6}",
        "kernel",
        "style",
        "II",
        "nodes",
        "nodes+pre",
        "iters",
        "iters+pre",
        "rows-",
        "fix",
        "tight"
    );
    for style in [DepStyle::Traditional, DepStyle::Structured] {
        let base = scheduler(style, false);
        let pre = scheduler(style, true);
        for l in &loops {
            let r = base.schedule(l, &machine);
            let p = pre.schedule(l, &machine);
            for (mode, res) in [("off", &r), ("on", &p)] {
                assert_eq!(
                    res.status,
                    LoopStatus::Optimal,
                    "{} / {} must reach optimality (presolve {mode})",
                    l.name(),
                    style_name(style)
                );
            }
            let ii = r.schedule.as_ref().map(|s| s.ii());
            if p.schedule.as_ref().map(|s| s.ii()) != ii || p.objective_value != r.objective_value {
                eprintln!(
                    "UNSOUND: {} / {}: presolve changed II {:?}->{:?} or objective {:?}->{:?}",
                    l.name(),
                    style_name(style),
                    ii,
                    p.schedule.as_ref().map(|s| s.ii()),
                    r.objective_value,
                    p.objective_value
                );
                sound = false;
            }
            nodes_off += r.stats.bb_nodes;
            nodes_on += p.stats.bb_nodes;
            iters_off += r.stats.simplex_iterations;
            iters_on += p.stats.simplex_iterations;
            rows += p.stats.presolve_rows_eliminated;
            fixed += p.stats.presolve_binaries_fixed;
            tightened += p.stats.presolve_bounds_tightened;
            println!(
                "{:<20} {:<12} {:>3} {:>10} {:>10} {:>10} {:>10} {:>6} {:>6} {:>6}",
                l.name(),
                style_name(style),
                ii.unwrap_or(0),
                r.stats.bb_nodes,
                p.stats.bb_nodes,
                r.stats.simplex_iterations,
                p.stats.simplex_iterations,
                p.stats.presolve_rows_eliminated,
                p.stats.presolve_binaries_fixed,
                p.stats.presolve_bounds_tightened
            );
        }
    }

    println!(
        "\ntotals: nodes {nodes_off} -> {nodes_on} ({:+}), simplex iterations {iters_off} -> \
         {iters_on} ({:+})",
        nodes_on as i64 - nodes_off as i64,
        iters_on as i64 - iters_off as i64
    );
    println!("presolve work: {rows} rows eliminated, {fixed} binaries fixed, {tightened} bounds tightened");

    if !sound {
        eprintln!("FAIL: presolve changed a certified result");
        std::process::exit(1);
    }
    if nodes_on > nodes_off && iters_on > iters_off {
        eprintln!("FAIL: presolve reduced neither total nodes nor total simplex iterations");
        std::process::exit(1);
    }
    println!("PASS: presolve sound and reduces total search effort");
}
