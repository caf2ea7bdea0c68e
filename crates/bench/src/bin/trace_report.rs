//! Trace-derived observability report: runs the MinReg scheduler over the
//! corpus under both formulations with a per-loop
//! [`MemorySink`](optimod_trace::MemorySink) attached,
//! prints percentile tables (per-phase wall clock from the traces,
//! branch-and-bound and LP counters from each loop's `SolveStats`), and
//! the absorbed `SolveStats` totals per formulation.
//!
//! The per-loop solves are single-threaded, so the counters are the same
//! ones `paper_tables` reports at the same limits — the trace layer adds the
//! per-phase time and the *distribution* (p50/p90 skew) that flat totals
//! cannot show.
//!
//! Run: `cargo run --release -p optimod-bench --bin trace_report`
//! (set `OPTIMOD_CORPUS=medium|full` and `OPTIMOD_BUDGET_MS` to scale up).

use optimod::{DepStyle, Objective};
use optimod_bench::{print_trace_percentiles, ExperimentConfig};
use optimod_ilp::SolveStats;

fn style_name(style: DepStyle) -> &'static str {
    match style {
        DepStyle::Traditional => "traditional",
        DepStyle::Structured => "structured",
    }
}

fn main() {
    let cfg = ExperimentConfig::from_env();
    let machine = cfg.machine();
    let loops = cfg.corpus_loops(&machine);
    println!(
        "Trace report — MinReg over {} loops on '{}', {} ms/loop budget\n",
        loops.len(),
        machine.name(),
        cfg.budget.as_millis()
    );

    for style in [DepStyle::Traditional, DepStyle::Structured] {
        eprintln!("running MinReg / {style:?} ...");
        let traced = cfg.run_suite_traced(&machine, &loops, style, Objective::MinMaxLive);

        // Every loop's node stream must close what it opens, whatever the
        // outcome — an unbalanced one is an instrumentation bug.
        for (r, rep) in &traced {
            assert!(rep.balanced(), "{}: unbalanced node stream", r.name);
        }

        print_trace_percentiles(
            &format!("MinReg / {} formulation:", style_name(style)),
            &traced,
        );
        let scheduled = traced
            .iter()
            .filter(|(r, _)| r.result.status.scheduled())
            .count();
        let mut totals = SolveStats::default();
        for (r, _) in &traced {
            totals.absorb(&r.result.stats);
        }
        println!("  totals: {scheduled} of {} loops scheduled", loops.len());
        for line in totals.render().lines() {
            println!("  {line}");
        }
        println!();
    }
}
