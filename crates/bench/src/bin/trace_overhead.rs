//! Null-sink overhead smoke check: schedules a fig2-style corpus slice with
//! the trace disabled and again with an active [`NullSink`], and compares
//! total solver CPU. The event layer is designed so the disabled handle is
//! one pointer check and the null sink one dynamic dispatch to a no-op;
//! this binary verifies that promise stays true on the real solve path.
//!
//! Exits nonzero when the null-sink run is more than `MAX_RATIO` (5%)
//! slower than the best untraced run, so `scripts/check.sh` can gate on
//! it. The workload is fixed: the default experiment configuration, so no
//! environment variable changes its loops, budget or node cap.
//!
//! Run: `cargo run --release -p optimod-bench --bin trace_overhead`

use std::process::ExitCode;
use std::sync::Arc;

use optimod::{DepStyle, Objective};
use optimod_bench::{total_time, ExperimentConfig};
use optimod_trace::{NullSink, Trace};

/// Corpus loops in the measured slice; a smaller slice lets scheduler
/// noise dominate the ratio.
const SLICE: usize = 24;
/// The null-sink / disabled time ratio above which the gate fails.
const MAX_RATIO: f64 = 1.05;

fn main() -> ExitCode {
    let cfg = ExperimentConfig::default();
    let machine = cfg.machine();
    let loops: Vec<_> = cfg.corpus_loops(&machine).into_iter().take(SLICE).collect();
    println!(
        "Null-sink trace overhead — MinReg/structured over {} loops, \
         threshold {MAX_RATIO:.2}x\n",
        loops.len()
    );

    let run = |trace: Trace| -> f64 {
        let sched = cfg.scheduler_with_trace(DepStyle::Structured, Objective::MinMaxLive, trace);
        let recs = cfg.run_suite_with(&machine, &loops, &sched);
        total_time(&recs).as_secs_f64()
    };

    // Warm up (page cache, allocator, frequency scaling), then alternate
    // disabled/null runs and compare the best of each so a scheduler blip
    // in one round cannot fail the gate on its own.
    let _ = run(Trace::disabled());
    let mut best_off = f64::INFINITY;
    let mut best_null = f64::INFINITY;
    for round in 0..3 {
        let off = run(Trace::disabled());
        let null = run(Trace::new(Arc::new(NullSink)));
        println!("round {round}: disabled {off:.3}s, null-sink {null:.3}s");
        best_off = best_off.min(off);
        best_null = best_null.min(null);
    }

    let ratio = best_null / best_off;
    println!(
        "\nbest disabled {best_off:.3}s, best null-sink {best_null:.3}s => {ratio:.3}x \
         (limit {MAX_RATIO:.2}x)"
    );
    if ratio > MAX_RATIO {
        eprintln!("FAIL: null-sink tracing exceeds the overhead budget");
        return ExitCode::FAILURE;
    }
    println!("OK: null-sink tracing within the overhead budget");
    ExitCode::SUCCESS
}
