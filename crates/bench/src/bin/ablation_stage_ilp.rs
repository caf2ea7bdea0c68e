//! Ablation: the stage-scheduling heuristic versus ILP-optimal stage
//! assignment (rows fixed, stages free).
//!
//! Quantifies how much register pressure the local-search stage scheduler
//! leaves on the table relative to an exact stage assignment on the *same*
//! MRT — the gap the MICRO-28 heuristics paper closes with smarter stage
//! placement.
//!
//! Each stage ILP runs on one thread, so under the node cap
//! (`OPTIMOD_NODE_CAP`) its effort and result repeat on every host; the
//! wall budget (`OPTIMOD_BUDGET_MS`) is only a safety net.
//!
//! Run: `cargo run --release -p optimod-bench --bin ablation_stage_ilp`

use optimod::heuristic::optimal_stages;
use optimod::Objective;
use optimod_bench::{run_heuristics, ExperimentConfig};
use optimod_ilp::SolveLimits;

fn main() {
    let cfg = ExperimentConfig::from_env();
    let machine = cfg.machine();
    let loops: Vec<_> = cfg.corpus_loops(&machine).into_iter().take(48).collect();
    println!(
        "Stage-assignment ablation — {} loops, node cap {} per loop, safety net {} ms per loop\n",
        loops.len(),
        cfg.node_cap,
        cfg.budget.as_millis()
    );
    let heur = run_heuristics(&machine, &loops);
    let mut total_heur = 0u64;
    let mut total_opt = 0u64;
    let mut gap_loops = 0usize;
    let mut compared = 0usize;
    for (l, h) in loops.iter().zip(&heur) {
        let limits = SolveLimits {
            time_limit: cfg.budget,
            node_limit: cfg.node_cap,
            threads: 1,
            ..Default::default()
        };
        let Some((opt, _)) =
            optimal_stages(l, &machine, &h.ims, Objective::MinMaxLive, None, limits)
        else {
            continue;
        };
        compared += 1;
        let hm = h.staged.max_live(l) as u64;
        let om = opt.max_live(l) as u64;
        total_heur += hm;
        total_opt += om;
        if om < hm {
            gap_loops += 1;
            println!(
                "  {}: heuristic stages MaxLive {hm}, optimal stages {om}",
                l.name()
            );
        }
    }
    println!("\ncompared {compared} loops (optimal stage ILP solved)");
    println!("total MaxLive: heuristic stages {total_heur}, optimal stages {total_opt}");
    println!("loops where exact stage assignment wins: {gap_loops}");
}
