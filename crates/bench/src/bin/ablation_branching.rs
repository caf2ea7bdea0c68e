//! Ablation: branching-rule sensitivity of the two formulations.
//!
//! Not a paper experiment — this quantifies a solver design choice called
//! out in DESIGN.md: how much the branch-and-bound node count (and the
//! traditional/structured gap) depends on the branching rule. The paper's
//! effect must be visible under *every* rule for the reproduction to be
//! trustworthy.
//!
//! Run: `cargo run --release -p optimod-bench --bin ablation_branching`

use optimod::{DepStyle, LoopStatus, Objective};
use optimod_bench::ExperimentConfig;
use optimod_ilp::BranchRule;

fn main() {
    let cfg = ExperimentConfig::from_env();
    let machine = cfg.machine();
    // A slice of the corpus keeps this ablation quick.
    let loops: Vec<_> = cfg.corpus_loops(&machine).into_iter().take(48).collect();
    println!(
        "Branching-rule ablation (MinReg) — {} loops, {} ms/loop\n",
        loops.len(),
        cfg.budget.as_millis()
    );
    println!(
        "{:<18} {:>13} {:>13} {:>16} {:>13} {:>13} {:>16}",
        "Rule",
        "trad solved",
        "trad opt",
        "trad avg nodes",
        "struct solved",
        "struct opt",
        "struct avg nodes"
    );
    for rule in [
        BranchRule::FirstFractional,
        BranchRule::MostFractional,
        BranchRule::MostFractionalUp,
        BranchRule::HighestIndexUp,
    ] {
        let mut row = format!("{rule:<18?}");
        for style in [DepStyle::Traditional, DepStyle::Structured] {
            let mut sched_cfg = optimod::SchedulerConfig::new(style, Objective::MinMaxLive)
                .with_time_limit(cfg.budget)
                .with_node_limit(cfg.node_cap);
            sched_cfg.limits.branch_rule = rule;
            // One worker, as in `paper_tables`: a loop that finishes
            // within the budget repeats its node count on every host.
            sched_cfg.limits.threads = 1;
            let sched = optimod::OptimalScheduler::new(sched_cfg);
            let (mut solved, mut optimal) = (0usize, 0usize);
            let mut nodes = 0u64;
            for l in &loops {
                let r = sched.schedule(l, &machine);
                if r.status.scheduled() {
                    solved += 1;
                    optimal += usize::from(r.status == LoopStatus::Optimal);
                    nodes += r.stats.bb_nodes;
                }
            }
            let avg = if solved > 0 {
                nodes as f64 / solved as f64
            } else {
                f64::NAN
            };
            row += &format!(" {solved:>13} {optimal:>13} {avg:>16.1}");
        }
        println!("{row}");
    }
}
