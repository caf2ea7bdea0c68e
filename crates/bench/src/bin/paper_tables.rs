//! The paper's evaluation from one set of runs: each of the 8 scheduler ×
//! formulation configurations runs once over the corpus, IMS + stage
//! scheduling runs once, and Figure 2 (average B&B nodes over the loops
//! all 8 configurations schedule), the headline totals (coverage and
//! total time), Tables 1 and 2 and the Section 6 MaxLive comparison are
//! all printed from those records.
//!
//! The per-loop node cap (`OPTIMOD_NODE_CAP`) bounds effort the same way
//! on every host; the wall budget (`OPTIMOD_BUDGET_MS`) is a safety net.
//! The header counts the loops each limit stopped, names those the net
//! stopped, and names the slowest loops of each configuration.
//!
//! Run: `sh results/run_all.sh` (records the settings), or
//! `cargo run --release -p optimod-bench --bin paper_tables`.

use std::cmp::{Ordering, Reverse};
use std::time::Duration;

use optimod::DepStyle;
use optimod_bench::{
    print_measurement_block, run_heuristics, total_time, ExperimentConfig, LoopRecord, Stop,
    SCHEDULERS,
};

fn main() {
    let cfg = &ExperimentConfig::from_env();
    let machine = cfg.machine();
    let loops = cfg.corpus_loops(&machine);
    println!(
        "Paper tables — {} loops on '{}', node cap {} per loop, safety net {} ms per loop\n",
        loops.len(),
        machine.name(),
        cfg.node_cap,
        cfg.budget.as_millis()
    );

    let mut runs = Vec::new();
    for style in [DepStyle::Traditional, DepStyle::Structured] {
        for (name, obj) in SCHEDULERS {
            eprintln!("running {name} / {style:?} ...");
            runs.push((name, style, cfg.run_suite(&machine, &loops, style, obj)));
        }
    }
    eprintln!("running IMS + stage scheduling ...");
    let heur = run_heuristics(&machine, &loops);
    let pick = |name: &str, style| -> &[LoopRecord] {
        let run = runs.iter().find(|(n, s, _)| *n == name && *s == style);
        &run.expect("configuration was run").2
    };

    println!("loops the cap stopped (B&B nodes >= cap) and the net stopped (wall time >= budget),");
    println!("then the 3 slowest loops (N ops, nodes, time) and their share of the total time:");
    for (name, style, recs) in &runs {
        let stopped = |stop| recs.iter().filter(move |r| cfg.stop(r) == Some(stop));
        let net: Vec<&str> = stopped(Stop::Net).map(|r| r.name.as_str()).collect();
        let line = format!(
            "  {name:<8} {:<12} cap {:>3}   net {:>3}  {}",
            format!("{style:?}"),
            stopped(Stop::Cap).count(),
            net.len(),
            net.join(", ")
        );
        println!("{}", line.trim_end());
        let mut top: Vec<&LoopRecord> = recs.iter().collect();
        top.sort_by_key(|r| Reverse(r.result.stats.wall_time));
        top.truncate(3);
        let top_time: Duration = top.iter().map(|r| r.result.stats.wall_time).sum();
        let named: Vec<String> = top
            .iter()
            .map(|r| {
                let s = &r.result.stats;
                let secs = s.wall_time.as_secs_f64();
                format!("{} ({}, {}, {secs:.1}s)", r.name, r.n_ops, s.bb_nodes)
            })
            .collect();
        println!(
            "  {:>21} {:>5.1}%  {}",
            "slowest",
            100.0 * top_time.as_secs_f64() / total_time(recs).as_secs_f64(),
            named.join(", ")
        );
    }

    // Loops scheduled by every configuration (the paper's 653-loop set).
    let solved_by_all: Vec<usize> = (0..loops.len())
        .filter(|&i| runs.iter().all(|(_, _, r)| r[i].result.status.scheduled()))
        .collect();
    println!(
        "\n=== Figure 2: average B&B nodes over the {} loops scheduled by all 8 configurations ===",
        solved_by_all.len()
    );
    println!(
        "{:<10} {:>24} {:>24} {:>10}",
        "Scheduler", "avg nodes (traditional)", "avg nodes (structured)", "ratio"
    );
    for (name, _) in SCHEDULERS {
        let avg = |style| {
            let recs = pick(name, style);
            let nodes: u64 = solved_by_all
                .iter()
                .map(|&i| recs[i].result.stats.bb_nodes)
                .sum();
            nodes as f64 / solved_by_all.len() as f64
        };
        let (t, s) = (avg(DepStyle::Traditional), avg(DepStyle::Structured));
        println!("{name:<10} {t:>24.2} {s:>24.2} {:>9.1}x", t / s);
    }

    println!("\n=== Headline totals (all corpus loops) ===");
    let coverage = |r: &[LoopRecord]| r.iter().filter(|x| x.result.status.scheduled()).count();
    for (name, _) in SCHEDULERS {
        let (trad, strc) = (
            pick(name, DepStyle::Traditional),
            pick(name, DepStyle::Structured),
        );
        let (t_time, s_time) = (
            total_time(trad).as_secs_f64(),
            total_time(strc).as_secs_f64(),
        );
        println!(
            "{name:<10} coverage {:>4} -> {:>4} loops | total time {t_time:>8.1}s -> {s_time:>7.1}s ({:.1}x)",
            coverage(trad),
            coverage(strc),
            t_time / s_time
        );
    }

    for (table, style) in [
        ("Table 1: structured constraints", DepStyle::Structured),
        ("Table 2: traditional constraints", DepStyle::Traditional),
    ] {
        println!("\n=== {table} ===");
        for (name, _) in SCHEDULERS {
            println!();
            print_measurement_block(&format!("{name} Modulo-Sched"), pick(name, style));
        }
    }

    println!("\n=== Section 6: stage scheduling vs optimal (structured constraints) ===");
    for name in ["MinReg", "MinLife", "MinBuff"] {
        // [optimal lower, equal, heuristic lower] MaxLive of the actual
        // schedules, as the paper compares them; only same-II pairs count.
        let mut counts = [0usize; 3];
        for ((l, h), r) in loops
            .iter()
            .zip(&heur)
            .zip(pick(name, DepStyle::Structured))
        {
            let Some(opt) = &r.result.schedule else {
                continue;
            };
            if opt.ii() == h.staged.ii() {
                counts[match opt.max_live(l).cmp(&h.staged.max_live(l)) {
                    Ordering::Less => 0,
                    Ordering::Equal => 1,
                    Ordering::Greater => 2,
                }] += 1;
            }
        }
        let [optimal_better, equal, heuristic_better] = counts;
        let pct = |x: usize| 100.0 * x as f64 / loops.len() as f64;
        println!(
            "\n{name:<8} vs IMS+stage-scheduling ({} same-II comparisons):",
            counts.iter().sum::<usize>()
        );
        println!(
            "  optimal scheduler lower MaxLive:  {optimal_better:>4} loops ({:>5.1}%)",
            pct(optimal_better)
        );
        println!(
            "  heuristic lower MaxLive:          {heuristic_better:>4} loops ({:>5.1}%)",
            pct(heuristic_better)
        );
        println!("  equal:                            {equal:>4} loops");
    }
}
