//! Per-node LP re-solve microbenchmark: warm vs cold restart, on the large
//! generated loops where the basis dimension actually hurts. Prints a
//! per-loop table and enforces a pinned non-regression gate on the
//! headline ratio.
//!
//! What is measured, per generated loop (N >= 40 operations, scheduling
//! ILP built at the loop's MII with the structured formulation):
//!
//! 1. the root LP relaxation, solved cold, and
//! 2. a set of simulated branch-and-bound children — one integer variable
//!    bound-fixed per child, exactly what `branch_bound.rs` does — each
//!    re-solved twice: cold, and warm from the parent's basis snapshot.
//!    The cold solves run on a `Simplex` of their own, so every warm child
//!    finds the root's factor still in place and rolls its eta file back
//!    to it, as a branch-and-bound child does; the table prints how many
//!    warm children refactorized instead.
//!
//! The headline number is the geometric mean, across loops, of
//! `cold / warm` per-child re-solve time: the speedup a branch-and-bound
//! node sees from restarting at its parent's basis. The gate
//! (`MIN_RATIO`) fails the process when the geomean drops below it, so
//! `scripts/check.sh` pins the win.
//!
//! Run: `cargo run --release -p optimod-bench --bin bench_simplex`

use std::time::Instant;

use optimod::{build_model, compute_mii, BuiltModel, FormulationConfig};
use optimod_ddg::generator::{generate_loop, GeneratorConfig};
use optimod_ilp::{LpStatus, Simplex, SimplexOptions, WarmStart};
use optimod_machine::example_3fu;

/// Generated loops measured (seeds 1000..).
const LOOPS: usize = 5;
/// Simulated branch-and-bound children re-solved per loop.
const CHILDREN: usize = 6;
/// The geomean per-node warm-start speedup below which the gate fails.
const MIN_RATIO: f64 = 2.0;

/// Builds the scheduling ILP for `seed` at the smallest II whose root LP
/// relaxation is feasible (a capped probe solve filters infeasible IIs
/// without paying a full phase-1 infeasibility proof per candidate — the
/// real branch-and-bound would bump II on those exactly the same way).
fn build_for_seed(seed: u64, machine: &optimod_machine::Machine) -> (String, usize, BuiltModel) {
    let cfg = GeneratorConfig {
        min_ops: 40,
        max_ops: 44,
        size_log_median: 40.0_f64.ln(),
        ..Default::default()
    };
    let l = generate_loop(&cfg, machine, seed);
    let probe_opts = SimplexOptions {
        max_iterations: 6_000,
        ..Default::default()
    };
    let mut ii = compute_mii(&l, machine).value();
    loop {
        if let Some(built) = build_model(&l, machine, ii, &FormulationConfig::default()) {
            let model = &built.model;
            let lb: Vec<f64> = model.var_ids().map(|v| model.lb(v)).collect();
            let ub: Vec<f64> = model.var_ids().map(|v| model.ub(v)).collect();
            let probe = Simplex::new(model).solve(&lb, &ub, &probe_opts);
            if probe.status == LpStatus::Optimal {
                return (format!("gen-{seed}-n{}", l.num_ops()), l.num_ops(), built);
            }
            eprintln!(
                "  [gen-{seed}] II {ii}: root relaxation {:?}, trying II {}",
                probe.status,
                ii + 1
            );
        }
        ii += 1;
    }
}

/// One loop's measurements (times in nanoseconds, per-child means).
struct Row {
    name: String,
    ops: usize,
    rows: usize,
    root_ns: u64,
    cold_ns: u64,
    warm_ns: u64,
    warm_taken: usize,
    warm_refactors: u64,
    children: usize,
}

fn measure_loop(seed: u64, children_per_loop: usize) -> Row {
    let machine = example_3fu();
    let (name, ops, built) = build_for_seed(seed, &machine);
    let model = &built.model;
    let lb: Vec<f64> = model.var_ids().map(|v| model.lb(v)).collect();
    let ub: Vec<f64> = model.var_ids().map(|v| model.ub(v)).collect();

    eprintln!(
        "  [{name}] {} ops, {} vars, {} rows",
        ops,
        model.num_vars(),
        model.num_constraints()
    );
    let mut warm = Simplex::new(model);
    let mut cold = Simplex::new(model);

    let t0 = Instant::now();
    let root = warm.solve(&lb, &ub, &SimplexOptions::default());
    let root_ns = t0.elapsed().as_nanos() as u64;
    eprintln!(
        "  [{name}] root: {:.3}ms ({} iterations)",
        root_ns as f64 / 1e6,
        root.iterations
    );
    assert_eq!(root.status, LpStatus::Optimal, "{name}: root not optimal");
    let snapshot = warm.basis_snapshot().expect("optimal root basis");

    // Child nodes: fix one schedule binary per child, alternating the
    // branch direction the way the down/up children of one B&B node do.
    // Child solves run under an iteration cap several times the root's
    // count: a cold solve that blows past it (degenerate phase-1 stall —
    // exactly what the warm restart exists to avoid) is reported as an
    // indefinite status, and that child is skipped rather than letting one
    // pathological cold solve dominate the timing columns for minutes.
    let child_opts = SimplexOptions {
        max_iterations: 12_000,
        ..Default::default()
    };
    let definite = |s: LpStatus| matches!(s, LpStatus::Optimal | LpStatus::Infeasible);
    let branch_vars: Vec<_> = built.a.iter().flatten().copied().collect();
    let stride = (branch_vars.len() / children_per_loop).max(1);
    let mut cold_ns = 0u64;
    let mut warm_ns = 0u64;
    let mut warm_taken = 0usize;
    let mut warm_refactors = 0u64;
    let mut children = 0usize;
    for (i, &v) in branch_vars.iter().step_by(stride).enumerate() {
        if children == children_per_loop {
            break;
        }
        let j = v.index();
        let mut clb = lb.clone();
        let mut cub = ub.clone();
        if i % 2 == 0 {
            clb[j] = 1.0; // up branch: force the binary on
        } else {
            cub[j] = 0.0; // down branch: force it off
        }

        let t0 = Instant::now();
        let c = cold.solve(&clb, &cub, &child_opts);
        let c_ns = t0.elapsed().as_nanos() as u64;

        let t0 = Instant::now();
        let w = warm.solve_warm(&clb, &cub, &child_opts, Some(&snapshot));
        let w_ns = t0.elapsed().as_nanos() as u64;

        if !(definite(c.status) && definite(w.status)) {
            eprintln!(
                "  [{name}] child {i}: skipped (cold {:?}, warm {:?} under the \
                 child iteration cap)",
                c.status, w.status
            );
            continue;
        }
        // Definite answers must agree — Optimal-vs-Infeasible between the
        // cold and the warm leg would be a soundness bug.
        assert_eq!(c.status, w.status, "{name} child {i}: warm status split");
        if c.status == LpStatus::Optimal {
            assert!(
                (c.objective - w.objective).abs() < 1e-6,
                "{name} child {i}: warm objective {} vs cold {}",
                w.objective,
                c.objective
            );
        }
        cold_ns += c_ns;
        warm_ns += w_ns;
        if w.warm == WarmStart::Taken {
            warm_taken += 1;
        }
        warm_refactors += w.refactors;
        children += 1;
    }
    let n = children.max(1) as u64;
    Row {
        name,
        ops,
        rows: model.num_constraints(),
        root_ns,
        cold_ns: cold_ns / n,
        warm_ns: warm_ns / n,
        warm_taken,
        warm_refactors,
        children,
    }
}

fn geomean(ratios: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for r in ratios {
        sum += r.ln();
        n += 1;
    }
    (sum / n.max(1) as f64).exp()
}

fn main() {
    println!(
        "Per-node LP re-solve benchmark — {LOOPS} generated loops (N >= 40), \
         {CHILDREN} simulated children each\n"
    );
    println!(
        "{:<14} {:>4} {:>5} {:>10} {:>12} {:>12} {:>8} {:>8} {:>8}",
        "loop", "ops", "rows", "root", "cold", "warm", "warm-spd", "warm-hit", "warm-rf"
    );

    let rows: Vec<Row> = (0..LOOPS as u64)
        .map(|seed| measure_loop(1000 + seed, CHILDREN))
        .collect();
    for r in &rows {
        println!(
            "{:<14} {:>4} {:>5} {:>8.3}ms {:>10.3}ms {:>10.3}ms {:>7.2}x {:>6}/{} {:>8}",
            r.name,
            r.ops,
            r.rows,
            r.root_ns as f64 / 1e6,
            r.cold_ns as f64 / 1e6,
            r.warm_ns as f64 / 1e6,
            r.cold_ns as f64 / r.warm_ns.max(1) as f64,
            r.warm_taken,
            r.children,
            r.warm_refactors
        );
    }

    let warm_speedup = geomean(
        rows.iter()
            .map(|r| r.cold_ns as f64 / r.warm_ns.max(1) as f64),
    );
    println!("\ngeomean per-node warm-start speedup (cold -> warm): {warm_speedup:.2}x");

    if warm_speedup < MIN_RATIO {
        eprintln!(
            "FAIL: per-node warm-start speedup {warm_speedup:.2}x is below the pinned \
             non-regression ratio {MIN_RATIO:.2}x"
        );
        std::process::exit(1);
    }
    println!("\ngate: {warm_speedup:.2}x >= {MIN_RATIO:.2}x — ok");
}
