//! Per-node LP re-solve microbenchmark: dense vs sparse engine, warm vs
//! cold restart, on the large generated loops where the basis dimension
//! actually hurts. Prints a per-loop table and enforces a pinned
//! non-regression gate on the headline ratio.
//!
//! What is measured, per generated loop (N >= 40 operations, scheduling
//! ILP built at the loop's MII with the structured formulation):
//!
//! 1. the root LP relaxation, solved once per engine (cold), and
//! 2. a set of simulated branch-and-bound children — one integer variable
//!    bound-fixed per child, exactly what `branch_bound.rs` does — each
//!    re-solved three ways: dense cold, sparse cold, and sparse warm from
//!    the parent's basis snapshot. The cold sparse solves run on a
//!    `Simplex` of their own, so every warm child finds the root's factor
//!    still in place and rolls its eta file back to it, as a
//!    branch-and-bound child does; the table prints how many warm children
//!    refactorized instead.
//!
//! The headline number is the geometric mean, across loops, of
//! `dense cold / sparse warm` per-child re-solve time: the speedup a
//! branch-and-bound node actually sees from the sparse engine. The gate
//! (`MIN_RATIO`) fails the process when the geomean drops below it, so
//! `scripts/check.sh` pins the win.
//!
//! Run: `cargo run --release -p optimod-bench --bin bench_simplex`

use std::time::Instant;

use optimod::{build_model, compute_mii, BuiltModel, FormulationConfig};
use optimod_ddg::generator::{generate_loop, GeneratorConfig};
use optimod_ilp::{LpStatus, Simplex, SimplexEngine, SimplexOptions, WarmStart};
use optimod_machine::example_3fu;

/// Generated loops measured (seeds 1000..).
const LOOPS: usize = 5;
/// Simulated branch-and-bound children re-solved per loop.
const CHILDREN: usize = 6;
/// The geomean per-node re-solve speedup below which the gate fails.
const MIN_RATIO: f64 = 2.0;

fn opts_for(engine: SimplexEngine) -> SimplexOptions {
    SimplexOptions {
        engine,
        ..Default::default()
    }
}

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
        ..opts_for(SimplexEngine::Sparse)
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
    root_dense_ns: u64,
    root_sparse_ns: u64,
    dense_cold_ns: u64,
    sparse_cold_ns: u64,
    sparse_warm_ns: u64,
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
    let mut dense = Simplex::new(model);
    let mut sparse = Simplex::new(model);
    let mut sparse_cold = Simplex::new(model);
    let dense_opts = opts_for(SimplexEngine::Dense);
    let sparse_opts = opts_for(SimplexEngine::Sparse);

    let t0 = Instant::now();
    let root_s = sparse.solve(&lb, &ub, &sparse_opts);
    let root_sparse_ns = t0.elapsed().as_nanos() as u64;
    eprintln!(
        "  [{name}] sparse root: {:.3}ms ({} iterations)",
        root_sparse_ns as f64 / 1e6,
        root_s.iterations
    );
    let t0 = Instant::now();
    let root_d = dense.solve(&lb, &ub, &dense_opts);
    let root_dense_ns = t0.elapsed().as_nanos() as u64;
    eprintln!("  [{name}] dense root: {:.3}ms", root_dense_ns as f64 / 1e6);
    assert_eq!(
        root_d.status,
        LpStatus::Optimal,
        "{name}: dense root not optimal"
    );
    assert_eq!(
        root_s.status,
        LpStatus::Optimal,
        "{name}: sparse root not optimal"
    );
    assert!(
        (root_d.objective - root_s.objective).abs() < 1e-6,
        "{name}: engines disagree at the root"
    );
    let snapshot = sparse.basis_snapshot().expect("optimal root basis");

    // Child nodes: fix one schedule binary per child, alternating the
    // branch direction the way the down/up children of one B&B node do.
    // Child solves run under an iteration cap several times the root's
    // count: a cold solve that blows past it (degenerate phase-1 stall —
    // exactly what the warm restart exists to avoid) is reported as an
    // indefinite status, and that child is skipped rather than letting one
    // pathological cold solve dominate the timing columns for minutes.
    let child_opts = |base: &SimplexOptions| SimplexOptions {
        max_iterations: 12_000,
        ..base.clone()
    };
    let dense_child_opts = child_opts(&dense_opts);
    let sparse_child_opts = child_opts(&sparse_opts);
    let definite = |s: LpStatus| matches!(s, LpStatus::Optimal | LpStatus::Infeasible);
    let branch_vars: Vec<_> = built.a.iter().flatten().copied().collect();
    let stride = (branch_vars.len() / children_per_loop).max(1);
    let mut dense_cold_ns = 0u64;
    let mut sparse_cold_ns = 0u64;
    let mut sparse_warm_ns = 0u64;
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
        let d = dense.solve(&clb, &cub, &dense_child_opts);
        let d_ns = t0.elapsed().as_nanos() as u64;

        let t0 = Instant::now();
        let c = sparse_cold.solve(&clb, &cub, &sparse_child_opts);
        let c_ns = t0.elapsed().as_nanos() as u64;

        let t0 = Instant::now();
        let w = sparse.solve_warm(&clb, &cub, &sparse_child_opts, Some(&snapshot));
        let w_ns = t0.elapsed().as_nanos() as u64;

        if !(definite(d.status) && definite(c.status) && definite(w.status)) {
            eprintln!(
                "  [{name}] child {i}: skipped (dense {:?}, sparse {:?}, warm {:?} \
                 under the child iteration cap)",
                d.status, c.status, w.status
            );
            continue;
        }
        // Definite answers must agree — Optimal-vs-Infeasible between any
        // pair of (engine, restart) legs would be a soundness bug.
        assert_eq!(d.status, c.status, "{name} child {i}: engine status split");
        assert_eq!(d.status, w.status, "{name} child {i}: warm status split");
        if d.status == LpStatus::Optimal {
            assert!(
                (d.objective - w.objective).abs() < 1e-6,
                "{name} child {i}: warm objective {} vs dense {}",
                w.objective,
                d.objective
            );
        }
        dense_cold_ns += d_ns;
        sparse_cold_ns += c_ns;
        sparse_warm_ns += w_ns;
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
        root_dense_ns,
        root_sparse_ns,
        dense_cold_ns: dense_cold_ns / n,
        sparse_cold_ns: sparse_cold_ns / n,
        sparse_warm_ns: sparse_warm_ns / n,
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
        "{:<14} {:>4} {:>5} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8}",
        "loop",
        "ops",
        "rows",
        "dense-cold",
        "sparse-cold",
        "sparse-warm",
        "node-spd",
        "warm-hit",
        "warm-rf"
    );

    let rows: Vec<Row> = (0..LOOPS as u64)
        .map(|seed| measure_loop(1000 + seed, CHILDREN))
        .collect();
    for r in &rows {
        println!(
            "{:<14} {:>4} {:>5} {:>10.3}ms {:>10.3}ms {:>10.3}ms {:>7.2}x {:>6}/{} {:>8}",
            r.name,
            r.ops,
            r.rows,
            r.dense_cold_ns as f64 / 1e6,
            r.sparse_cold_ns as f64 / 1e6,
            r.sparse_warm_ns as f64 / 1e6,
            r.dense_cold_ns as f64 / r.sparse_warm_ns.max(1) as f64,
            r.warm_taken,
            r.children,
            r.warm_refactors
        );
    }

    let node_speedup = geomean(
        rows.iter()
            .map(|r| r.dense_cold_ns as f64 / r.sparse_warm_ns.max(1) as f64),
    );
    let engine_speedup = geomean(
        rows.iter()
            .map(|r| r.dense_cold_ns as f64 / r.sparse_cold_ns.max(1) as f64),
    );
    let warm_speedup = geomean(
        rows.iter()
            .map(|r| r.sparse_cold_ns as f64 / r.sparse_warm_ns.max(1) as f64),
    );
    let root_speedup = geomean(
        rows.iter()
            .map(|r| r.root_dense_ns as f64 / r.root_sparse_ns.max(1) as f64),
    );
    println!("\ngeomean per-node re-solve speedup (dense cold -> sparse warm): {node_speedup:.2}x");
    println!("geomean engine speedup (dense cold -> sparse cold):            {engine_speedup:.2}x");
    println!("geomean warm-start speedup (sparse cold -> sparse warm):       {warm_speedup:.2}x");
    println!("geomean root-solve speedup (dense -> sparse):                  {root_speedup:.2}x");

    if node_speedup < MIN_RATIO {
        eprintln!(
            "FAIL: per-node re-solve speedup {node_speedup:.2}x is below the pinned \
             non-regression ratio {MIN_RATIO:.2}x"
        );
        std::process::exit(1);
    }
    println!("\ngate: {node_speedup:.2}x >= {MIN_RATIO:.2}x — ok");
}
