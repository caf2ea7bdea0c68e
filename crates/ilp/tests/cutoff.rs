//! Tests for the external-cutoff pruning feature of the solver.

use optimod_ilp::{Model, Sense, SolveLimits, SolveStatus};

fn knapsack() -> (Model, f64) {
    // max Σ v_i x_i st Σ w_i x_i <= 20, 12 binaries. Optimal value is
    // computed by the unconstrained solve in each test.
    let mut m = Model::new();
    let items: Vec<(f64, f64)> = vec![
        (4.0, 5.0),
        (7.0, 9.0),
        (3.0, 4.0),
        (5.0, 6.0),
        (8.0, 10.0),
        (2.0, 2.0),
        (6.0, 7.0),
        (1.0, 1.5),
        (9.0, 11.0),
        (4.0, 4.5),
        (3.0, 3.2),
        (5.0, 6.1),
    ];
    let xs: Vec<_> = (0..items.len())
        .map(|i| m.bool_var(format!("x{i}")))
        .collect();
    m.add_le(
        xs.iter().zip(&items).map(|(&x, &(w, _))| (x, w)),
        20.0,
        "capacity",
    );
    m.set_objective(
        Sense::Maximize,
        xs.iter().zip(&items).map(|(&x, &(_, v))| (x, v)),
    );
    let opt = m.solve();
    assert_eq!(opt.status, SolveStatus::Optimal);
    (m, opt.objective)
}

#[test]
fn cutoff_below_optimum_finds_better_solution() {
    let (m, opt) = knapsack();
    let limits = SolveLimits {
        cutoff: Some(opt - 3.0),
        ..Default::default()
    };
    let out = m.solve_with(limits);
    assert_eq!(out.status, SolveStatus::Optimal);
    assert!((out.objective - opt).abs() < 1e-6);
}

#[test]
fn cutoff_at_optimum_proves_nothing_better() {
    let (m, opt) = knapsack();
    let limits = SolveLimits {
        cutoff: Some(opt),
        ..Default::default()
    };
    let out = m.solve_with(limits);
    // Nothing strictly better exists; the solver reports "infeasible under
    // the cutoff", which certifies the cutoff value as optimal.
    assert_eq!(out.status, SolveStatus::Infeasible);
}

#[test]
fn cutoff_reduces_search_effort() {
    // Serial on both sides: parallel node counts vary run to run, so only
    // the deterministic search can be compared node for node.
    let (m, opt) = knapsack();
    let base = m.solve_with(SolveLimits {
        threads: 1,
        ..Default::default()
    });
    let limits = SolveLimits {
        cutoff: Some(opt - 0.5),
        threads: 1,
        ..Default::default()
    };
    let tight = m.solve_with(limits);
    assert_eq!(tight.status, SolveStatus::Optimal);
    assert!(
        tight.stats.bb_nodes <= base.stats.bb_nodes,
        "cutoff enlarged the search: {} > {}",
        tight.stats.bb_nodes,
        base.stats.bb_nodes
    );
}

#[test]
fn cutoff_in_minimize_sense() {
    // min x + y st x + y >= 7, integers in [0, 10]: optimum 7.
    let mut m = Model::new();
    let x = m.int_var(0.0, 10.0, "x");
    let y = m.int_var(0.0, 10.0, "y");
    m.set_objective(Sense::Minimize, [(x, 1.0), (y, 1.0)]);
    m.add_ge([(x, 1.0), (y, 1.0)], 7.0, "floor");
    let out = m.solve_with(SolveLimits {
        cutoff: Some(8.0),
        ..Default::default()
    });
    assert_eq!(out.status, SolveStatus::Optimal);
    assert_eq!(out.objective.round() as i64, 7);
    let none = m.solve_with(SolveLimits {
        cutoff: Some(7.0),
        ..Default::default()
    });
    assert_eq!(none.status, SolveStatus::Infeasible);
}
