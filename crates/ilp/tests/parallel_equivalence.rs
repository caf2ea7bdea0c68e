//! Property-based equivalence between one branch-and-bound worker and
//! several: at any thread count the search must report the same status and
//! the same optimal objective as the deterministic one-worker run, and a
//! first-solution-only run must always return a feasible point.

use optimod_ilp::{Model, RowSense, Sense, SolveLimits, SolveStatus};
use proptest::prelude::*;

/// A randomly generated integer program with small bounded variables.
#[derive(Debug, Clone)]
struct RandomIp {
    bounds: Vec<(i64, i64)>,
    objective: Vec<i64>,
    maximize: bool,
    rows: Vec<(Vec<i64>, RowSense, i64)>,
}

fn row_sense() -> impl Strategy<Value = RowSense> {
    prop_oneof![Just(RowSense::Le), Just(RowSense::Ge), Just(RowSense::Eq),]
}

fn random_ip() -> impl Strategy<Value = RandomIp> {
    (3usize..=6)
        .prop_flat_map(|num_vars| {
            let bounds = proptest::collection::vec((0i64..=2, 2i64..=5), num_vars).prop_map(
                |v| -> Vec<(i64, i64)> { v.into_iter().map(|(a, b)| (a.min(b), b)).collect() },
            );
            let objective = proptest::collection::vec(-4i64..=4, num_vars);
            let rows = proptest::collection::vec(
                (
                    proptest::collection::vec(-3i64..=3, num_vars),
                    row_sense(),
                    -6i64..=12,
                ),
                1..=5,
            );
            (bounds, objective, proptest::bool::ANY, rows)
        })
        .prop_map(|(bounds, objective, maximize, rows)| RandomIp {
            bounds,
            objective,
            maximize,
            rows,
        })
}

fn build_model(ip: &RandomIp) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = ip
        .bounds
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| m.int_var(lo as f64, hi as f64, format!("x{i}")))
        .collect();
    m.set_objective(
        if ip.maximize {
            Sense::Maximize
        } else {
            Sense::Minimize
        },
        vars.iter().zip(&ip.objective).map(|(&v, &c)| (v, c as f64)),
    );
    for (i, (coeffs, sense, rhs)) in ip.rows.iter().enumerate() {
        m.add_row(
            vars.iter().zip(coeffs).map(|(&v, &c)| (v, c as f64)),
            *sense,
            *rhs as f64,
            format!("r{i}"),
        );
    }
    m
}

fn limits_with(threads: u32, first_solution_only: bool) -> SolveLimits {
    SolveLimits {
        threads,
        first_solution_only,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Several workers agree with one worker on status and
    /// optimal objective value at 2, 4, and 8 worker threads.
    #[test]
    fn parallel_matches_serial(ip in random_ip()) {
        let model = build_model(&ip);
        let serial = model.solve_with(limits_with(1, false));
        for threads in [2u32, 4, 8] {
            let par = model.solve_with(limits_with(threads, false));
            prop_assert_eq!(par.status, serial.status, "threads={}", threads);
            if serial.status == SolveStatus::Optimal {
                prop_assert!(
                    (par.objective - serial.objective).abs() < 1e-6,
                    "threads={}: parallel {} vs serial {}",
                    threads, par.objective, serial.objective
                );
                prop_assert!(
                    model.check_feasible(&par.values, 1e-6).is_none(),
                    "threads={}: parallel returned an infeasible point", threads
                );
            }
        }
    }

    /// First-solution-only parallel runs terminate with a feasible point
    /// exactly when the serial solver finds the model feasible.
    #[test]
    fn parallel_first_solution_is_feasible(ip in random_ip()) {
        let model = build_model(&ip);
        let serial = model.solve_with(limits_with(1, false));
        for threads in [2u32, 4] {
            let par = model.solve_with(limits_with(threads, true));
            match serial.status {
                SolveStatus::Infeasible => {
                    prop_assert_eq!(par.status, SolveStatus::Infeasible);
                }
                _ => {
                    prop_assert!(par.status.has_solution(), "threads={}", threads);
                    prop_assert!(
                        model.check_feasible(&par.values, 1e-6).is_none(),
                        "threads={}: first solution is infeasible", threads
                    );
                }
            }
        }
    }
}
