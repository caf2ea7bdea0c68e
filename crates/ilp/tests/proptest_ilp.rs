//! Property-based validation of the branch-and-bound solver against
//! brute-force enumeration on randomly generated small integer programs:
//! the optimum, the dual bound, first-solution mode, warm-started and cold
//! re-solves, and the continuous relaxation.

use optimod_ilp::{Model, RowSense, Sense, SimplexOptions, SolveLimits, SolveStatus, Solver};
use proptest::prelude::*;

/// A randomly generated integer program with small bounded variables.
#[derive(Debug, Clone)]
struct RandomIp {
    num_vars: usize,
    bounds: Vec<(i64, i64)>,
    objective: Vec<i64>,
    maximize: bool,
    rows: Vec<(Vec<i64>, RowSense, i64)>,
}

fn row_sense() -> impl Strategy<Value = RowSense> {
    prop_oneof![Just(RowSense::Le), Just(RowSense::Ge), Just(RowSense::Eq),]
}

fn random_ip() -> impl Strategy<Value = RandomIp> {
    (2usize..=6)
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
                0..=5,
            );
            (Just(num_vars), bounds, objective, proptest::bool::ANY, rows)
        })
        .prop_map(|(num_vars, bounds, objective, maximize, rows)| RandomIp {
            num_vars,
            bounds,
            objective,
            maximize,
            rows,
        })
}

/// Enumerates every integral point of the box and returns the best feasible
/// objective (in the model's sense), if any point is feasible.
fn brute_force(ip: &RandomIp) -> Option<i64> {
    let mut assignment = vec![0i64; ip.num_vars];
    let mut best: Option<i64> = None;
    fn rec(ip: &RandomIp, idx: usize, assignment: &mut Vec<i64>, best: &mut Option<i64>) {
        if idx == ip.num_vars {
            for (coeffs, sense, rhs) in &ip.rows {
                let lhs: i64 = coeffs
                    .iter()
                    .zip(assignment.iter())
                    .map(|(c, x)| c * x)
                    .sum();
                let ok = match sense {
                    RowSense::Le => lhs <= *rhs,
                    RowSense::Ge => lhs >= *rhs,
                    RowSense::Eq => lhs == *rhs,
                };
                if !ok {
                    return;
                }
            }
            let obj: i64 = ip
                .objective
                .iter()
                .zip(assignment.iter())
                .map(|(c, x)| c * x)
                .sum();
            *best = Some(match *best {
                None => obj,
                Some(b) if ip.maximize => b.max(obj),
                Some(b) => b.min(obj),
            });
            return;
        }
        let (lo, hi) = ip.bounds[idx];
        for v in lo..=hi {
            assignment[idx] = v;
            rec(ip, idx + 1, assignment, best);
        }
    }
    rec(ip, 0, &mut assignment, &mut best);
    best
}

fn build_model(ip: &RandomIp) -> Model {
    build(ip, true)
}

/// The program with integer variables, or with continuous ones (its
/// relaxation).
fn build(ip: &RandomIp, integral: bool) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = ip
        .bounds
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| {
            if integral {
                m.int_var(lo as f64, hi as f64, format!("x{i}"))
            } else {
                m.num_var(lo as f64, hi as f64, format!("x{i}"))
            }
        })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Branch-and-bound matches brute force exactly on small IPs.
    #[test]
    fn bb_matches_brute_force(ip in random_ip()) {
        let model = build_model(&ip);
        let expected = brute_force(&ip);
        let out = model.solve();
        match expected {
            None => prop_assert_eq!(out.status, SolveStatus::Infeasible),
            Some(best) => {
                prop_assert_eq!(out.status, SolveStatus::Optimal);
                prop_assert!((out.objective - best as f64).abs() < 1e-6,
                    "solver found {} but brute force found {}", out.objective, best);
                prop_assert!(model.check_feasible(&out.values, 1e-6).is_none(),
                    "solver returned an infeasible point: {:?}", out.values);
            }
        }
    }

    /// The LP relaxation bound never cuts off the integer optimum.
    #[test]
    fn dual_bound_is_valid(ip in random_ip()) {
        let model = build_model(&ip);
        let out = model.solve();
        if out.status == SolveStatus::Optimal {
            if ip.maximize {
                prop_assert!(out.best_bound >= out.objective - 1e-6);
            } else {
                prop_assert!(out.best_bound <= out.objective + 1e-6);
            }
        }
    }

    /// First-solution mode always returns a feasible point when one exists.
    #[test]
    fn first_solution_is_feasible(ip in random_ip()) {
        let model = build_model(&ip);
        let limits = optimod_ilp::SolveLimits {
            first_solution_only: true,
            ..Default::default()
        };
        let out = model.solve_with(limits);
        match brute_force(&ip) {
            None => prop_assert_eq!(out.status, SolveStatus::Infeasible),
            Some(_) => {
                prop_assert!(out.status.has_solution());
                prop_assert!(model.check_feasible(&out.values, 1e-6).is_none());
            }
        }
    }

    /// Warm-started re-solves must not change integer answers: branch and
    /// bound with warm starts and with `warm_start: false` both reach the
    /// brute-force optimum (or both prove infeasibility).
    #[test]
    fn warm_and_cold_resolves_match_brute_force(ip in random_ip()) {
        let model = build_model(&ip);
        let expected = brute_force(&ip);
        let cold_opts = SimplexOptions { warm_start: false, ..SimplexOptions::default() };
        for warm_start in [true, false] {
            let solver = Solver::new(SolveLimits::default());
            let out = if warm_start {
                solver.solve(&model)
            } else {
                solver.with_simplex_options(cold_opts.clone()).solve(&model)
            };
            match expected {
                None => prop_assert_eq!(out.status, SolveStatus::Infeasible, "warm_start {}", warm_start),
                Some(best) => {
                    prop_assert_eq!(out.status, SolveStatus::Optimal, "warm_start {}", warm_start);
                    prop_assert!((out.objective - best as f64).abs() < 1e-6,
                        "warm_start {}: solver found {} but brute force found {}",
                        warm_start, out.objective, best);
                }
            }
            if !warm_start {
                prop_assert_eq!(out.stats.warm_starts, 0);
            }
        }
    }

    /// The continuous relaxation: when the integer program is feasible the
    /// LP is optimal at a point `check_feasible` accepts, and its optimum
    /// is never worse than the brute-force integer optimum.
    #[test]
    fn lp_relaxation_dominates_ip(ip in random_ip()) {
        let Some(ip_best) = brute_force(&ip) else {
            return Ok(());
        };
        let relaxed = build(&ip, false);
        let out = relaxed.solve();
        prop_assert_eq!(out.status, SolveStatus::Optimal, "LP must be feasible when IP is");
        prop_assert!(relaxed.check_feasible(&out.values, 1e-6).is_none(),
            "LP returned an infeasible point: {:?}", out.values);
        if ip.maximize {
            prop_assert!(out.objective >= ip_best as f64 - 1e-6,
                "LP {} < IP {}", out.objective, ip_best);
        } else {
            prop_assert!(out.objective <= ip_best as f64 + 1e-6,
                "LP {} > IP {}", out.objective, ip_best);
        }
    }
}
