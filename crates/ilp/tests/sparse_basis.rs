//! Stress tests for the sparse basis engine on degenerate, rank-deficient,
//! and stall-prone inputs: singular-basis recovery during refactorization,
//! eta-file growth bounds, warm-start fallback behaviour, and warm
//! sequences that roll the eta file back to a parent's factor.
//!
//! Everything here drives the public [`Simplex`] API; the LU kernel's own
//! unit tests (pivot selection, singular rejection, eta algebra) live next
//! to the implementation in `src/factor.rs`.

use optimod_ilp::{
    FaultAction, FaultPlan, FaultSite, LpOutcome, LpStatus, Model, Sense, Simplex, SimplexEngine,
    SimplexOptions, WarmStart,
};
use proptest::prelude::*;

fn sparse_opts() -> SimplexOptions {
    SimplexOptions {
        engine: SimplexEngine::Sparse,
        ..Default::default()
    }
}

/// Solves `model` at its native bounds with the given options.
fn solve(model: &Model, bounds: &[(f64, f64)], opts: &SimplexOptions) -> LpOutcome {
    let lb: Vec<f64> = bounds.iter().map(|b| b.0).collect();
    let ub: Vec<f64> = bounds.iter().map(|b| b.1).collect();
    Simplex::new(model).solve(&lb, &ub, opts)
}

/// A transportation-style LP whose equality system is rank deficient: the
/// supply rows and demand rows each sum to the same total, so one row is
/// implied by the others and a redundant duplicate is stacked on top. A
/// degenerate phase 1 must park the surplus artificials at zero (or pivot
/// them out) without declaring the basis singular.
fn rank_deficient_transport() -> (Model, Vec<(f64, f64)>) {
    let mut m = Model::new();
    let inf = f64::INFINITY;
    let mut x = Vec::new();
    for i in 0..2 {
        for j in 0..3 {
            x.push(m.num_var(0.0, inf, format!("x{i}{j}")));
        }
    }
    let cost = [4.0, 6.0, 9.0, 5.0, 3.0, 8.0];
    m.set_objective(Sense::Minimize, x.iter().zip(cost).map(|(&v, c)| (v, c)));
    m.add_eq([(x[0], 1.0), (x[1], 1.0), (x[2], 1.0)], 10.0, "supply0");
    m.add_eq([(x[3], 1.0), (x[4], 1.0), (x[5], 1.0)], 8.0, "supply1");
    m.add_eq([(x[0], 1.0), (x[3], 1.0)], 6.0, "demand0");
    m.add_eq([(x[1], 1.0), (x[4], 1.0)], 7.0, "demand1");
    // Implied by the four rows above (total supply = total demand).
    m.add_eq([(x[2], 1.0), (x[5], 1.0)], 5.0, "demand2");
    // Exact duplicate of supply0: outright rank deficiency.
    m.add_eq([(x[0], 1.0), (x[1], 1.0), (x[2], 1.0)], 10.0, "supply0-dup");
    (m, vec![(0.0, inf); 6])
}

/// A highly degenerate LP: many redundant facets all passing through the
/// optimal vertex, which historically provokes long runs of zero-progress
/// pivots (the classic stall shape).
fn stall_prone(n: usize) -> (Model, Vec<(f64, f64)>) {
    let mut m = Model::new();
    let inf = f64::INFINITY;
    let x: Vec<_> = (0..n)
        .map(|j| m.num_var(0.0, inf, format!("x{j}")))
        .collect();
    m.set_objective(Sense::Maximize, x.iter().map(|&v| (v, 1.0)));
    // One binding budget row ...
    m.add_le(x.iter().map(|&v| (v, 1.0)), 1.0, "budget");
    // ... plus n exact duplicates, every one tight at the same optimal
    // face, so each pivot along that face is degenerate in n + 1 rows.
    for k in 0..n {
        m.add_le(x.iter().map(|&v| (v, 1.0)), 1.0, format!("copy{k}"));
    }
    (m, vec![(0.0, inf); n])
}

#[test]
fn rank_deficient_equalities_solve_on_both_engines() {
    let (m, bounds) = rank_deficient_transport();
    let dense = solve(
        &m,
        &bounds,
        &SimplexOptions {
            engine: SimplexEngine::Dense,
            ..Default::default()
        },
    );
    let sparse = solve(&m, &bounds, &sparse_opts());
    assert_eq!(dense.status, LpStatus::Optimal);
    assert_eq!(sparse.status, LpStatus::Optimal);
    assert!(
        (dense.objective - sparse.objective).abs() < 1e-6,
        "dense {} vs sparse {}",
        dense.objective,
        sparse.objective
    );
}

#[test]
fn refactor_every_pivot_survives_rank_deficiency() {
    // Refactorizing from scratch after every pivot exercises the LU path on
    // every intermediate basis of a rank-deficient system; any singular
    // intermediate basis must be recovered (kept factor + forced cadence),
    // not propagated into a wrong answer.
    let (m, bounds) = rank_deficient_transport();
    let stock = solve(&m, &bounds, &sparse_opts());
    let paranoid = solve(
        &m,
        &bounds,
        &SimplexOptions {
            refactor_every: 1,
            ..sparse_opts()
        },
    );
    assert_eq!(paranoid.status, LpStatus::Optimal);
    assert!((paranoid.objective - stock.objective).abs() < 1e-6);
    assert!(
        paranoid.refactors > stock.refactors,
        "per-pivot cadence should refactor more ({} vs {})",
        paranoid.refactors,
        stock.refactors
    );
}

#[test]
fn eta_file_growth_is_bounded_by_nnz_limit() {
    // A tiny eta nonzero budget must cap the product file: the engine
    // trades etas for refactorizations instead of letting the file grow
    // with the pivot count, and the answer cannot move.
    let (m, bounds) = stall_prone(24);
    let stock = solve(&m, &bounds, &sparse_opts());
    let capped = solve(
        &m,
        &bounds,
        &SimplexOptions {
            eta_nnz_limit: 8,
            ..sparse_opts()
        },
    );
    assert_eq!(stock.status, LpStatus::Optimal);
    assert_eq!(capped.status, LpStatus::Optimal);
    assert!((stock.objective - capped.objective).abs() < 1e-6);
    assert!(
        capped.refactors >= stock.refactors,
        "a tight eta budget cannot refactor less ({} vs {})",
        capped.refactors,
        stock.refactors
    );
}

#[test]
fn stall_prone_kernel_terminates_under_tight_watchdog() {
    // Aggressive watchdog thresholds (forced refactor after 4 degenerate
    // pivots) on a degeneracy-heavy LP: the solve must still terminate at
    // the optimum rather than stalling or cycling.
    let (m, bounds) = stall_prone(32);
    let out = solve(
        &m,
        &bounds,
        &SimplexOptions {
            degen_limit: 4,
            stall_refactor: 16,
            ..sparse_opts()
        },
    );
    assert_eq!(out.status, LpStatus::Optimal);
    assert!((out.objective - 1.0).abs() < 1e-6, "{}", out.objective);
}

#[test]
fn warm_pivot_cap_zero_abandons_to_cold() {
    // With a zero dual-pivot budget, any child that actually needs dual
    // pivots must abandon the warm start and still produce the right
    // answer from a cold basis, reporting the abandonment honestly.
    let mut m = Model::new();
    let inf = f64::INFINITY;
    let x = m.num_var(0.0, inf, "x");
    let y = m.num_var(0.0, inf, "y");
    m.set_objective(Sense::Maximize, [(x, 3.0), (y, 5.0)]);
    m.add_le([(x, 1.0), (y, 2.0)], 14.0, "c1");
    m.add_le([(x, 3.0), (y, -1.0)], 0.0, "c2");
    m.add_le([(x, 1.0), (y, -1.0)], 2.0, "c3");

    let opts = SimplexOptions {
        warm_pivot_cap: 0,
        ..sparse_opts()
    };
    let mut sx = Simplex::new(&m);
    let parent = sx.solve(&[0.0, 0.0], &[inf, inf], &opts);
    assert_eq!(parent.status, LpStatus::Optimal);
    let snap = sx.basis_snapshot().expect("optimal parent basis");

    // Tighten x like a branch would; the parent vertex goes infeasible.
    let child = sx.solve_warm(&[0.0, 0.0], &[1.0, inf], &opts, Some(&snap));
    assert_eq!(child.status, LpStatus::Optimal);
    assert_eq!(
        child.warm,
        WarmStart::Abandoned,
        "zero pivot budget must abandon, not fail"
    );

    let cold = solve(&m, &[(0.0, 1.0), (0.0, inf)], &sparse_opts());
    assert!((child.objective - cold.objective).abs() < 1e-6);
}

#[test]
fn warm_start_with_fixed_variable_child() {
    // Branch-and-bound fixes variables outright (lb == ub); the warm dual
    // restart must handle the snapshot basis under a collapsed box.
    let mut m = Model::new();
    let x = m.num_var(0.0, 4.0, "x");
    let y = m.num_var(0.0, 4.0, "y");
    let z = m.num_var(0.0, 4.0, "z");
    m.set_objective(Sense::Maximize, [(x, 2.0), (y, 3.0), (z, 1.0)]);
    m.add_le([(x, 1.0), (y, 1.0), (z, 1.0)], 6.0, "sum");
    m.add_le([(x, 2.0), (y, 1.0)], 7.0, "mix");

    let opts = sparse_opts();
    let mut sx = Simplex::new(&m);
    let parent = sx.solve(&[0.0; 3], &[4.0; 3], &opts);
    assert_eq!(parent.status, LpStatus::Optimal);
    let snap = sx.basis_snapshot().expect("optimal parent basis");

    let warm = sx.solve_warm(&[0.0, 2.0, 0.0], &[4.0, 2.0, 4.0], &opts, Some(&snap));
    let cold = solve(&m, &[(0.0, 4.0), (2.0, 2.0), (0.0, 4.0)], &opts);
    assert_eq!(warm.status, cold.status);
    assert!(
        (warm.objective - cold.objective).abs() < 1e-6,
        "warm {} vs cold {}",
        warm.objective,
        cold.objective
    );
    assert_ne!(warm.warm, WarmStart::Cold, "snapshot was offered and valid");
}

/// A random bounded LP for the rollback property: boxed variables, a few
/// `<=`/`>=` rows, and three child bound changes `(var, new bound, is_lb)`.
#[derive(Debug, Clone)]
struct RollbackCase {
    ub: Vec<i64>,
    objective: Vec<i64>,
    rows: Vec<(Vec<i64>, bool, i64)>,
    children: Vec<(usize, i64, bool)>,
}

fn rollback_case() -> impl Strategy<Value = RollbackCase> {
    (2usize..=6)
        .prop_flat_map(|n| {
            let rows = proptest::collection::vec(
                (
                    proptest::collection::vec(-3i64..=3, n),
                    proptest::bool::ANY,
                    -4i64..=12,
                ),
                1..=5,
            );
            let children = proptest::collection::vec((0..n, 0i64..=4, proptest::bool::ANY), 3);
            (
                proptest::collection::vec(1i64..=4, n),
                proptest::collection::vec(-4i64..=4, n),
                rows,
                children,
            )
        })
        .prop_map(|(ub, objective, rows, children)| RollbackCase {
            ub,
            objective,
            rows,
            children,
        })
}

impl RollbackCase {
    fn model(&self) -> Model {
        let mut m = Model::new();
        let x: Vec<_> = self
            .ub
            .iter()
            .enumerate()
            .map(|(j, &u)| m.num_var(0.0, u as f64, format!("x{j}")))
            .collect();
        m.set_objective(
            Sense::Minimize,
            x.iter().zip(&self.objective).map(|(&v, &c)| (v, c as f64)),
        );
        for (k, (coeffs, le, rhs)) in self.rows.iter().enumerate() {
            let terms = x.iter().zip(coeffs).map(|(&v, &c)| (v, c as f64));
            if *le {
                m.add_le(terms, *rhs as f64, format!("r{k}"));
            } else {
                m.add_ge(terms, *rhs as f64, format!("r{k}"));
            }
        }
        m
    }

    /// Bounds after applying `changes` on top of the root box; a change
    /// only ever tightens, as a branch does.
    fn bounds(&self, changes: &[(usize, i64, bool)]) -> (Vec<f64>, Vec<f64>) {
        let mut lb = vec![0.0_f64; self.ub.len()];
        let mut ub: Vec<f64> = self.ub.iter().map(|&u| u as f64).collect();
        for &(j, v, is_lb) in changes {
            if is_lb {
                lb[j] = lb[j].max(v as f64);
            } else {
                ub[j] = ub[j].min(v as f64);
            }
        }
        (lb, ub)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Parent → child A → A's child → child B, each warm-started the way
    /// branch and bound does it: B starts from the parent's snapshot after
    /// A's subtree pushed etas past its mark, so under the sparse engine B
    /// rolls the eta file back. Every warm solve must agree with a cold
    /// solve of the same box on status, and on the objective within 1e-6.
    #[test]
    fn rollback_sequence_matches_cold_solves(case in rollback_case()) {
        let model = case.model();
        let [a, a1, b] = [case.children[0], case.children[1], case.children[2]];
        for engine in [SimplexEngine::Dense, SimplexEngine::Sparse] {
            let opts = SimplexOptions { engine, ..Default::default() };
            let check = |label: &str, out: &LpOutcome, changes: &[(usize, i64, bool)]| {
                let (lb, ub) = case.bounds(changes);
                let cold = Simplex::new(&model).solve(&lb, &ub, &opts);
                prop_assert_eq!(out.status, cold.status, "{:?} {}", engine, label);
                if cold.status == LpStatus::Optimal {
                    prop_assert!(
                        (out.objective - cold.objective).abs() < 1e-6,
                        "{:?} {}: warm {} vs cold {}",
                        engine,
                        label,
                        out.objective,
                        cold.objective
                    );
                }
                Ok(())
            };
            let mut sx = Simplex::new(&model);
            let (lb, ub) = case.bounds(&[]);
            let parent = sx.solve(&lb, &ub, &opts);
            if parent.status != LpStatus::Optimal {
                continue;
            }
            let parent_snap = sx.basis_snapshot().expect("optimal parent basis");

            let (lb, ub) = case.bounds(&[a]);
            let out = sx.solve_warm(&lb, &ub, &opts, Some(&parent_snap));
            check("child A", &out, &[a])?;
            if out.status == LpStatus::Optimal {
                let snap = sx.basis_snapshot().expect("optimal child basis");
                let (lb, ub) = case.bounds(&[a, a1]);
                let out = sx.solve_warm(&lb, &ub, &opts, Some(&snap));
                check("grandchild", &out, &[a, a1])?;
            }

            let (lb, ub) = case.bounds(&[b]);
            let out = sx.solve_warm(&lb, &ub, &opts, Some(&parent_snap));
            check("child B", &out, &[b])?;
        }
    }
}

#[test]
fn interrupted_warm_dual_restart_is_never_infeasible() {
    // A feasible child of a covering LP whose parent vertex violates the
    // child's box, so the warm restart needs dual pivots. Stopping the solve
    // at any pivot must report the interruption, never `Infeasible`: that
    // would let branch and bound prune a feasible subtree.
    let mut m = Model::new();
    let x: Vec<_> = (0..5)
        .map(|j| m.num_var(0.0, 5.0, format!("x{j}")))
        .collect();
    m.set_objective(
        Sense::Minimize,
        x.iter()
            .zip([3.0, 1.0, 4.0, 1.0, 5.0])
            .map(|(&v, c)| (v, c)),
    );
    m.add_ge([(x[0], 1.0), (x[1], 1.0)], 3.0, "c0");
    m.add_ge([(x[1], 1.0), (x[2], 2.0)], 4.0, "c1");
    m.add_ge([(x[2], 1.0), (x[3], 1.0), (x[4], 1.0)], 5.0, "c2");
    m.add_ge([(x[0], 2.0), (x[3], 1.0)], 6.0, "c3");
    m.add_le([(x[1], 1.0), (x[3], 1.0)], 7.0, "c4");
    let lb = [0.0; 5];
    let child_ub = [5.0, 1.0, 5.0, 1.0, 5.0];
    for engine in [SimplexEngine::Dense, SimplexEngine::Sparse] {
        let clean_opts = SimplexOptions {
            engine,
            ..Default::default()
        };
        let solve_child = |opts: &SimplexOptions| {
            let mut sx = Simplex::new(&m);
            let parent = sx.solve(&lb, &[5.0; 5], &clean_opts);
            assert_eq!(parent.status, LpStatus::Optimal);
            let snap = sx.basis_snapshot().expect("optimal parent basis");
            sx.solve_warm(&lb, &child_ub, opts, Some(&snap))
        };
        let clean = solve_child(&clean_opts);
        assert_eq!(
            (clean.status, clean.warm),
            (LpStatus::Optimal, WarmStart::Taken)
        );
        assert!(clean.iterations >= 2, "the child must need dual pivots");
        for action in [FaultAction::Stall, FaultAction::SpuriousTimeout] {
            for nth in 1..=clean.iterations + 1 {
                let fault = FaultPlan::single(FaultSite::SimplexPivot, action, nth);
                let out = solve_child(&SimplexOptions {
                    fault: fault.clone(),
                    ..clean_opts.clone()
                });
                let expect = match (fault.fired_count(), action) {
                    (0, _) => LpStatus::Optimal,
                    (_, FaultAction::Stall) => LpStatus::Stalled,
                    _ => LpStatus::IterLimit,
                };
                assert_eq!(out.status, expect, "{engine:?} {action:?} at pivot {nth}");
                if expect == LpStatus::Optimal {
                    assert!((out.objective - clean.objective).abs() < 1e-9);
                }
            }
        }
    }
}
