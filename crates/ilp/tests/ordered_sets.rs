//! Ordered assignment sets (`Model::add_ordered_set`): branching on a set
//! as a whole must not change what the search proves, and a set lives and
//! dies with its `Σ x = 1` row.

use optimod_ilp::{Model, Sense, SolveLimits, SolveStatus};
use proptest::prelude::*;

/// Binary sets of which exactly one member is 1, a few general integers,
/// random packing rows over all of them, and a random objective.
#[derive(Debug, Clone)]
struct SetIp {
    set_sizes: Vec<usize>,
    ints: usize,
    /// One coefficient per variable: set members first, then the integers.
    objective: Vec<i64>,
    maximize: bool,
    /// `Σ coeff · x <= rhs` with non-negative coefficients.
    rows: Vec<(Vec<i64>, i64)>,
}

fn set_ip() -> impl Strategy<Value = SetIp> {
    (proptest::collection::vec(2usize..=5, 1..=3), 0usize..=2)
        .prop_flat_map(|(set_sizes, ints)| {
            let n = set_sizes.iter().sum::<usize>() + ints;
            (
                Just(set_sizes),
                Just(ints),
                proptest::collection::vec(-5i64..=5, n),
                proptest::bool::ANY,
                proptest::collection::vec(
                    (proptest::collection::vec(0i64..=3, n), 0i64..=6),
                    0..=4,
                ),
            )
        })
        .prop_map(|(set_sizes, ints, objective, maximize, rows)| SetIp {
            set_sizes,
            ints,
            objective,
            maximize,
            rows,
        })
}

/// Builds the model, declaring each assignment row as an ordered set when
/// `declare` holds and as a plain equality row otherwise.
fn build(ip: &SetIp, declare: bool) -> Model {
    let mut m = Model::new();
    let mut vars = Vec::new();
    for (k, &size) in ip.set_sizes.iter().enumerate() {
        let members: Vec<_> = (0..size)
            .map(|z| m.bool_var(format!("a[{k}][{z}]")))
            .collect();
        if declare {
            m.add_ordered_set(&members, format!("assign[{k}]"));
        } else {
            m.add_eq(
                members.iter().map(|&v| (v, 1.0)),
                1.0,
                format!("assign[{k}]"),
            );
        }
        vars.extend(members);
    }
    for i in 0..ip.ints {
        vars.push(m.int_var(0.0, 3.0, format!("k[{i}]")));
    }
    let sense = if ip.maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    m.set_objective(
        sense,
        vars.iter().zip(&ip.objective).map(|(&v, &c)| (v, c as f64)),
    );
    for (r, (coeffs, rhs)) in ip.rows.iter().enumerate() {
        m.add_le(
            vars.iter().zip(coeffs).map(|(&v, &c)| (v, c as f64)),
            *rhs as f64,
            format!("pack[{r}]"),
        );
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Splitting a set "member < s" against "member >= s" proves the same
    /// status and optimal objective as splitting one binary at a time, at
    /// one and at two threads.
    #[test]
    fn set_branching_preserves_status_and_optimum(ip in set_ip()) {
        let with_sets = build(&ip, true);
        let without = build(&ip, false);
        prop_assert_eq!(with_sets.ordered_sets().count(), ip.set_sizes.len());
        prop_assert_eq!(without.ordered_sets().count(), 0);
        for threads in [1, 2] {
            let limits = SolveLimits { threads, ..Default::default() };
            let a = with_sets.solve_with(limits.clone());
            let b = without.solve_with(limits);
            prop_assert_eq!(a.status, b.status, "threads {}", threads);
            if a.status == SolveStatus::Optimal {
                prop_assert!((a.objective - b.objective).abs() < 1e-6,
                    "threads {}: with sets {} without {}", threads, a.objective, b.objective);
                prop_assert!(with_sets.check_feasible(&a.values, 1e-6).is_none(),
                    "infeasible point {:?}", a.values);
            }
        }
    }
}

#[test]
fn add_ordered_set_emits_the_assignment_row() {
    let mut m = Model::new();
    let xs: Vec<_> = (0..3).map(|z| m.bool_var(format!("x{z}"))).collect();
    let id = m.add_ordered_set(&xs, "assign");
    let row = m.row(id.index());
    assert_eq!(row.name, "assign");
    assert_eq!(row.rhs, 1.0);
    assert_eq!(row.coeffs, &[(xs[0], 1.0), (xs[1], 1.0), (xs[2], 1.0)]);
    let sets: Vec<_> = m.ordered_sets().collect();
    assert_eq!(sets, vec![(id, xs.as_slice())]);
}

#[test]
#[should_panic(expected = "is not binary")]
fn ordered_set_members_must_be_binary() {
    let mut m = Model::new();
    let x = m.bool_var("x");
    let k = m.int_var(0.0, 3.0, "k");
    m.add_ordered_set(&[x, k], "assign");
}

/// A set whose row `retain_rows` drops is dropped with it; a surviving
/// set follows its row to the row's new index.
#[test]
fn retain_rows_drops_a_set_with_its_row() {
    let mut m = Model::new();
    let a: Vec<_> = (0..3).map(|z| m.bool_var(format!("a{z}"))).collect();
    let b: Vec<_> = (0..2).map(|z| m.bool_var(format!("b{z}"))).collect();
    m.add_le([(a[0], 1.0), (b[0], 1.0)], 1.0, "pack");
    m.add_ordered_set(&a, "assign-a");
    m.add_ordered_set(&b, "assign-b");
    assert_eq!(m.ordered_sets().count(), 2);

    // Drop the packing row and set a's row: set b moves from row 2 to 0.
    m.retain_rows(|i| i == 2);
    let sets: Vec<_> = m.ordered_sets().collect();
    assert_eq!(sets.len(), 1);
    let (row, members) = sets[0];
    assert_eq!(members, b.as_slice());
    assert_eq!(row.index(), 0);
    assert_eq!(m.row(row.index()).name, "assign-b");

    // The dropped set no longer drives branching: with only b's row left,
    // the a binaries are free and the solve still proves its optimum.
    m.set_objective(Sense::Maximize, [(a[0], 1.0), (a[1], 1.0), (b[1], 2.0)]);
    let out = m.solve_with(SolveLimits {
        threads: 1,
        ..Default::default()
    });
    assert_eq!(out.status, SolveStatus::Optimal);
    assert_eq!(out.objective.round() as i64, 4);
}
