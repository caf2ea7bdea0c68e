//! Problem description: variables, linear expressions, constraints, and the
//! [`Model`] builder.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use crate::branch_bound::{SolveLimits, Solver};
use crate::solution::SolveOutcome;

/// Identifier of a decision variable inside one [`Model`].
///
/// `VarId`s are dense indices handed out by [`Model::num_var`] and friends; they
/// are only meaningful for the model that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Returns the dense index of this variable (its creation order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Identifier of a constraint row inside one [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstraintId(pub(crate) u32);

impl ConstraintId {
    /// Returns the dense index of this constraint (its creation order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sense {
    /// Minimize the objective expression.
    #[default]
    Minimize,
    /// Maximize the objective expression.
    Maximize,
}

/// Relation of a constraint row to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowSense {
    /// `expr <= rhs`
    Le,
    /// `expr = rhs`
    Eq,
    /// `expr >= rhs`
    Ge,
}

/// A linear expression `sum(coeff_i * var_i) + constant`.
///
/// Expressions are built either from `(VarId, f64)` pairs or with the
/// overloaded `+`, `-`, and `*` operators:
///
/// ```
/// use optimod_ilp::{LinExpr, Model};
/// let mut m = Model::new();
/// let x = m.num_var(0.0, 10.0, "x");
/// let y = m.num_var(0.0, 10.0, "y");
/// let e = LinExpr::from(x) * 3.0 + y - 1.0;
/// assert_eq!(e.constant(), -1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// Creates the zero expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a constant expression.
    pub fn constant_expr(c: f64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// Creates the expression `coeff * var`.
    pub fn term(var: VarId, coeff: f64) -> Self {
        LinExpr {
            terms: vec![(var, coeff)],
            constant: 0.0,
        }
    }

    /// Adds `coeff * var` to the expression.
    pub fn add_term(&mut self, var: VarId, coeff: f64) -> &mut Self {
        self.terms.push((var, coeff));
        self
    }

    /// Adds a constant to the expression.
    pub fn add_constant(&mut self, c: f64) -> &mut Self {
        self.constant += c;
        self
    }

    /// The additive constant of the expression.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Iterates over the raw (possibly duplicated) terms.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().copied()
    }

    /// Number of raw terms (duplicates not merged).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the expression has no variable terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Merges duplicate variables and drops (numerically) zero coefficients.
    ///
    /// Returns dense `(var, coeff)` pairs sorted by variable index.
    pub fn compacted(&self) -> Vec<(VarId, f64)> {
        let mut v = self.terms.clone();
        v.sort_by_key(|&(var, _)| var);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(v.len());
        for (var, c) in v {
            match out.last_mut() {
                Some((last, acc)) if *last == var => *acc += c,
                _ => out.push((var, c)),
            }
        }
        out.retain(|&(_, c)| c.abs() > 1e-12);
        out
    }

    /// Evaluates the expression against a dense assignment indexed by
    /// variable index.
    ///
    /// # Panics
    ///
    /// Panics if a referenced variable index is out of range of `values`.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(v, c)| c * values[v.index()])
                .sum::<f64>()
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl<I: IntoIterator<Item = (VarId, f64)>> From<I> for LinExpr {
    fn from(terms: I) -> Self {
        LinExpr {
            terms: terms.into_iter().collect(),
            constant: 0.0,
        }
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Add<VarId> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, v: VarId) -> LinExpr {
        self.terms.push((v, 1.0));
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, c: f64) -> LinExpr {
        self.constant += c;
        self
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self -= rhs;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
    }
}

impl Sub<VarId> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, v: VarId) -> LinExpr {
        self.terms.push((v, -1.0));
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, c: f64) -> LinExpr {
        self.constant -= c;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, s: f64) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c *= s;
        }
        self.constant *= s;
        self
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self * -1.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub lb: f64,
    pub ub: f64,
    pub integer: bool,
    pub name: String,
}

/// Provenance of a constraint row: which source-level scheduling construct
/// built it.
///
/// Tags let analyses (presolve clique detection, the infeasibility
/// explanation engine) map rows back to dependence edges, MRT resource
/// rows, and assignment constraints without parsing row names. Builders
/// that don't record provenance leave rows [`RowTag::Untagged`]; the tag
/// never affects solving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RowTag {
    /// No provenance recorded (the default for ad-hoc rows).
    #[default]
    Untagged,
    /// Eq. 1 assignment row of operation `#i`.
    Assignment(u32),
    /// Dependence row(s) of scheduling edge `#i` (a structured-form edge
    /// contributes several rows, all tagged with the same edge).
    Dependence(u32),
    /// MRT packing row (Ineq. 5) of one resource at one row.
    Resource {
        /// Dense resource index (creation order in the machine).
        resource: u32,
        /// MRT row within `0..II`.
        row: u32,
    },
    /// Secondary-objective coupling row (kills, MaxLive, lifetimes).
    Objective,
}

#[derive(Debug, Clone)]
pub(crate) struct RowDef {
    pub coeffs: Vec<(VarId, f64)>,
    pub sense: RowSense,
    pub rhs: f64,
    pub name: String,
    pub tag: RowTag,
}

/// An ordered assignment set: binaries of which exactly one is 1, in the
/// order of their `Σ x = 1` row (see [`Model::add_ordered_set`]).
#[derive(Debug, Clone)]
pub(crate) struct SetDef {
    /// Dense index of the set's `Σ x = 1` row.
    pub row: u32,
    pub members: Vec<VarId>,
}

/// Read-only view of one constraint row, as stored in a [`Model`].
///
/// Obtained from [`Model::row`] / [`Model::rows`]; the coefficient slice is
/// compacted (duplicates merged, zero coefficients dropped) and sorted by
/// variable index.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    /// Compacted `(variable, coefficient)` pairs, sorted by variable index.
    pub coeffs: &'a [(VarId, f64)],
    /// Relation of the row to its right-hand side.
    pub sense: RowSense,
    /// Right-hand side (expression constants already folded in).
    pub rhs: f64,
    /// Name given to the row at creation.
    pub name: &'a str,
    /// Provenance of the row (see [`RowTag`]).
    pub tag: RowTag,
}

/// A mixed-integer linear program under construction.
///
/// A model owns its variables and constraints; solving is delegated to
/// [`Solver`] (or the [`Model::solve`] convenience wrapper).
///
/// Variables always carry finite or infinite bounds; integrality is a
/// per-variable flag. Constraints are stored verbatim — no presolve or row
/// reduction is applied, so [`Model::num_vars`]/[`Model::num_constraints`]
/// report the formulation sizes "prior to any simplifications", exactly as
/// the paper's Tables 1 and 2 do.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) rows: Vec<RowDef>,
    pub(crate) obj_sense: Sense,
    pub(crate) objective: Vec<(VarId, f64)>,
    pub(crate) obj_constant: f64,
    /// Ordered assignment sets, each owning one row of `rows`.
    pub(crate) sets: Vec<SetDef>,
}

impl Model {
    /// Creates an empty model (minimization by default, zero objective).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a continuous variable with bounds `[lb, ub]`.
    ///
    /// Use `f64::NEG_INFINITY` / `f64::INFINITY` for unbounded directions.
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub` or either bound is NaN.
    pub fn num_var(&mut self, lb: f64, ub: f64, name: impl Into<String>) -> VarId {
        assert!(
            !lb.is_nan() && !ub.is_nan(),
            "variable bounds must not be NaN"
        );
        assert!(lb <= ub, "variable lower bound exceeds upper bound");
        let id = VarId(u32::try_from(self.vars.len()).expect("too many variables"));
        self.vars.push(VarDef {
            lb,
            ub,
            integer: false,
            name: name.into(),
        });
        id
    }

    /// Adds an integer variable with bounds `[lb, ub]`.
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub` or either bound is NaN.
    pub fn int_var(&mut self, lb: f64, ub: f64, name: impl Into<String>) -> VarId {
        let id = self.num_var(lb, ub, name);
        self.vars[id.index()].integer = true;
        id
    }

    /// Adds a binary (0/1 integer) variable.
    pub fn bool_var(&mut self, name: impl Into<String>) -> VarId {
        self.int_var(0.0, 1.0, name)
    }

    /// Number of variables in the model.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraint rows in the model.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Number of integer (including binary) variables.
    pub fn num_int_vars(&self) -> usize {
        self.vars.iter().filter(|v| v.integer).count()
    }

    /// Iterates over every variable id, in creation order.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.vars.len() as u32).map(VarId)
    }

    /// Lower bound of `var`.
    pub fn lb(&self, var: VarId) -> f64 {
        self.vars[var.index()].lb
    }

    /// Upper bound of `var`.
    pub fn ub(&self, var: VarId) -> f64 {
        self.vars[var.index()].ub
    }

    /// Whether `var` is constrained to integer values.
    pub fn is_integer(&self, var: VarId) -> bool {
        self.vars[var.index()].integer
    }

    /// Name given to `var` at creation.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var.index()].name
    }

    /// Replaces the bounds of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub` or either bound is NaN.
    pub fn set_bounds(&mut self, var: VarId, lb: f64, ub: f64) {
        assert!(
            !lb.is_nan() && !ub.is_nan(),
            "variable bounds must not be NaN"
        );
        assert!(lb <= ub, "variable lower bound exceeds upper bound");
        let v = &mut self.vars[var.index()];
        v.lb = lb;
        v.ub = ub;
    }

    /// Sets the objective `sense` and expression.
    pub fn set_objective(&mut self, sense: Sense, expr: impl Into<LinExpr>) {
        let expr = expr.into();
        self.obj_sense = sense;
        self.objective = expr.compacted();
        self.obj_constant = expr.constant();
    }

    /// The objective sense.
    pub fn objective_sense(&self) -> Sense {
        self.obj_sense
    }

    /// The compacted objective terms.
    pub fn objective_terms(&self) -> &[(VarId, f64)] {
        &self.objective
    }

    /// Adds a constraint `expr (sense) rhs`. The expression's constant is
    /// folded into the right-hand side.
    pub fn add_row(
        &mut self,
        expr: impl Into<LinExpr>,
        sense: RowSense,
        rhs: f64,
        name: impl Into<String>,
    ) -> ConstraintId {
        let expr = expr.into();
        let id = ConstraintId(u32::try_from(self.rows.len()).expect("too many constraints"));
        self.rows.push(RowDef {
            coeffs: expr.compacted(),
            sense,
            rhs: rhs - expr.constant(),
            name: name.into(),
            tag: RowTag::default(),
        });
        id
    }

    /// Adds the row `Σ members = 1` over binary variables and declares
    /// `members`, in the given order, as an ordered assignment set: exactly
    /// one member is 1, and the order ranks them (the MRT row of the
    /// paper's Eq. 1). Branch and bound splits a fractional set as a whole,
    /// "member < s" against "member ≥ s", instead of one member at a time.
    /// The set lives and dies with its row (see [`Model::retain_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if a member is not a binary variable.
    pub fn add_ordered_set(&mut self, members: &[VarId], name: impl Into<String>) -> ConstraintId {
        for &v in members {
            let d = &self.vars[v.index()];
            assert!(
                d.integer && d.lb >= 0.0 && d.ub <= 1.0,
                "ordered-set member {} is not binary",
                d.name
            );
        }
        let id = self.add_eq(members.iter().map(|&v| (v, 1.0)), 1.0, name);
        self.sets.push(SetDef {
            row: id.0,
            members: members.to_vec(),
        });
        id
    }

    /// Iterates over the declared ordered assignment sets: each set's
    /// `Σ x = 1` row and its members in order.
    pub fn ordered_sets(&self) -> impl Iterator<Item = (ConstraintId, &[VarId])> {
        self.sets
            .iter()
            .map(|s| (ConstraintId(s.row), s.members.as_slice()))
    }

    /// Records provenance for the rows added since index `start` (used by
    /// model builders to tag a just-emitted batch, e.g. all rows of one
    /// dependence edge).
    pub fn tag_rows_from(&mut self, start: usize, tag: RowTag) {
        for r in &mut self.rows[start..] {
            r.tag = tag;
        }
    }

    /// Provenance tag of the constraint row at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_constraints()`.
    pub fn row_tag(&self, i: usize) -> RowTag {
        self.rows[i].tag
    }

    /// Adds `expr <= rhs`.
    pub fn add_le(
        &mut self,
        expr: impl Into<LinExpr>,
        rhs: f64,
        name: impl Into<String>,
    ) -> ConstraintId {
        self.add_row(expr, RowSense::Le, rhs, name)
    }

    /// Adds `expr >= rhs`.
    pub fn add_ge(
        &mut self,
        expr: impl Into<LinExpr>,
        rhs: f64,
        name: impl Into<String>,
    ) -> ConstraintId {
        self.add_row(expr, RowSense::Ge, rhs, name)
    }

    /// Adds `expr = rhs`.
    pub fn add_eq(
        &mut self,
        expr: impl Into<LinExpr>,
        rhs: f64,
        name: impl Into<String>,
    ) -> ConstraintId {
        self.add_row(expr, RowSense::Eq, rhs, name)
    }

    /// Read-only view of the constraint row at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_constraints()`.
    pub fn row(&self, i: usize) -> RowView<'_> {
        let r = &self.rows[i];
        RowView {
            coeffs: &r.coeffs,
            sense: r.sense,
            rhs: r.rhs,
            name: &r.name,
            tag: r.tag,
        }
    }

    /// Iterates over read-only views of all constraint rows, in creation
    /// order.
    pub fn rows(&self) -> impl Iterator<Item = RowView<'_>> {
        self.rows.iter().map(|r| RowView {
            coeffs: &r.coeffs,
            sense: r.sense,
            rhs: r.rhs,
            name: &r.name,
            tag: r.tag,
        })
    }

    /// Retains only the constraint rows whose dense index satisfies `keep`,
    /// preserving the relative order of the survivors.
    ///
    /// Intended for presolve-style row elimination. Any [`ConstraintId`]
    /// handed out before this call is invalidated (row indices are dense and
    /// re-compacted); variables and their ids are untouched. An ordered
    /// set whose row is dropped is dropped with it.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(usize) -> bool) {
        // new_index[i] is row i's index among the survivors, if it survives.
        let mut kept = 0u32;
        let new_index: Vec<Option<u32>> = (0..self.rows.len())
            .map(|i| {
                keep(i).then(|| {
                    kept += 1;
                    kept - 1
                })
            })
            .collect();
        let mut survives = new_index.iter().map(Option::is_some);
        self.rows
            .retain(|_| survives.next().expect("one entry per row"));
        self.sets.retain_mut(|s| match new_index[s.row as usize] {
            Some(r) => {
                s.row = r;
                true
            }
            None => false,
        });
    }

    /// Checks a candidate assignment against all rows, bounds, and
    /// integrality requirements; returns the first violation description.
    ///
    /// Intended for tests and debugging (`None` means feasible within
    /// `tol`).
    pub fn check_feasible(&self, values: &[f64], tol: f64) -> Option<String> {
        if values.len() != self.vars.len() {
            return Some(format!(
                "assignment has {} values for {} variables",
                values.len(),
                self.vars.len()
            ));
        }
        for (j, v) in self.vars.iter().enumerate() {
            let x = values[j];
            if x < v.lb - tol || x > v.ub + tol {
                return Some(format!(
                    "variable {} = {x} outside [{}, {}]",
                    v.name, v.lb, v.ub
                ));
            }
            if v.integer && (x - x.round()).abs() > tol.max(crate::INT_TOL) {
                return Some(format!("variable {} = {x} not integral", v.name));
            }
        }
        for row in &self.rows {
            let lhs: f64 = row.coeffs.iter().map(|&(v, c)| c * values[v.index()]).sum();
            let ok = match row.sense {
                RowSense::Le => lhs <= row.rhs + tol,
                RowSense::Ge => lhs >= row.rhs - tol,
                RowSense::Eq => (lhs - row.rhs).abs() <= tol,
            };
            if !ok {
                return Some(format!(
                    "row {}: lhs {lhs} {:?} rhs {}",
                    row.name, row.sense, row.rhs
                ));
            }
        }
        None
    }

    /// True when every objective coefficient is integral and every variable
    /// with a nonzero objective coefficient is an integer variable — in that
    /// case any feasible objective value is integral, which lets
    /// branch-and-bound round its dual bounds.
    pub fn objective_is_integral(&self) -> bool {
        self.objective
            .iter()
            .all(|&(v, c)| self.vars[v.index()].integer && (c - c.round()).abs() < 1e-9)
            && (self.obj_constant - self.obj_constant.round()).abs() < 1e-9
    }

    /// Solves the model with default [`SolveLimits`].
    ///
    /// Convenience for `Solver::new(limits).solve(self)`.
    pub fn solve(&self) -> SolveOutcome {
        Solver::new(SolveLimits::default()).solve(self)
    }

    /// Solves the model with explicit limits.
    pub fn solve_with(&self, limits: SolveLimits) -> SolveOutcome {
        Solver::new(limits).solve(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_operators_combine_terms() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 1.0, "x");
        let y = m.num_var(0.0, 1.0, "y");
        let e = (LinExpr::from(x) * 2.0 + y - 0.5) - LinExpr::term(x, 1.0);
        let c = e.compacted();
        assert_eq!(c, vec![(x, 1.0), (y, 1.0)]);
        assert_eq!(e.constant(), -0.5);
    }

    #[test]
    fn compacted_drops_zero_coefficients() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 1.0, "x");
        let e = LinExpr::from(x) - LinExpr::from(x);
        assert!(e.compacted().is_empty());
    }

    #[test]
    fn row_constant_folds_into_rhs() {
        let mut m = Model::new();
        let x = m.num_var(0.0, 10.0, "x");
        let e = LinExpr::from(x) + 3.0;
        m.add_le(e, 5.0, "r");
        assert_eq!(m.rows[0].rhs, 2.0);
    }

    #[test]
    fn check_feasible_reports_violations() {
        let mut m = Model::new();
        let x = m.int_var(0.0, 4.0, "x");
        m.add_ge([(x, 1.0)], 2.0, "low");
        assert!(m.check_feasible(&[1.0], 1e-9).is_some());
        assert!(m.check_feasible(&[2.5], 1e-9).is_some()); // not integral
        assert!(m.check_feasible(&[3.0], 1e-9).is_none());
    }

    #[test]
    fn objective_integrality_detection() {
        let mut m = Model::new();
        let x = m.int_var(0.0, 4.0, "x");
        let y = m.num_var(0.0, 4.0, "y");
        m.set_objective(Sense::Minimize, [(x, 2.0)]);
        assert!(m.objective_is_integral());
        m.set_objective(Sense::Minimize, [(x, 2.0), (y, 1.0)]);
        assert!(!m.objective_is_integral());
        m.set_objective(Sense::Minimize, [(x, 0.5)]);
        assert!(!m.objective_is_integral());
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper")]
    fn invalid_bounds_panic() {
        let mut m = Model::new();
        m.num_var(1.0, 0.0, "bad");
    }
}
