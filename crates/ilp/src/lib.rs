//! A self-contained integer linear programming solver.
//!
//! This crate implements the solver substrate needed to reproduce
//! *"Efficient Formulation for Optimal Modulo Schedulers"* (Eichenberger &
//! Davidson, PLDI 1997): a bounded-variable revised simplex method over a
//! sparse LU basis, with warm-started dual re-solves, and a depth-first
//! branch-and-bound search. The paper evaluates formulations by
//! the number of **branch-and-bound nodes** and **simplex iterations** a
//! solver needs; both statistics are first-class citizens here (see
//! [`SolveStats`]).
//!
//! The solver is deliberately in the style of 1990s LP-based branch-and-bound
//! codes (no cutting planes, no presolve by default) so that the *relative*
//! behaviour of the traditional and 0-1-structured formulations mirrors the
//! paper's CPLEX experiments.
//!
//! # Quickstart
//!
//! ```
//! use optimod_ilp::{Model, Sense, SolveStatus};
//!
//! // maximize x + 2y  s.t.  x + y <= 4, x, y integer in [0, 3]
//! let mut m = Model::new();
//! let x = m.int_var(0.0, 3.0, "x");
//! let y = m.int_var(0.0, 3.0, "y");
//! m.set_objective(Sense::Maximize, [(x, 1.0), (y, 2.0)]);
//! m.add_le([(x, 1.0), (y, 1.0)], 4.0, "cap");
//! let out = m.solve();
//! assert_eq!(out.status, SolveStatus::Optimal);
//! assert_eq!(out.objective.round() as i64, 7); // x=1, y=3
//! ```

#![warn(missing_docs)]

mod branch_bound;
mod export;
mod factor;
pub mod fault;
mod model;
mod search;
mod simplex;
mod solution;
mod stop;
pub mod tol;

pub use branch_bound::{SolveLimits, Solver};
pub use export::lp_format;
pub use fault::{FaultAction, FaultPlan, FaultSite, Injection};
pub use model::{ConstraintId, LinExpr, Model, RowSense, RowTag, RowView, Sense, VarId};
pub use simplex::{Basis, LpOutcome, LpStatus, Simplex, SimplexEngine, SimplexOptions, WarmStart};
pub use solution::{panic_message, SolveError, SolveOutcome, SolveStats, SolveStatus};
pub use stop::StopFlag;

// Re-exported so downstream crates can attach a trace to [`SolveLimits`]
// without naming `optimod-trace` themselves.
pub use optimod_trace as trace;
pub use optimod_trace::{Trace, TraceSink};

// The tolerance constants historically lived at the crate root; they now
// live (documented, with rationale) in [`tol`] and are re-exported here for
// compatibility.
pub use tol::{FEAS_TOL, INT_TOL, OPT_TOL};
