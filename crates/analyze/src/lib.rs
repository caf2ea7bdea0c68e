//! Static analysis for modulo-scheduling problems: a two-level lint pass
//! plus a certified ILP presolve.
//!
//! The analyzer inspects the *inputs* of the optimal modulo scheduler — the
//! dependence graph and the generated ILP — before any branch-and-bound
//! search runs, in the spirit of the implied-bound and dominance reasoning
//! Eichenberger & Davidson apply by hand (PLDI 1997, §4) and the classic
//! MIP presolve literature.
//!
//! * **Level 1 — DDG lints** ([`lint_loop`]): transitively-dominated
//!   dependence edges, dead values and unreachable operations, SCC
//!   decomposition with per-SCC RecMII attribution, binding-resource
//!   warnings, and MII-overflow errors.
//! * **Level 2 — ILP presolve** ([`presolve`]): stage-bound tightening from
//!   longest-path ASAP/ALAP windows, 0-1 variable fixing from cyclic time
//!   windows, activity-bound redundant-row elimination, and conflict-clique
//!   detection over the MRT binaries.
//! * **Level 3 — infeasibility explanation** ([`explain_infeasible`]):
//!   assumption-based unsat cores over source constraint groups (dependence
//!   edges, MRT resource rows, presolve windows), deletion-minimized and
//!   independently certified, rendered as `OM200`–`OM203` diagnostics.
//!
//! Every finding carries a stable lint code (`OM000`–`OM203`), a severity,
//! and a machine-readable JSON encoding ([`Finding::to_json`]). Presolve is
//! *certified* in the surrounding system: it only applies reductions implied
//! by constraints already in the model, so the scheduler's exact-arithmetic
//! certifier (`optimod-verify`) proves the presolved solve optimizes the
//! same problem.
//!
//! # Example
//!
//! ```
//! use optimod_analyze::{lint_loop, DdgLintConfig, LintCode};
//! use optimod_ddg::{DepKind, LoopBuilder};
//! use optimod_machine::{example_3fu, OpClass};
//!
//! let machine = example_3fu();
//! let mut b = LoopBuilder::new("demo");
//! let ld = b.op(OpClass::Load, "ld");
//! let add = b.op(OpClass::FAdd, "add");
//! let st = b.op(OpClass::Store, "st");
//! b.flow(ld, add, 0);
//! b.flow(add, st, 0);
//! b.dep(ld, st, 1, 0, DepKind::Memory); // implied by ld->add->st
//! let l = b.build(&machine);
//! let findings = lint_loop(&l, &machine, &DdgLintConfig::default());
//! assert!(findings.iter().any(|f| f.code == LintCode::RedundantEdge));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod ddg;
mod explain;
mod lint;
mod presolve;

pub use ddg::{lint_loop, redundant_edges, scc_rec_mii, sccs, DdgLintConfig};
pub use explain::{
    cross_link_conflicts, explain_infeasible, ExplainOptions, ExplainOutcome, Explanation,
};
pub use lint::{max_severity, Finding, LintCode, Severity};
pub use presolve::{detect_cliques, presolve, IlpContext, PresolveOptions, PresolveSummary};
