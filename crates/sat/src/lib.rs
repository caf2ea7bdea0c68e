//! A zero-dependency CDCL SAT backend for modulo scheduling feasibility.
//!
//! This crate gives the portfolio scheduler a second, independently
//! implemented decision procedure for the question "does a legal schedule
//! exist at initiation interval II?":
//!
//! * [`encode`] compiles a dependence graph + machine model into CNF using
//!   time-slot literals — the same 0-1 structure as the paper's ILP, with
//!   Eq. 1 assignment rows as exactly-one constraints, dependence rows as
//!   slot implications, and MRT resource rows as sequential-counter
//!   at-most-k cardinality circuits (see [`encode`'s module docs](encode)
//!   for the constraint-by-constraint correspondence);
//! * [`solve`] is a small conflict-driven solver: two-watched-literal
//!   propagation, 1-UIP conflict analysis, VSIDS-style activities, phase
//!   saving, and Luby restarts — deterministic for a given seed;
//! * [`Encoding::decode`] maps a satisfying assignment back to issue
//!   times, which the caller certifies with `optimod-verify` exactly like
//!   an ILP schedule. The SAT backend is **untrusted by design**: its
//!   feasible answers must re-certify and its infeasible answers are
//!   cross-checked against the ILP's verdict by the differential oracle
//!   in `optimod`.
//!
//! The solver is feasibility-only (no objective), which is exactly what
//! the `NoObj` scheduling mode needs; objective-bearing modes stay on the
//! ILP.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cdcl;
mod encode;

pub use cdcl::{solve, solve_with_assumptions, AssumeOutcome, Cnf, Lit, SatLimits, SatOutcome};
pub use encode::{
    encode, encode_grouped, encode_subset, ConstraintGroup, EncodeOptions, Encoding,
    GroupedEncoding, SlotDomains,
};
