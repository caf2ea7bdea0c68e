//! Optimal modulo scheduling via integer linear programming — a Rust
//! reproduction of Eichenberger & Davidson, *"Efficient Formulation for
//! Optimal Modulo Schedulers"*, PLDI 1997.
//!
//! # Overview
//!
//! Modulo scheduling overlaps loop iterations at a constant initiation
//! interval (`II`). This crate provides *optimal* modulo schedulers built
//! on an ILP solver ([`optimod_ilp`]), in both the **traditional**
//! formulation (Govindarajan et al. / Eichenberger et al.) and the paper's
//! **0-1-structured** formulation of the dependence constraints, which
//! shrinks branch-and-bound effort by orders of magnitude.
//!
//! * [`compute_mii`] — ResMII / RecMII lower bounds.
//! * [`build_model`] — compile a loop + machine + `II` into an ILP.
//! * [`OptimalScheduler`] — the full framework: MII, per-II solve,
//!   II escalation; objectives: none (*NoObj*), MaxLive (*MinReg*),
//!   buffers (*MinBuff*), cumulative lifetime (*MinLife*), schedule length.
//! * [`Schedule`] — concrete schedules: validation, MRT, lifetimes,
//!   MaxLive, buffers.
//! * [`heuristic`] — Rau's Iterative Modulo Scheduler and the
//!   stage-scheduling register heuristics the paper grades against the
//!   optimal schedulers.
//!
//! # Quickstart
//!
//! ```
//! use optimod::{OptimalScheduler, SchedulerConfig, DepStyle, Objective};
//! use optimod_ddg::kernels::figure1;
//! use optimod_machine::example_3fu;
//!
//! let machine = example_3fu();
//! let l = figure1(&machine);
//! let scheduler = OptimalScheduler::new(
//!     SchedulerConfig::new(DepStyle::Structured, Objective::MinMaxLive));
//! let result = scheduler.schedule(&l, &machine);
//! let schedule = result.schedule.expect("figure1 schedules at II=2");
//! assert_eq!(schedule.ii(), 2);
//! assert_eq!(schedule.max_live(&l), 7); // the paper's Figure 1
//! ```

#![warn(missing_docs)]

pub mod codegen;
pub mod error;
pub mod explain;
pub mod formulation;
pub mod heuristic;
pub mod mii;
mod portfolio;
pub mod rotating;
pub mod schedule;
pub mod scheduler;

pub use codegen::{expand, unroll_factor, Inst, PipelinedLoop};
pub use error::ScheduleError;
pub use explain::{explain_at, explain_options};
pub use formulation::{build_model, BuiltModel, DepStyle, FormulationConfig, Objective};
pub use mii::{compute_mii, Mii};
pub use optimod_analyze::{
    ExplainOptions, ExplainOutcome, Explanation, IlpContext, PresolveOptions, PresolveSummary,
};
pub use optimod_sat::EncodeOptions as SatEncodeOptions;
pub use optimod_verify::{certify, CertError, Certificate, Claim};
pub use rotating::{allocate, RotatingAllocation};
pub use schedule::{Lifetime, Schedule};
pub use scheduler::{
    FallbackConfig, LoopResult, LoopStatus, OptimalScheduler, Provenance, SchedulerConfig,
    MAX_SCHEDULABLE_II,
};
