//! Scheduler-side wiring of the infeasibility explanation engine.
//!
//! [`optimod_analyze::explain_infeasible`] works on a `(Loop, Machine, II,
//! SlotDomains)` quadruple. This module supplies the quadruple the
//! scheduler actually searched — the slot domains come off the built (and,
//! when enabled, presolved) model, so presolve fixings show up as `OM202`
//! window groups — emits the `explain` trace phase, and attaches a
//! greedily minimized replayable `.loop` repro to the explanation through
//! the same repro minimizer the portfolio's disagreement reports use.

use std::time::Duration;

use optimod_analyze::{ExplainOptions, ExplainOutcome, Explanation};
use optimod_ddg::Loop;
use optimod_machine::Machine;
use optimod_sat::{encode, solve as sat_solve, EncodeOptions, SatLimits, SatOutcome, SlotDomains};
use optimod_trace::{Phase, TraceEvent};

use crate::portfolio::{minimize_repro, slot_domains};
use crate::scheduler::{OptimalScheduler, SchedulerConfig};

/// Derives [`ExplainOptions`] from a scheduler configuration. The
/// explanation gets its own bounded wall-clock slice — by the time an
/// infeasibility proof lands the scheduler's budget is spent — but shares
/// the cooperative stop flag and worker count, so cancelling the schedule
/// cancels the explanation too.
pub fn explain_options(cfg: &SchedulerConfig) -> ExplainOptions {
    ExplainOptions {
        time_limit: cfg.limits.time_limit.min(Duration::from_secs(60)),
        stop: cfg.limits.stop.child(),
        threads: cfg.limits.resolve_threads(),
        ..ExplainOptions::default()
    }
}

/// Explains an infeasibility at `ii` under `cfg`-derived default budgets,
/// returning the explanation only when the engine actually produced one.
/// `Satisfiable` and `Budget` outcomes yield `None`: an infeasible result
/// without an explanation is still an infeasible result.
pub(crate) fn explain_infeasibility(
    l: &Loop,
    machine: &Machine,
    ii: u32,
    cfg: &SchedulerConfig,
) -> Option<Explanation> {
    match explain_at(l, machine, ii, cfg, &explain_options(cfg)) {
        ExplainOutcome::Explained(ex) => Some(ex),
        ExplainOutcome::Satisfiable | ExplainOutcome::Budget => None,
    }
}

/// Runs the full explanation pipeline at `ii`: recover the searched slot
/// domains, extract + minimize + certify the unsat core, attach the
/// minimized repro, and emit `explain_start` / `core_found` /
/// `core_minimized` trace events under the `explain` phase span.
pub fn explain_at(
    l: &Loop,
    machine: &Machine,
    ii: u32,
    cfg: &SchedulerConfig,
    opts: &ExplainOptions,
) -> ExplainOutcome {
    let trace = cfg.limits.trace.clone();
    let _span = trace.span(Phase::Explain);
    trace.emit(|| TraceEvent::ExplainStart { ii });
    let probe = OptimalScheduler::probe(cfg);
    let domains = searched_domains(&probe, l, machine, ii);
    match optimod_analyze::explain_infeasible(l, machine, ii, &domains, opts) {
        ExplainOutcome::Explained(mut ex) => {
            let (raw, min, certified) =
                (ex.raw_core_size as u64, ex.core.len() as u64, ex.certified);
            trace.emit(|| TraceEvent::CoreFound { ii, size: raw });
            trace.emit(|| TraceEvent::CoreMinimized {
                ii,
                from: raw,
                to: min,
                certified,
            });
            // Core edges are certified necessary and are never dropped;
            // every other edge goes while the candidate stays infeasible.
            let header = [
                "optimod infeasibility repro (minimized)".to_string(),
                format!(
                    "loop {}: no modulo schedule exists at II={ii} ({} core group(s))",
                    l.name(),
                    ex.core.len()
                ),
                format!("infeasible II: {ii}"),
            ];
            ex.repro = Some(minimize_repro(
                l,
                machine,
                &header,
                &ex.core_edges(),
                |cand| still_infeasible(&probe, cand, machine, ii, opts),
            ));
            ExplainOutcome::Explained(ex)
        }
        other => other,
    }
}

/// The slot domains the scheduler's search used at `ii`: stage bounds and
/// MRT-row binaries read off the model `probe` builds (and presolves, when
/// enabled). Below the RecMII no model exists; the fallback is an
/// unrestricted horizon generous enough that infeasibility is never an
/// artifact of the fallback itself.
fn searched_domains(probe: &OptimalScheduler, l: &Loop, machine: &Machine, ii: u32) -> SlotDomains {
    if let Some((built, _)) = probe.build(l, machine, ii) {
        return slot_domains(&built);
    }
    // No ASAP times exist at this II (a recurrence already exceeds it), so
    // mirror the formulation's horizon arithmetic over a latency sum that
    // dominates any longest path.
    let total_latency: i64 = l.edges().iter().map(|e| e.latency.max(0)).sum();
    let max_len = total_latency + i64::from(probe.config().sched_len_slack) + 1;
    let num_stages = max_len.div_euclid(i64::from(ii)) + 1;
    SlotDomains::unrestricted(l.num_ops(), ii, num_stages)
}

/// Bounded re-check: is the candidate loop still infeasible at `ii` under
/// the same domain derivation the explanation used? A candidate whose
/// recurrence alone exceeds `ii` (no model builds) is infeasible without
/// solving anything.
fn still_infeasible(
    probe: &OptimalScheduler,
    cand: &Loop,
    machine: &Machine,
    ii: u32,
    opts: &ExplainOptions,
) -> bool {
    let Some((built, _)) = probe.build(cand, machine, ii) else {
        return true;
    };
    let enc = encode(
        cand,
        machine,
        ii,
        &slot_domains(&built),
        &EncodeOptions::default(),
    );
    let limits = SatLimits {
        time_limit: Duration::from_secs(2).min(opts.time_limit),
        conflict_limit: 50_000,
        seed: opts.seed,
        stop: opts.stop.child(),
        ..SatLimits::default()
    };
    matches!(sat_solve(&enc.cnf, &limits).0, SatOutcome::Unsat)
}
