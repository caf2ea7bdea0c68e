//! Cross-backend portfolio: the CDCL SAT core decides first, the ILP
//! second, with a differential bug oracle between them.
//!
//! For a tentative `II` the portfolio asks two independently implemented
//! decision procedures the same question — `optimod-sat`'s CDCL solver over
//! a CNF compiled from the built model (honoring the presolve fixings as
//! restricted slot domains), then, unless SAT settled it, the
//! branch-and-bound ILP over the 0-1-structured formulation itself, with
//! `limits.threads` workers. The order is the same at every thread count,
//! so portfolio results are deterministic and pinnable in the golden
//! corpus. Arbitration rules:
//!
//! * a SAT schedule counts only after it passes the same exact-arithmetic
//!   certification every ILP schedule passes — the SAT backend is
//!   untrusted by design — and a certified one settles the `II` without
//!   running the ILP;
//! * a SAT *infeasible* verdict alone never escalates `II`: escalation
//!   requires the ILP's own infeasibility proof;
//! * when SAT proves the `II` infeasible but the ILP's witness certifies,
//!   the run fails with [`ScheduleError::BackendDisagreement`], carrying a
//!   greedily minimized reproduction in the textual loop format. A
//!   disagreement is a hard bug in a backend or the encoder, never a
//!   legitimate outcome.

use std::time::Duration;

use optimod_ddg::{DepKind, Loop, LoopBuilder};
use optimod_ilp::{panic_message, SolveError, SolveLimits, SolveOutcome, SolveStats, SolveStatus};
use optimod_machine::Machine;
use optimod_sat::{encode, solve as sat_solve, SatLimits, SatOutcome, SlotDomains};
use optimod_trace::TraceEvent;

use crate::error::ScheduleError;
use crate::formulation::BuiltModel;
use crate::schedule::Schedule;
use crate::scheduler::{LoopState, OptimalScheduler};

/// What the SAT backend established about one tentative `II`.
pub(crate) enum SatVerdict {
    /// A satisfying assignment that decoded *and certified*.
    Schedule(Schedule),
    /// The CNF was proven unsatisfiable.
    Infeasible,
    /// Budget, cancellation, an injected fault, or an uncertifiable
    /// witness: nothing trustworthy either way.
    Unknown,
}

impl SatVerdict {
    fn name(&self) -> &'static str {
        match self {
            SatVerdict::Schedule(_) => "feasible",
            SatVerdict::Infeasible => "infeasible",
            SatVerdict::Unknown => "unknown",
        }
    }
}

/// How one portfolio attempt at a tentative `II` resolved.
pub(crate) enum PortfolioOutcome {
    /// The SAT backend won with a certified schedule.
    Sat(Schedule),
    /// The ILP outcome is authoritative (schedule, infeasibility proof, or
    /// limit); the escalation loop proceeds exactly as without a portfolio.
    /// Boxed: a `SolveOutcome` carries the full variable assignment and
    /// would dominate the enum's footprint.
    Ilp(Box<SolveOutcome>),
    /// The differential oracle caught the backends contradicting each
    /// other.
    Disagreement(ScheduleError),
}

fn ilp_verdict_name(status: SolveStatus) -> &'static str {
    match status {
        SolveStatus::Optimal | SolveStatus::Feasible => "feasible",
        SolveStatus::Infeasible => "infeasible",
        SolveStatus::LimitReached => "unknown",
    }
}

/// Reads the per-op slot domains off a (presolved) built model: the stage
/// variables' bounds and the MRT row binaries still free or forced. This
/// is how analyzer fixings reach the CNF as unit-clause-level restrictions.
pub(crate) fn slot_domains(built: &BuiltModel) -> SlotDomains {
    let n = built.a.len();
    let mut stage_bounds = Vec::with_capacity(n);
    let mut row_allowed = Vec::with_capacity(n);
    for op in 0..n {
        let k = built.k[op];
        stage_bounds.push((
            built.model.lb(k).ceil() as i64,
            built.model.ub(k).floor() as i64,
        ));
        let mut rows: Vec<bool> = built.a[op]
            .iter()
            .map(|&v| built.model.ub(v) > 0.5)
            .collect();
        if let Some(forced) = built.a[op].iter().position(|&v| built.model.lb(v) > 0.5) {
            for (r, b) in rows.iter_mut().enumerate() {
                *b = r == forced;
            }
        }
        row_allowed.push(rows);
    }
    SlotDomains {
        num_stages: built.num_stages,
        stage_bounds,
        row_allowed,
    }
}

/// Rebuilds `l` as `name`, keeping only the edges with `keep[i]` set. Flow
/// edges come back as memory dependences of equal latency and distance —
/// identical scheduling constraints without needing virtual registers,
/// which the feasibility-only repro never inspects.
pub(crate) fn rebuild(l: &Loop, machine: &Machine, name: &str, keep: &[bool]) -> Option<Loop> {
    let mut b = LoopBuilder::new(name);
    let ids: Vec<_> = l
        .ops()
        .iter()
        .enumerate()
        .map(|(i, op)| b.op(op.class, format!("o{i}")))
        .collect();
    for (i, e) in l.edges().iter().enumerate() {
        if !keep[i] {
            continue;
        }
        let kind = match e.kind {
            DepKind::Anti => DepKind::Anti,
            DepKind::Control => DepKind::Control,
            DepKind::Flow | DepKind::Memory => DepKind::Memory,
        };
        b.dep(
            ids[e.from.index()],
            ids[e.to.index()],
            e.latency,
            e.distance,
            kind,
        );
    }
    b.try_build(machine).ok()
}

/// Renders a loop as a replayable textual repro file, one `#` comment per
/// `header` line.
pub(crate) fn render_repro(l: &Loop, machine: &Machine, header: &[String]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for line in header {
        let _ = writeln!(s, "# {line}");
    }
    let _ = writeln!(s, "machine {}", machine.name());
    for (i, op) in l.ops().iter().enumerate() {
        let _ = writeln!(s, "op o{i} {}", op.class.mnemonic());
    }
    for e in l.edges() {
        let kind = match e.kind {
            DepKind::Anti => "anti",
            DepKind::Control => "control",
            DepKind::Flow | DepKind::Memory => "memory",
        };
        let _ = writeln!(
            s,
            "dep o{} o{} {} {} {kind}",
            e.from.index(),
            e.to.index(),
            e.latency,
            e.distance
        );
    }
    s
}

/// Edge-count ceiling for the greedy repro minimizer: each candidate costs
/// a bounded re-solve, so enormous graphs ship unminimized rather than
/// stalling the failure report.
const REPRO_EDGE_CAP: usize = 64;

/// Greedy edge-dropping minimizer: drop each dependence not in `pinned` in
/// turn, keeping the drop whenever `reproduces` still holds on the rebuilt
/// candidate. The survivor renders as a replayable `.loop` text with one
/// `#` comment per `header` line.
pub(crate) fn minimize_repro(
    l: &Loop,
    machine: &Machine,
    header: &[String],
    pinned: &[usize],
    reproduces: impl Fn(&Loop) -> bool,
) -> String {
    let mut keep = vec![true; l.edges().len()];
    if keep.len() <= REPRO_EDGE_CAP {
        for e in (0..keep.len()).filter(|e| !pinned.contains(e)) {
            keep[e] = false;
            if !rebuild(l, machine, "repro", &keep).is_some_and(|cand| reproduces(&cand)) {
                keep[e] = true;
            }
        }
    }
    match rebuild(l, machine, "repro", &keep) {
        Some(minimized) => render_repro(&minimized, machine, header),
        // The rebuilt form should always validate (the edges kept are a
        // subset of a validated loop's); render the original as a
        // fallback rather than failing the failure report.
        None => render_repro(l, machine, header),
    }
}

impl OptimalScheduler {
    /// One portfolio attempt at the built model's `II`. SAT decides first:
    /// a certified SAT schedule settles the `II` without running the ILP;
    /// anything weaker defers to the ILP's verdict, searched with
    /// `limits.threads` workers. Both sides' statistics on every
    /// early-return path are folded into `state`; on the
    /// [`PortfolioOutcome::Ilp`] path the caller absorbs the ILP outcome's
    /// statistics itself, exactly as in the non-portfolio flow.
    pub(crate) fn portfolio_attempt(
        &self,
        l: &Loop,
        machine: &Machine,
        built: &BuiltModel,
        limits: SolveLimits,
        state: &mut LoopState,
    ) -> PortfolioOutcome {
        let ii = built.ii;
        let trace = &self.config().limits.trace;
        let domains = slot_domains(built);
        let sat_run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.sat_attempt(l, machine, ii, &domains, &limits)
        }));
        let (verdict, sat_stats, sat_err) = sat_run.unwrap_or_else(|p| {
            state.stats.panics_recovered += 1;
            let msg = panic_message(p.as_ref());
            state.note(ScheduleError::Solver(SolveError::WorkerPanic(msg)));
            (SatVerdict::Unknown, SolveStats::default(), None)
        });
        state.stats.absorb(&sat_stats);
        if let Some(e) = sat_err {
            state.note(e);
        }
        let verdict_name = verdict.name();
        trace.emit(|| TraceEvent::BackendResult {
            backend: "sat",
            ii,
            verdict: verdict_name,
        });
        let sat_unsat = match verdict {
            SatVerdict::Schedule(s) => {
                trace.emit(|| TraceEvent::PortfolioWin { backend: "sat", ii });
                return PortfolioOutcome::Sat(s);
            }
            SatVerdict::Infeasible => true,
            SatVerdict::Unknown => false,
        };

        let out = built.model.solve_with(limits);
        let status = out.status;
        trace.emit(|| TraceEvent::BackendResult {
            backend: "ilp",
            ii,
            verdict: ilp_verdict_name(status),
        });
        // The ILP's outcome is authoritative unless the SAT unsat proof
        // contradicts a certified ILP schedule. An ILP witness that does
        // not certify is an ILP-side defect the normal packaging path
        // reports, not a contradiction.
        if sat_unsat && ilp_witness_certifies(l, machine, built, &out) {
            state.stats.absorb(&out.stats);
            let detail = "sat proved the II infeasible but the ilp schedule passed certification"
                .to_string();
            return PortfolioOutcome::Disagreement(self.disagreement(l, machine, ii, detail));
        }
        if status.has_solution() {
            trace.emit(|| TraceEvent::PortfolioWin { backend: "ilp", ii });
        }
        PortfolioOutcome::Ilp(Box::new(out))
    }

    /// Runs the SAT backend once at `ii`: encode (under the configured
    /// [`EncodeOptions`](optimod_sat::EncodeOptions)), solve, decode, and
    /// certify. The verdict is [`SatVerdict::Schedule`] only for a
    /// certified witness; an uncertifiable one degrades to
    /// [`SatVerdict::Unknown`] with the refusal recorded as a SAT-side
    /// failure — never a disagreement, so chaos-injected incumbent
    /// perturbations surface as recovered degradations, not false alarms.
    fn sat_attempt(
        &self,
        l: &Loop,
        machine: &Machine,
        ii: u32,
        domains: &SlotDomains,
        limits: &SolveLimits,
    ) -> (SatVerdict, SolveStats, Option<ScheduleError>) {
        let sat_limits = SatLimits {
            time_limit: limits.time_limit,
            conflict_limit: limits.node_limit,
            seed: 0x5A7 ^ u64::from(ii),
            stop: limits.stop.clone(),
            fault: limits.fault.clone(),
        };
        let enc = encode(l, machine, ii, domains, &self.config().sat_encode);
        let (out, st) = sat_solve(&enc.cnf, &sat_limits);
        match out {
            SatOutcome::Sat(model) => {
                let mut times = match enc.decode(&model) {
                    Ok(t) => t,
                    Err(detail) => {
                        return (
                            SatVerdict::Unknown,
                            st,
                            Some(ScheduleError::MalformedSolution {
                                detail: format!("sat model: {detail}"),
                            }),
                        )
                    }
                };
                // The SAT analogue of the ILP's incumbent corruption: a
                // latched perturbation shifts one issue time, and the
                // certifier below must catch it (or the shifted schedule
                // happens to stay legal, which is equally acceptable).
                if limits.fault.take_incumbent_perturbation() {
                    if let Some(t) = times.first_mut() {
                        *t += 1;
                    }
                }
                let trace = &self.config().limits.trace;
                let claim = optimod_verify::Claim::feasibility(l, machine, ii, &times, true);
                match optimod_verify::certify(&claim) {
                    Ok(_) => {
                        trace.emit(|| TraceEvent::Certified { ii, ok: true });
                        (SatVerdict::Schedule(Schedule::new(ii, times)), st, None)
                    }
                    Err(cert) => {
                        trace.emit(|| TraceEvent::Certified { ii, ok: false });
                        (
                            SatVerdict::Unknown,
                            st,
                            Some(ScheduleError::MalformedSolution {
                                detail: format!("sat witness refused by the certifier: {cert}"),
                            }),
                        )
                    }
                }
            }
            SatOutcome::Unsat => (SatVerdict::Infeasible, st, None),
            SatOutcome::Unknown => (SatVerdict::Unknown, st, None),
        }
    }

    /// Builds the [`ScheduleError::BackendDisagreement`], minimizing the
    /// instance first: an edge drop is kept whenever the (bounded) re-check
    /// still shows a certified contradiction at `ii`.
    fn disagreement(&self, l: &Loop, machine: &Machine, ii: u32, detail: String) -> ScheduleError {
        let header = [
            "optimod cross-backend disagreement repro (minimized)".to_string(),
            detail.clone(),
            format!("disagreeing II: {ii}"),
        ];
        let probe = OptimalScheduler::probe(self.config());
        let repro = minimize_repro(l, machine, &header, &[], |cand| {
            probe.disagreement_persists(cand, machine, ii)
        });
        ScheduleError::BackendDisagreement { ii, detail, repro }
    }

    /// Bounded re-check of a candidate instance: does SAT still refute
    /// `ii` while the ILP's schedule still certifies?
    fn disagreement_persists(&self, l: &Loop, machine: &Machine, ii: u32) -> bool {
        let Some((built, _)) = self.build(l, machine, ii) else {
            return false;
        };
        let domains = slot_domains(&built);
        let enc = encode(l, machine, ii, &domains, &self.config().sat_encode);
        let sat_limits = SatLimits {
            time_limit: Duration::from_secs(2),
            conflict_limit: 50_000,
            seed: 0x5A7 ^ u64::from(ii),
            ..Default::default()
        };
        if !matches!(sat_solve(&enc.cnf, &sat_limits).0, SatOutcome::Unsat) {
            return false;
        }
        let ilp_limits = SolveLimits {
            time_limit: Duration::from_secs(2),
            node_limit: 20_000,
            threads: 1,
            first_solution_only: true,
            ..Default::default()
        };
        let out = built.model.solve_with(ilp_limits);
        ilp_witness_certifies(l, machine, &built, &out)
    }
}

/// Whether the ILP found a schedule that passes exact certification.
fn ilp_witness_certifies(
    l: &Loop,
    machine: &Machine,
    built: &BuiltModel,
    out: &SolveOutcome,
) -> bool {
    out.status.has_solution()
        && built.try_extract_schedule(out).is_ok_and(|s| {
            let claim = optimod_verify::Claim::feasibility(l, machine, built.ii, s.times(), false);
            optimod_verify::certify(&claim).is_ok()
        })
}
