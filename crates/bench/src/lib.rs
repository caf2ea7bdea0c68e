//! Experiment harness for the PLDI'97 reproduction.
//!
//! Provides the shared machinery the per-table/per-figure binaries use:
//! corpus selection, per-loop budgeting, the four schedulers in both
//! formulations, and the paper's `min / freq / median / average / max`
//! summary statistics (Tables 1 and 2).
//!
//! Environment knobs (read by [`ExperimentConfig::from_env`]; the
//! `trace_overhead` gate uses the default configuration and honours only
//! `OPTIMOD_THREADS`):
//!
//! * `OPTIMOD_CORPUS` — `small` (default), `medium`, or `full` (1327
//!   loops, like the paper; slow).
//! * `OPTIMOD_BUDGET_MS` — per-loop solver budget in milliseconds
//!   (default 2000; the paper used 15 minutes on an HP-9000/715).
//! * `OPTIMOD_NODE_CAP` — per-loop branch-and-bound node cap
//!   (default 200000).
//! * `OPTIMOD_THREADS` — worker threads for the corpus driver (default:
//!   all cores). The corpus is parallelized *across* loops while each
//!   per-loop solve stays single-threaded, so node and iteration counts
//!   are identical at any thread count.

#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use optimod::heuristic::{ims_schedule, stage_schedule, ImsConfig};
use optimod::{
    DepStyle, LoopResult, LoopStatus, Objective, OptimalScheduler, Provenance, Schedule,
    SchedulerConfig,
};
use optimod_ddg::{benchmark_corpus, CorpusSize, Loop};
use optimod_ilp::{panic_message, SolveStats};
use optimod_machine::{cydra_like, Machine};
use optimod_trace::{HistSummary, MemorySink, Phase, SolveReport, Trace};

/// One benchmark loop together with the optimal scheduler's outcome.
#[derive(Debug, Clone)]
pub struct LoopRecord {
    /// Loop name.
    pub name: String,
    /// Operation count (the paper's `N`).
    pub n_ops: usize,
    /// Scheduling outcome.
    pub result: LoopResult,
}

/// The four schedulers of the paper's Section 5.
pub const SCHEDULERS: [(&str, Objective); 4] = [
    ("NoObj", Objective::FirstFeasible),
    ("MinBuff", Objective::MinBuffers),
    ("MinLife", Objective::MinCumLifetime),
    ("MinReg", Objective::MinMaxLive),
];

/// Experiment-wide configuration, resolved from the environment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Corpus size.
    pub corpus: CorpusSize,
    /// Per-loop solver budget.
    pub budget: Duration,
    /// Per-loop branch-and-bound node cap.
    pub node_cap: u64,
    /// Worker threads for the corpus driver (`0` = all cores, honoring
    /// `OPTIMOD_THREADS`). Parallelism is across loops; each per-loop
    /// solve runs single-threaded so statistics stay deterministic.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            corpus: CorpusSize::Small,
            budget: Duration::from_millis(2000),
            node_cap: 200_000,
            threads: 0,
        }
    }
}

/// Parses the value of the numeric knob `name` (`None` when unset). An
/// unparsable value is reported on stderr and ignored, like an unset one,
/// so the default stays in force visibly rather than silently.
fn parse_u64_knob(name: &str, value: Option<&str>) -> Option<u64> {
    let value = value?;
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("ignoring invalid {name}={value}");
            None
        }
    }
}

impl ExperimentConfig {
    /// Reads `OPTIMOD_CORPUS`, `OPTIMOD_BUDGET_MS`, and `OPTIMOD_NODE_CAP`.
    /// (`OPTIMOD_THREADS` is resolved lazily by the parallel driver.)
    pub fn from_env() -> Self {
        let mut cfg = ExperimentConfig::default();
        match std::env::var("OPTIMOD_CORPUS").as_deref() {
            Ok("medium") => cfg.corpus = CorpusSize::Medium,
            Ok("full") => cfg.corpus = CorpusSize::Full,
            Ok("small") | Err(_) => {}
            Ok(other) => eprintln!("ignoring unknown OPTIMOD_CORPUS={other}"),
        }
        let knob = |name| parse_u64_knob(name, std::env::var(name).ok().as_deref());
        if let Some(ms) = knob("OPTIMOD_BUDGET_MS") {
            cfg.budget = Duration::from_millis(ms);
        }
        if let Some(cap) = knob("OPTIMOD_NODE_CAP") {
            cfg.node_cap = cap;
        }
        cfg
    }

    /// The experiment machine (Cydra-5-like, as in the paper).
    pub fn machine(&self) -> Machine {
        cydra_like()
    }

    /// The benchmark corpus for this configuration.
    pub fn corpus_loops(&self, machine: &Machine) -> Vec<Loop> {
        benchmark_corpus(machine, self.corpus)
    }

    /// A scheduler with this experiment's budgets.
    ///
    /// The solver is pinned to one thread: the harness parallelizes across
    /// loops instead, which keeps per-loop node and iteration counts
    /// bit-identical to a fully sequential run.
    pub fn scheduler(&self, style: DepStyle, objective: Objective) -> OptimalScheduler {
        self.scheduler_with_trace(style, objective, Trace::disabled())
    }

    /// Like [`ExperimentConfig::scheduler`], with a trace handle attached
    /// to the solver limits (e.g. a shared `NullSink` for overhead
    /// measurement).
    pub fn scheduler_with_trace(
        &self,
        style: DepStyle,
        objective: Objective,
        trace: Trace,
    ) -> OptimalScheduler {
        let mut cfg = SchedulerConfig::new(style, objective)
            .with_time_limit(self.budget)
            .with_node_limit(self.node_cap);
        cfg.limits.threads = 1;
        cfg.limits.trace = trace;
        OptimalScheduler::new(cfg)
    }

    /// Runs a prepared scheduler over the whole corpus, one loop per worker
    /// task. Results come back in corpus order regardless of thread count.
    pub fn run_suite_with(
        &self,
        machine: &Machine,
        loops: &[Loop],
        sched: &OptimalScheduler,
    ) -> Vec<LoopRecord> {
        optimod_par::par_map(self.threads, loops, |_, l| LoopRecord {
            name: l.name().to_string(),
            n_ops: l.num_ops(),
            result: sched.schedule(l, machine),
        })
    }

    /// Runs one scheduler over the whole corpus, one loop per worker task.
    ///
    /// Results come back in corpus order regardless of thread count.
    pub fn run_suite(
        &self,
        machine: &Machine,
        loops: &[Loop],
        style: DepStyle,
        objective: Objective,
    ) -> Vec<LoopRecord> {
        self.run_suite_with(machine, loops, &self.scheduler(style, objective))
    }

    /// Traced variant of [`ExperimentConfig::run_suite`]: each loop gets a
    /// private [`MemorySink`], and its aggregated [`SolveReport`] comes back
    /// alongside the record. Per-loop solves stay single-threaded, so the
    /// per-loop event streams are deterministic.
    pub fn run_suite_traced(
        &self,
        machine: &Machine,
        loops: &[Loop],
        style: DepStyle,
        objective: Objective,
    ) -> Vec<(LoopRecord, SolveReport)> {
        optimod_par::par_map(self.threads, loops, |_, l| {
            let sink = Arc::new(MemorySink::default());
            let sched = self.scheduler_with_trace(style, objective, Trace::new(sink.clone()));
            let record = LoopRecord {
                name: l.name().to_string(),
                n_ops: l.num_ops(),
                result: sched.schedule(l, machine),
            };
            (record, sink.report())
        })
    }
}

/// Prints a percentile table (min/p50/p90/max across loops) for one
/// formulation's traced run: per-phase wall clock from the traces, then
/// the branch-and-bound and LP counters from each loop's `SolveStats`.
pub fn print_trace_percentiles(title: &str, traced: &[(LoopRecord, SolveReport)]) {
    println!("{title}");
    println!(
        "  {:<24} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "measure", "loops", "min", "p50", "p90", "max"
    );
    for phase in Phase::ALL {
        let micros: Vec<u64> = traced
            .iter()
            .filter_map(|(_, r)| r.phase(phase))
            .map(|p| u64::try_from(p.total.as_micros()).unwrap_or(u64::MAX))
            .collect();
        if micros.is_empty() {
            continue;
        }
        let h = HistSummary::from_values(&micros);
        println!(
            "  {:<24} {:>7} {:>10}us {:>10}us {:>10}us {:>10}us",
            format!("{} wall", phase.name()),
            h.count,
            h.min,
            h.p50,
            h.p90,
            h.max
        );
    }
    type Extract = fn(&SolveStats) -> u64;
    let counters: [(&str, Extract); 5] = [
        ("bb nodes", |s| s.bb_nodes),
        ("lp solves", |s| s.lp_solves),
        ("simplex iterations", |s| s.simplex_iterations),
        ("refactorizations", |s| s.refactors),
        ("incumbent updates", |s| s.incumbents),
    ];
    for (label, f) in counters {
        let vals: Vec<u64> = traced.iter().map(|(rec, _)| f(&rec.result.stats)).collect();
        let h = HistSummary::from_values(&vals);
        println!(
            "  {label:<24} {:>7} {:>12} {:>12} {:>12} {:>12}",
            h.count, h.min, h.p50, h.p90, h.max
        );
    }
}

/// Classification of one loop's outcome in a resilient corpus run: what
/// the coverage experiments count (exact vs. degraded vs. the various ways
/// of coming up empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Scheduled by the exact solver (rung 1).
    Exact,
    /// Scheduled by a fallback rung; the payload says which.
    Degraded(Provenance),
    /// The budget ran out with no schedule from any rung.
    TimedOut,
    /// Proven infeasible within the `II` span.
    Infeasible,
    /// The input loop failed validation.
    Invalid,
    /// The pipeline reported a typed failure (solver instability, worker
    /// panic, undecodable solution) with no schedule.
    Failed,
    /// `schedule()` itself panicked; the driver caught the unwind and the
    /// sweep continued.
    Crashed,
}

impl OutcomeKind {
    /// Whether a schedule was produced (by any rung).
    pub fn scheduled(self) -> bool {
        matches!(self, OutcomeKind::Exact | OutcomeKind::Degraded(_))
    }
}

impl std::fmt::Display for OutcomeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutcomeKind::Exact => f.write_str("exact"),
            OutcomeKind::Degraded(p) => write!(f, "degraded({p})"),
            OutcomeKind::TimedOut => f.write_str("timed-out"),
            OutcomeKind::Infeasible => f.write_str("infeasible"),
            OutcomeKind::Invalid => f.write_str("invalid"),
            OutcomeKind::Failed => f.write_str("failed"),
            OutcomeKind::Crashed => f.write_str("CRASHED"),
        }
    }
}

/// One row of the resilient corpus driver's outcome table.
#[derive(Debug, Clone)]
pub struct CorpusRow {
    /// Loop name.
    pub name: String,
    /// Operation count.
    pub n_ops: usize,
    /// Outcome classification.
    pub kind: OutcomeKind,
    /// Achieved `II` (when scheduled).
    pub ii: Option<u32>,
    /// Wall time spent on the loop.
    pub wall_time: Duration,
    /// Error or panic message, when the outcome carries one.
    pub detail: Option<String>,
}

impl CorpusRow {
    /// Classifies a scheduling result into an outcome row.
    pub fn classify(name: &str, n_ops: usize, r: &LoopResult) -> CorpusRow {
        let kind = match r.status {
            LoopStatus::Optimal | LoopStatus::FeasibleOnly => match r.provenance {
                Some(p) if p.degraded() => OutcomeKind::Degraded(p),
                _ => OutcomeKind::Exact,
            },
            LoopStatus::TimedOut => OutcomeKind::TimedOut,
            LoopStatus::Infeasible => OutcomeKind::Infeasible,
            LoopStatus::Invalid => OutcomeKind::Invalid,
            LoopStatus::Failed => OutcomeKind::Failed,
        };
        CorpusRow {
            name: name.to_string(),
            n_ops,
            kind,
            ii: r.ii,
            wall_time: r.stats.wall_time,
            detail: r.error.as_ref().map(|e| e.to_string()),
        }
    }
}

/// Runs `schedule` over every loop with per-loop fault isolation: a panic
/// inside one loop's pipeline becomes a [`OutcomeKind::Crashed`] row while
/// the rest of the sweep proceeds. Results come back in corpus order.
///
/// This is the driver the coverage experiments use on untrusted or
/// adversarial corpora; `schedule` is a closure (rather than a fixed
/// [`OptimalScheduler`]) so tests can inject faults for specific loops.
pub fn run_resilient<F>(threads: usize, loops: &[Loop], schedule: F) -> Vec<CorpusRow>
where
    F: Fn(usize, &Loop) -> LoopResult + Sync,
{
    optimod_par::par_map(threads, loops, |i, l| {
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| schedule(i, l))) {
            Ok(r) => CorpusRow::classify(l.name(), l.num_ops(), &r),
            Err(payload) => CorpusRow {
                name: l.name().to_string(),
                n_ops: l.num_ops(),
                kind: OutcomeKind::Crashed,
                ii: None,
                wall_time: start.elapsed(),
                detail: Some(panic_message(payload.as_ref())),
            },
        }
    })
}

/// Prints the per-loop outcome table plus the degraded-coverage summary
/// (scheduled = exact + degraded, per rung) that EXPERIMENTS.md records.
pub fn print_outcome_table(title: &str, rows: &[CorpusRow]) {
    println!("{title}");
    println!(
        "{:<28} {:>5} {:>18} {:>6} {:>9}  detail",
        "loop", "ops", "outcome", "II", "time"
    );
    for r in rows {
        println!(
            "{:<28} {:>5} {:>18} {:>6} {:>8.2}s  {}",
            r.name,
            r.n_ops,
            r.kind.to_string(),
            r.ii.map_or_else(|| "-".to_string(), |ii| ii.to_string()),
            r.wall_time.as_secs_f64(),
            r.detail.as_deref().unwrap_or("-"),
        );
    }
    let count = |pred: fn(OutcomeKind) -> bool| rows.iter().filter(|r| pred(r.kind)).count();
    let exact = count(|k| k == OutcomeKind::Exact);
    let stage = count(|k| k == OutcomeKind::Degraded(Provenance::StageIlp));
    let ims = count(|k| k == OutcomeKind::Degraded(Provenance::Ims));
    println!(
        "coverage: {}/{} scheduled ({exact} exact, {stage} stage-ilp, {ims} ims); \
         {} timed out, {} infeasible, {} invalid, {} failed, {} crashed",
        exact + stage + ims,
        rows.len(),
        count(|k| k == OutcomeKind::TimedOut),
        count(|k| k == OutcomeKind::Infeasible),
        count(|k| k == OutcomeKind::Invalid),
        count(|k| k == OutcomeKind::Failed),
        count(|k| k == OutcomeKind::Crashed),
    );
}

/// IMS (+ stage scheduling) outcomes for the heuristic experiments.
#[derive(Debug, Clone)]
pub struct HeuristicRecord {
    /// Loop name.
    pub name: String,
    /// IMS schedule.
    pub ims: Schedule,
    /// IMS schedule after the stage-scheduling register pass.
    pub staged: Schedule,
}

/// Runs IMS + stage scheduling over the corpus.
///
/// # Panics
///
/// Panics if IMS cannot schedule a loop at any `II` within its span, which
/// would indicate a corpus or heuristic bug.
pub fn run_heuristics(machine: &Machine, loops: &[Loop]) -> Vec<HeuristicRecord> {
    optimod_par::par_map(0, loops, |_, l| {
        let ims = ims_schedule(l, machine, &ImsConfig::default())
            .unwrap_or_else(|| panic!("IMS failed on {}", l.name()))
            .schedule;
        let staged = stage_schedule(l, machine, &ims);
        HeuristicRecord {
            name: l.name().to_string(),
            ims,
            staged,
        }
    })
}

/// The paper's per-measurement summary: min, frequency of the min, median,
/// average, max (Tables 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest observation.
    pub min: f64,
    /// Fraction of observations equal to the minimum.
    pub freq_at_min: f64,
    /// Median observation.
    pub median: f64,
    /// Mean observation.
    pub average: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample; returns `None` for an empty sample.
    pub fn from_values(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in summaries"));
        let min = v[0];
        let at_min = v.iter().filter(|&&x| x == min).count();
        Some(Summary {
            min,
            freq_at_min: at_min as f64 / v.len() as f64,
            median: v[v.len() / 2],
            average: v.iter().sum::<f64>() / v.len() as f64,
            max: *v.last().expect("non-empty"),
        })
    }

    /// One formatted table row in the paper's layout.
    pub fn row(&self, label: &str) -> String {
        format!(
            "{label:<24} {:>10.2} {:>7.1}% {:>10.2} {:>12.2} {:>12.2}",
            self.min,
            self.freq_at_min * 100.0,
            self.median,
            self.average,
            self.max
        )
    }
}

/// Header matching [`Summary::row`].
pub fn summary_header() -> String {
    format!(
        "{:<24} {:>10} {:>8} {:>10} {:>12} {:>12}",
        "Measurement", "min", "freq", "median", "average", "max"
    )
}

/// Prints the full Table-1/2-style block for one scheduler's records
/// (successfully scheduled loops only).
pub fn print_measurement_block(title: &str, records: &[LoopRecord]) {
    let ok: Vec<&LoopRecord> = records
        .iter()
        .filter(|r| r.result.status.scheduled())
        .collect();
    println!(
        "{title}: ({} loops scheduled of {})",
        ok.len(),
        records.len()
    );
    if ok.is_empty() {
        println!("  (nothing scheduled — raise OPTIMOD_BUDGET_MS)");
        return;
    }
    println!("{}", summary_header());
    type Extract = fn(&LoopRecord) -> f64;
    let series: [(&str, Extract); 6] = [
        ("Variables", |r| r.result.stats.variables as f64),
        ("Constraints", |r| r.result.stats.constraints as f64),
        ("Branch-and-bound nodes", |r| r.result.stats.bb_nodes as f64),
        ("Simplex iterations", |r| {
            r.result.stats.simplex_iterations as f64
        }),
        ("II", |r| r.result.ii.unwrap_or(0) as f64),
        ("N", |r| r.n_ops as f64),
    ];
    for (label, f) in series {
        let vals: Vec<f64> = ok.iter().map(|r| f(r)).collect();
        let s = Summary::from_values(&vals).expect("non-empty");
        println!("{}", s.row(label));
    }
}

/// Total solver wall time across records.
pub fn total_time(records: &[LoopRecord]) -> Duration {
    records.iter().map(|r| r.result.stats.wall_time).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let s = Summary::from_values(&[1.0, 1.0, 2.0, 10.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.freq_at_min, 0.5);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.average, 3.5);
        assert_eq!(s.max, 10.0);
        assert!(Summary::from_values(&[]).is_none());
    }

    #[test]
    fn env_defaults() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.corpus, CorpusSize::Small);
        assert_eq!(cfg.budget, Duration::from_millis(2000));
    }

    #[test]
    fn numeric_knobs_parse_or_are_ignored() {
        assert_eq!(parse_u64_knob("OPTIMOD_BUDGET_MS", Some("750")), Some(750));
        assert_eq!(parse_u64_knob("OPTIMOD_BUDGET_MS", Some("2s")), None);
        assert_eq!(parse_u64_knob("OPTIMOD_NODE_CAP", Some("")), None);
        assert_eq!(parse_u64_knob("OPTIMOD_NODE_CAP", None), None);
    }

    #[test]
    fn tiny_suite_runs_end_to_end() {
        let cfg = ExperimentConfig {
            corpus: CorpusSize::Small,
            budget: Duration::from_millis(300),
            node_cap: 5_000,
            threads: 2,
        };
        let machine = cfg.machine();
        let loops: Vec<_> = cfg.corpus_loops(&machine).into_iter().take(8).collect();
        let recs = cfg.run_suite(
            &machine,
            &loops,
            DepStyle::Structured,
            Objective::FirstFeasible,
        );
        assert_eq!(recs.len(), 8);
        assert!(recs.iter().any(|r| r.result.status.scheduled()));
        let heur = run_heuristics(&machine, &loops);
        assert_eq!(heur.len(), 8);
    }
}
