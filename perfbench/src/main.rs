//! End-to-end and per-layer benchmark of the optimod scheduling stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the traced replay with
//! `--trace 1`. See `perfbench/README.md` for the workloads and metrics.

mod corpus;
mod daemon;
mod host;
mod reference;
mod render;
mod select;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use optimod::LoopStatus;
use optimod_ddg::CORPUS_SEED;

use crate::corpus::{Inputs, LayerCounts, Settled};
use crate::host::Probe;
use crate::reference::{Expected, Reference};
use crate::select::{shuffled, Workload};
use crate::spans::Recorder;

/// Set-up repetitions before every pass; `setup_s` is the median of all.
pub const SETUP_REPS: usize = 25;

/// Where runs keep scratch files (daemon sockets and caches, span logs),
/// relative to the directory the benchmark runs in.
const SCRATCH_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    pin_reference: bool,
    list_excluded: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::MinregStructured,
        seed: 1,
        seconds: 10,
        trace: false,
        pin_reference: false,
        list_excluded: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin-reference" || flag == "--list-excluded" {
            args.pin_reference |= flag == "--pin-reference";
            args.list_excluded |= flag == "--list-excluded";
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    match workload {
        Some(w) => args.workload = w,
        None if args.pin_reference || args.list_excluded => {}
        None => return Err("--workload is required".to_string()),
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
                 | --pin-reference | --list-excluded",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The variable swaps the simplex engine under measurement without a
    // trace in the results; refuse rather than measure the wrong engine.
    if let Ok(v) = std::env::var("OPTIMOD_SIMPLEX") {
        eprintln!("perfbench: OPTIMOD_SIMPLEX={v} is set; unset it to measure the default engine");
        return ExitCode::from(2);
    }
    if args.pin_reference {
        return pin_reference();
    }
    if args.list_excluded {
        list_excluded();
        return ExitCode::SUCCESS;
    }
    println!(
        "# perfbench {} seed={} seconds={} trace={} engine={:?} solver_threads=1 \
         available_parallelism={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        optimod_ilp::SimplexEngine::from_env(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let scratch = PathBuf::from(SCRATCH_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(5);
    }
    let outcome = run(args.workload, &args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(out) => {
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The result line of a run.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    /// Extra condition for `correct` beyond `failed == 0` (the traced
    /// replay must reproduce the end-to-end calls).
    reproduced: bool,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.reproduced,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What every workload's timed passes produce.
pub struct EndToEnd {
    /// Set-up times, in seconds.
    pub setups: Vec<f64>,
    /// Pass wall times, in seconds.
    pub passes: Vec<f64>,
    /// Per-item latencies over every pass, in milliseconds.
    pub items_ms: Vec<f64>,
    /// Items proven optimal.
    pub optimal: u64,
    /// Items that failed.
    pub failed: u64,
}

impl EndToEnd {
    /// The end-to-end metrics, printing the sample counts behind them.
    pub fn metrics(&self) -> Result<Vec<Metric>, String> {
        let attempted = self.items_ms.len() as f64;
        let p50 = stats::percentile(&self.items_ms, 0.5)?;
        let p90 = stats::percentile(&self.items_ms, 0.9)?;
        println!(
            "# samples: {} set-ups, {} passes, {} items",
            self.setups.len(),
            self.passes.len(),
            self.items_ms.len()
        );
        Ok(vec![
            metric("setup_s", stats::median(&self.setups), "s"),
            metric("pass_s", stats::median(&self.passes), "s"),
            metric("item_ms_p50", p50, "ms"),
            metric("item_ms_p90", p90, "ms"),
            metric("optimal_frac", self.optimal as f64 / attempted, "ratio"),
            metric("ok_frac", 1.0 - self.failed as f64 / attempted, "ratio"),
            metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        ])
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Repeats passes until the next one would overrun `seconds` (at least
/// one), calling `pass(n)` for the `n`-th.
fn repeat_passes(
    seconds: u64,
    mut pass: impl FnMut(u64) -> Result<Duration, String>,
) -> Result<(), String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    for n in 0.. {
        let took = pass(n)?;
        if start.elapsed() + took > budget {
            break;
        }
    }
    Ok(())
}

/// Where a traced run writes its spans: kept after the run, one file per
/// workload and seed.
fn span_log(args: &Args) -> PathBuf {
    PathBuf::from(SCRATCH_DIR).join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ))
}

/// Times [`SETUP_REPS`] set-ups of `w` into `setups`, scaled to nominal
/// host speed by kernel samples taken between them, and returns the inputs
/// the last one built.
fn set_up(w: Workload, setups: &mut Vec<f64>) -> Inputs {
    let mut inputs = None;
    let mut probe = Probe::default();
    let mut raw = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let built = std::hint::black_box(corpus::inputs(w));
        raw.push(start.elapsed().as_secs_f64());
        inputs = Some(built);
        probe.sample();
    }
    let scale = probe.scale();
    setups.extend(raw.iter().map(|s| s * scale));
    inputs.expect("at least one set-up")
}

fn run(w: Workload, args: &Args, scratch: &std::path::Path) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let inputs = set_up(w, &mut setups);
    let sched = corpus::scheduler(w);
    let reference = Reference::pinned();
    println!(
        "# {} loops kept by the size rule (<= {}), {} excluded, {} pinned in the reference",
        inputs.loops.len(),
        w.size_limit(),
        optimod_ddg::CorpusSize::Medium.total() - inputs.loops.len(),
        inputs
            .loops
            .iter()
            .filter(|l| reference.get(l).is_some())
            .count()
    );

    let mut e2e = EndToEnd {
        setups,
        passes: Vec::new(),
        items_ms: Vec::new(),
        optimal: 0,
        failed: 0,
    };
    let check = |items: &[corpus::Item], scale: f64, e2e: &mut EndToEnd| {
        for item in items {
            e2e.items_ms.push(item.wall.as_secs_f64() * 1e3 * scale);
            if item.result.status == LoopStatus::Optimal {
                e2e.optimal += 1;
            }
            if let Some(why) = corpus::failure(&sched, &inputs, &reference, item) {
                eprintln!("perfbench: FAILED {why}");
                e2e.failed += 1;
            }
        }
    };
    if !args.trace {
        repeat_passes(args.seconds, |n| {
            // More set-ups before every later pass, so that `setup_s`
            // samples the whole run as `pass_s` does.
            if n > 0 {
                set_up(w, &mut e2e.setups);
            }
            let order = shuffled(inputs.loops.len(), args.seed.wrapping_add(n));
            let mut probe = Probe::default();
            probe.sample();
            let start = Instant::now();
            let items = corpus::timed_pass(&sched, &inputs, &order, &mut probe);
            let took = start.elapsed();
            probe.sample();
            let scale = probe.scale();
            println!(
                "# pass {n}: {:.4} s raw, kernel {:.1} us, scale {scale:.4}",
                took.as_secs_f64(),
                probe.kernel_us()
            );
            e2e.passes.push(took.as_secs_f64() * scale);
            check(&items, scale, &mut e2e);
            Ok(took)
        })?;
        return Ok(Outcome {
            attempted: e2e.items_ms.len() as u64,
            failed: e2e.failed,
            reproduced: true,
            metrics: e2e.metrics()?,
        });
    }

    // Traced run: each item's end-to-end call, then at once its
    // layer-by-layer replay, so that both see the same machine state and
    // the comparison measures tracing, not drift.
    let order = shuffled(inputs.loops.len(), args.seed);
    let mut rec = Recorder::default();
    let mut counts = LayerCounts::default();
    let mut mismatches = 0u64;
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut items = Vec::with_capacity(order.len());
    let mut probe = Probe::default();
    probe.sample();
    let cpu0 = stats::cpu_seconds();
    let wall0 = Instant::now();
    for (n, &index) in order.iter().enumerate() {
        probe.tick();
        let l = &inputs.loops[index];
        let start = Instant::now();
        let result = sched.schedule(l, &inputs.machine);
        let wall = start.elapsed();
        untraced += wall;
        let start = Instant::now();
        let replayed = corpus::replay(&sched, l, &inputs.machine, n as u32, &mut rec, &mut counts);
        traced += start.elapsed();
        let expected = Settled::of(&sched, l, &result);
        if replayed != expected {
            eprintln!(
                "perfbench: replay of {} diverged: {replayed:?} vs {expected:?}",
                l.name()
            );
            mismatches += 1;
        }
        items.push(corpus::Item {
            index,
            result,
            wall,
        });
    }
    let cpu_frac = (stats::cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64();
    // The traced run reports no end-to-end times, so nothing is scaled.
    check(&items, 1.0, &mut e2e);
    let parse_us = parse_times_us(&inputs);
    let ddg_ms = stats::median(&corpus_times_ms());
    // The replay's extra cold root solves are measurement, not tracing
    // overhead: leave them out of the comparison with the untraced pass.
    let overhead =
        (traced - counts.root_time.min(traced)).as_secs_f64() / untraced.as_secs_f64() - 1.0;
    println!("# replay: {} items, {mismatches} diverged", items.len());
    let mut attempted = items.len() as u64;
    let daemon_metrics = if w == Workload::NoobjStructured {
        let first_item = items.len() as u32;
        let d = daemon::measure(args.seed, scratch, &mut rec, first_item)?;
        attempted += d.attempted;
        e2e.failed += d.failed;
        d.metrics
    } else {
        daemon::absent_metrics()
    };
    rec.write_jsonl(&span_log(args))
        .map_err(|e| format!("writing spans: {e}"))?;
    let mut metrics = layer_metrics(&rec, &counts, overhead, ddg_ms, &parse_us);
    metrics.extend(daemon_metrics);
    metrics.push(metric("proc.cpu_frac", cpu_frac, "ratio"));
    metrics.push(metric("host.kernel_us", probe.kernel_us(), "us"));
    Ok(Outcome {
        attempted,
        failed: e2e.failed,
        reproduced: mismatches == 0,
        metrics,
    })
}

/// `textfmt::parse` time of each selected loop's rendered text, in µs.
fn parse_times_us(inputs: &Inputs) -> Vec<f64> {
    inputs
        .loops
        .iter()
        .map(|l| {
            let text = render::render(l, &inputs.machine);
            let start = Instant::now();
            let parsed = std::hint::black_box(optimod_ddg::textfmt::parse(&text));
            let us = start.elapsed().as_secs_f64() * 1e6;
            assert!(parsed.is_ok(), "rendered loop {} parses", l.name());
            us
        })
        .collect()
}

/// Corpus generation times (the `ddg` share of set-up), in ms.
fn corpus_times_ms() -> Vec<f64> {
    let machine = optimod_machine::cydra_like();
    (0..SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(select::corpus(&machine, CORPUS_SEED));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// The per-layer metrics of a traced replay.
pub fn layer_metrics(
    rec: &Recorder,
    c: &LayerCounts,
    overhead_frac: f64,
    ddg_ms: f64,
    parse_us: &[f64],
) -> Vec<Metric> {
    let selfs = rec.self_times();
    let ms = |name: &str| selfs.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3);
    let item_total_ms = rec.total("item").as_secs_f64() * 1e3;
    let root_ms = c.root_time.as_secs_f64() * 1e3;
    // The ladder's own time: everything the replay did except the extra
    // cold root solves, which the end-to-end call does not make.
    let ladder_ms = (item_total_ms - root_ms).max(f64::MIN_POSITIVE);
    let resolves = c.lp_solves.saturating_sub(c.ii_attempts);
    let bb_ms = ms("bb");
    vec![
        metric("ddg.corpus_ms", ddg_ms, "ms"),
        metric(
            "ddg.parse_us_p50",
            stats::percentile(parse_us, 0.5).unwrap_or(0.0),
            "us",
        ),
        metric("mii.ms", ms("mii"), "ms"),
        metric("formulation.ms", ms("formulation"), "ms"),
        metric("formulation.rows", c.rows as f64, "count"),
        metric("formulation.nonzeros", c.nonzeros as f64, "count"),
        metric("presolve.ms", ms("presolve"), "ms"),
        metric("presolve.binaries_fixed", c.binaries_fixed as f64, "count"),
        metric(
            "presolve.rows_eliminated",
            c.rows_eliminated as f64,
            "count",
        ),
        metric("root_lp.ms", root_ms, "ms"),
        metric("root_lp.iterations", c.root_iterations as f64, "count"),
        metric("root_lp.refactors", c.root_refactors as f64, "count"),
        metric(
            "root_lp.us_per_iteration",
            root_ms * 1e3 / c.root_iterations.max(1) as f64,
            "us",
        ),
        metric("root_lp.wall_share", root_ms / ladder_ms, "ratio"),
        metric("bb.ms", bb_ms, "ms"),
        metric("bb.nodes", c.bb_nodes as f64, "count"),
        metric("bb.lp_solves", c.lp_solves as f64, "count"),
        metric("bb.iterations", c.bb_iterations as f64, "count"),
        metric(
            "bb.warm_hit_frac",
            c.warm_starts as f64 / resolves.max(1) as f64,
            "ratio",
        ),
        metric("bb.ftran_ms", c.ftran.as_secs_f64() * 1e3, "ms"),
        metric("bb.btran_ms", c.btran.as_secs_f64() * 1e3, "ms"),
        metric(
            "bb.node_cap_frac",
            c.node_capped as f64 / c.items.max(1) as f64,
            "ratio",
        ),
        metric(
            "bb.resolve_wall_share",
            ((bb_ms - root_ms) / ladder_ms).max(0.0),
            "ratio",
        ),
        metric("ladder.ii_attempts", c.ii_attempts as f64, "count"),
        metric(
            "ladder.infeasible_ii_ms",
            c.infeasible_ii.as_secs_f64() * 1e3,
            "ms",
        ),
        metric("extract.ms", ms("extract"), "ms"),
        metric(
            "ladder.unaccounted_frac",
            ms("item") / item_total_ms.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        metric("certify.ms", ms("certify"), "ms"),
        metric("trace.overhead_frac", overhead_frac, "ratio"),
    ]
}

/// Prints the loops the size rule leaves out, by size band, as Markdown:
/// a loop in a band is excluded from every workload whose limit lies below
/// the band.
fn list_excluded() {
    let machine = optimod_machine::cydra_like();
    let mut loops: Vec<(u64, String)> = select::corpus(&machine, CORPUS_SEED)
        .iter()
        .map(|l| (select::size(l, &machine), l.name().to_string()))
        .collect();
    loops.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut limits: Vec<u64> = Workload::ALL.iter().map(|w| w.size_limit()).collect();
    limits.push(daemon::SIZE_LIMIT);
    limits.sort_unstable_by(|a, b| b.cmp(a));
    limits.dedup();
    let mut upper = u64::MAX;
    for limit in limits {
        let band: Vec<String> = loops
            .iter()
            .filter(|(size, _)| *size > limit && *size <= upper)
            .map(|(size, name)| format!("`{name}` {size}"))
            .collect();
        let range = if upper == u64::MAX {
            format!("size > {limit}")
        } else {
            format!("{limit} < size <= {upper}")
        };
        let mut kept: Vec<&str> = Workload::ALL
            .iter()
            .filter(|w| w.size_limit() >= upper)
            .map(|w| w.name())
            .collect();
        if daemon::SIZE_LIMIT >= upper {
            kept.push("the daemon requests");
        }
        let kept = if kept.is_empty() {
            "no workload".to_string()
        } else {
            kept.join(", ")
        };
        println!(
            "- **{range}** ({} loops, kept by {kept}): {}\n",
            band.len(),
            band.join(", ")
        );
        upper = limit;
    }
}

/// Runs both MinReg formulations over the MinReg workloads' loops (which
/// include every daemon loop) and prints the reference table: every loop
/// both prove optimal, provided they agree. A disagreement is a bug; it is
/// reported and nothing is printed.
fn pin_reference() -> ExitCode {
    let corpus::Inputs { machine, loops } = corpus::inputs(Workload::MinregTraditional);
    let trad = corpus::scheduler(Workload::MinregTraditional);
    let structured = corpus::scheduler(Workload::MinregStructured);
    let mut rows = vec![reference::HEADER.to_string()];
    let mut disagreements = 0;
    for l in &loops {
        let a = trad.schedule(l, &machine);
        let b = structured.schedule(l, &machine);
        if a.status != LoopStatus::Optimal || b.status != LoopStatus::Optimal {
            continue;
        }
        let (ea, eb) = (Settled::of(&trad, l, &a), Settled::of(&structured, l, &b));
        if (ea.ii, ea.objective) != (eb.ii, eb.objective) {
            eprintln!(
                "perfbench: formulations disagree on {}: traditional {:?}/{:?}, structured {:?}/{:?}",
                l.name(),
                ea.ii,
                ea.objective,
                eb.ii,
                eb.objective
            );
            disagreements += 1;
            continue;
        }
        if let (Some(ii), Some(max_live)) = (ea.ii, ea.objective) {
            rows.push(Reference::render_row(l, Expected { ii, max_live }));
        }
    }
    eprintln!(
        "perfbench: {} of {} loops pinned, {disagreements} disagreement(s)",
        rows.len() - 1,
        loops.len()
    );
    if disagreements > 0 {
        return ExitCode::from(1);
    }
    println!("{}", rows.join("\n"));
    ExitCode::SUCCESS
}
