//! `optimod` — command-line optimal modulo scheduler.
//!
//! ```text
//! optimod <loop-file> [options]
//! optimod lint <loop-file> [--json] [--style ...] [--objective ...]
//! optimod explain <loop-file> [--ii K] [--json] [options]
//! optimod client <loop-file> --socket PATH [options]
//! optimod client --socket PATH --ping | --stats | --shutdown
//!
//! The `client` subcommand sends the loop to a running `optimodd` daemon
//! over its Unix socket instead of solving in-process; see the daemon
//! options below.
//!
//! The `lint` subcommand runs the static analyzer only: DDG lints
//! (redundant edges, dead code, SCC RecMII attribution, resource
//! pressure) plus the ILP presolve findings on the model built at the
//! MII, without solving. `--json` prints machine-readable findings.
//!
//! The `explain` subcommand answers *why* a `(loop, machine, II)` triple
//! has no modulo schedule: it extracts an assumption-based unsat core over
//! the source constraint groups (dependence edges, MRT resource rows,
//! presolve windows), minimizes and independently certifies it, and prints
//! `OM200`-series diagnostics plus a replayable minimized repro
//! (`optimod-infeasible.loop`). With `--ii K` the stated II is explained
//! directly; without it the loop is scheduled first and the last refuted
//! II (`II* - 1`) is explained. Error-severity findings exit 7, like
//! `lint`. The cores have no register-pressure term, so `explain` refuses
//! `--registers` (exit 2). On the ordinary solve path, `--explain`
//! attaches the same diagnostics when the whole II span proves
//! infeasible; when a `--registers` cap is what refuted it, the engine
//! finds the II satisfiable and attaches nothing.
//!
//! options:
//!   --objective <noobj|minreg|minbuff|minlife|minlen>   (default minreg)
//!   --style <structured|traditional>                    (default structured)
//!   --budget-ms <n>       per-loop solver budget        (default 10000)
//!   --registers <n>       hard register-file cap
//!   --max-ii-span <n>     how far past the MII to escalate II before
//!                         declaring the loop infeasible (default 64)
//!   --threads <n>         branch-and-bound worker threads
//!                         (default: OPTIMOD_THREADS, else all cores;
//!                         1 = one deterministic worker)
//!   --portfolio           ask the CDCL SAT backend first at each
//!                         tentative II, then the ILP unless SAT certified
//!                         a schedule (needs --objective noobj without
//!                         --registers, else exit 2; certified
//!                         contradictions between the backends fail the
//!                         run with a minimized repro written to
//!                         optimod-disagreement.loop)
//!   --fallback            degrade to stage-ILP / IMS when the exact
//!                         solver exhausts its budget slice
//!   --expand              also print the MVE-expanded pipelined loop
//!   --lp                  dump the ILP in CPLEX LP format instead of solving
//!   --trace <path>        write the structured solve trace as JSON lines
//!   --report              print the solver-effort counters, then the
//!                         trace report (per-phase timing, node outcomes,
//!                         histograms, warm starts per phase, II attempts)
//!   --report-json         print both as one machine-readable JSON object,
//!                         {"version":1,"stats":{...},"report":{...}}
//!   --certify             re-run the exact-arithmetic certifier on the
//!                         result from outside the scheduler and print the
//!                         certificate (refusal exits 6)
//!   --chaos <seed>        derive a deterministic fault-injection plan from
//!                         the seed and arm the solver with it (replays a
//!                         chaos-sweep cell)
//!   --analyze             print the analyzer's findings before scheduling
//!   --no-presolve         disable the analyzer's certified presolve
//!   --explain             on an infeasible result, print certified unsat-
//!                         core diagnostics and write the minimized repro
//!                         to optimod-infeasible.loop
//!   --ii <k>              with `explain`: the II to explain (default:
//!                         schedule first, then explain II* - 1)
//!   --json                with `lint`/`explain`: JSON findings instead of
//!                         text
//!
//! client options:
//!   --socket <path>       daemon Unix socket (required)
//!   --deadline-ms <n>     per-request deadline (0 = daemon default)
//!   --no-cache            bypass the daemon's certified-schedule cache
//!   --retries <n>         idempotent retries after the first attempt
//!                         (default 4; capped exponential backoff + jitter)
//!   --ping                liveness probe instead of a solve
//!   --stats               print the daemon's operational snapshot
//!   --shutdown            ask the daemon to drain and exit
//! ```
//!
//! The loop-file grammar is documented in the `parse` module (one `op` /
//! `flow` / `dep` directive per line plus a `machine` selection).
//!
//! Exit codes: 0 success, 2 usage error, 3 parse/validation error,
//! 4 scheduling failure, 5 I/O error, 6 certification failure,
//! 7 error-severity analyzer finding, 8 daemon/transport failure.

use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use optimod::{
    build_model, certify, codegen, compute_mii, Claim, DepStyle, ExplainOutcome, FallbackConfig,
    FormulationConfig, LoopStatus, Objective, OptimalScheduler, PresolveOptions, Provenance,
    SchedulerConfig, MAX_SCHEDULABLE_II,
};
use optimod_analyze::{lint_loop, max_severity, Finding, LintCode, Severity};
use optimod_daemon::client as daemon_client;
use optimod_daemon::{
    ClientConfig as DaemonClientConfig, ClientError, ErrorCode, Request as DaemonRequest,
};
use optimod_ddg::{textfmt, Loop};
use optimod_ilp::FaultPlan;
use optimod_machine::Machine;
use optimod_trace::{JsonlSink, MemorySink, TeeSink, Trace, TraceSink};

/// A failure with its exit code, so scripts can tell a bad loop file (3)
/// from a loop the solver could not schedule (4) from a schedule the
/// certifier refused (6).
enum Failure {
    Usage(String),
    Parse(String),
    Scheduling(String),
    Io(String),
    Certification(String),
    Analysis(String),
    Daemon(String),
}

impl Failure {
    fn exit_code(&self) -> ExitCode {
        ExitCode::from(match self {
            Failure::Usage(_) => 2,
            Failure::Parse(_) => 3,
            Failure::Scheduling(_) => 4,
            Failure::Io(_) => 5,
            Failure::Certification(_) => 6,
            Failure::Analysis(_) => 7,
            Failure::Daemon(_) => 8,
        })
    }

    fn message(&self) -> &str {
        match self {
            Failure::Usage(m)
            | Failure::Parse(m)
            | Failure::Scheduling(m)
            | Failure::Io(m)
            | Failure::Certification(m)
            | Failure::Analysis(m)
            | Failure::Daemon(m) => m,
        }
    }
}

struct Options {
    file: String,
    objective: Objective,
    style: DepStyle,
    budget: Duration,
    registers: Option<u32>,
    max_ii_span: Option<u32>,
    threads: u32,
    portfolio: bool,
    fallback: bool,
    expand: bool,
    lp: bool,
    trace: Option<String>,
    report: bool,
    report_json: bool,
    certify: bool,
    chaos: Option<u64>,
    lint: bool,
    explain_cmd: bool,
    explain: bool,
    ii: Option<u32>,
    json: bool,
    analyze: bool,
    presolve: bool,
    client: bool,
    socket: Option<String>,
    deadline_ms: u64,
    no_cache: bool,
    retries: u32,
    ping: bool,
    stats: bool,
    shutdown: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        file: String::new(),
        objective: Objective::MinMaxLive,
        style: DepStyle::Structured,
        budget: Duration::from_secs(10),
        registers: None,
        max_ii_span: None,
        threads: 0,
        portfolio: false,
        fallback: false,
        expand: false,
        lp: false,
        trace: None,
        report: false,
        report_json: false,
        certify: false,
        chaos: None,
        lint: false,
        explain_cmd: false,
        explain: false,
        ii: None,
        json: false,
        analyze: false,
        presolve: true,
        client: false,
        socket: None,
        deadline_ms: 0,
        no_cache: false,
        retries: 4,
        ping: false,
        stats: false,
        shutdown: false,
    };
    let mut first = true;
    while let Some(a) = args.next() {
        let was_first = std::mem::take(&mut first);
        match a.as_str() {
            "lint" if was_first => opts.lint = true,
            "explain" if was_first => opts.explain_cmd = true,
            "client" if was_first => opts.client = true,
            "--socket" => opts.socket = Some(args.next().ok_or("--socket needs a path")?),
            "--deadline-ms" => {
                let v = args.next().ok_or("--deadline-ms needs a value")?;
                opts.deadline_ms = v.parse().map_err(|_| "--deadline-ms must be an integer")?;
            }
            "--no-cache" => opts.no_cache = true,
            "--retries" => {
                let v = args.next().ok_or("--retries needs a value")?;
                opts.retries = v.parse().map_err(|_| "--retries must be an integer")?;
            }
            "--ping" => opts.ping = true,
            "--stats" => opts.stats = true,
            "--shutdown" => opts.shutdown = true,
            "--objective" => {
                let v = args.next().ok_or("--objective needs a value")?;
                opts.objective = match v.as_str() {
                    "noobj" => Objective::FirstFeasible,
                    "minreg" => Objective::MinMaxLive,
                    "minbuff" => Objective::MinBuffers,
                    "minlife" => Objective::MinCumLifetime,
                    "minlen" => Objective::MinSchedLength,
                    other => return Err(format!("unknown objective '{other}'")),
                };
            }
            "--style" => {
                let v = args.next().ok_or("--style needs a value")?;
                opts.style = match v.as_str() {
                    "structured" => DepStyle::Structured,
                    "traditional" => DepStyle::Traditional,
                    other => return Err(format!("unknown style '{other}'")),
                };
            }
            "--budget-ms" => {
                let v = args.next().ok_or("--budget-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| "--budget-ms must be an integer")?;
                opts.budget = Duration::from_millis(ms);
            }
            "--registers" => {
                let v = args.next().ok_or("--registers needs a value")?;
                opts.registers = Some(v.parse().map_err(|_| "--registers must be an integer")?);
            }
            "--max-ii-span" => {
                let v = args.next().ok_or("--max-ii-span needs a value")?;
                opts.max_ii_span = Some(v.parse().map_err(|_| "--max-ii-span must be an integer")?);
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                opts.threads = v.parse().map_err(|_| "--threads must be an integer")?;
            }
            "--portfolio" => opts.portfolio = true,
            "--fallback" => opts.fallback = true,
            "--expand" => opts.expand = true,
            "--lp" => opts.lp = true,
            "--trace" => opts.trace = Some(args.next().ok_or("--trace needs a path")?),
            "--report" => opts.report = true,
            "--report-json" => opts.report_json = true,
            "--certify" => opts.certify = true,
            "--chaos" => {
                let v = args.next().ok_or("--chaos needs a seed")?;
                opts.chaos = Some(v.parse().map_err(|_| "--chaos must be an integer seed")?);
            }
            "--analyze" => opts.analyze = true,
            "--no-presolve" => opts.presolve = false,
            "--explain" => opts.explain = true,
            "--ii" => {
                let v = args.next().ok_or("--ii needs a value")?;
                opts.ii = Some(v.parse().map_err(|_| "--ii must be a positive integer")?);
            }
            "--json" => opts.json = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if opts.file.is_empty() && !other.starts_with('-') => {
                opts.file = other.to_string();
            }
            other => return Err(format!("unexpected argument '{other}'\n{USAGE}")),
        }
    }
    if opts.file.is_empty() && !(opts.client && (opts.ping || opts.stats || opts.shutdown)) {
        return Err(USAGE.to_string());
    }
    if opts.portfolio && (opts.objective != Objective::FirstFeasible || opts.registers.is_some()) {
        return Err(
            "--portfolio needs --objective noobj without --registers: the SAT backend's CNF \
             has neither an objective nor a register-pressure (MaxLive) term, so it cannot \
             answer any other question"
                .into(),
        );
    }
    Ok(opts)
}

const USAGE: &str = "usage: optimod <loop-file> [--objective noobj|minreg|minbuff|minlife|minlen] \
[--style structured|traditional] [--budget-ms N] [--registers N] [--max-ii-span N] [--threads N] \
[--portfolio] [--fallback] [--expand] [--lp] [--trace PATH] [--report] [--report-json] \
[--certify] [--chaos SEED] [--analyze] [--no-presolve] [--explain]\n\
       optimod lint <loop-file> [--json] [--style S] [--objective O]\n\
       optimod explain <loop-file> [--ii K] [--json] [--style S] [--budget-ms N] [--threads N] \
[--no-presolve]\n\
       optimod client <loop-file> --socket PATH [--objective O] [--style S] [--deadline-ms N] \
[--registers N] [--threads N] [--fallback] [--no-cache] [--retries N] [--certify]\n\
       optimod client --socket PATH --ping | --stats | --shutdown\n\
exit codes: 0 success, 2 usage, 3 parse/validation, 4 scheduling, 5 I/O, 6 certification, \
7 error-severity finding, 8 daemon/transport";

/// The formulation the CLI's model dump and analyzer passes build: the
/// scheduler's default schedule-length slack, the requested style and cap.
fn formulation(opts: &Options, objective: Objective) -> FormulationConfig {
    FormulationConfig {
        dep_style: opts.style,
        objective,
        sched_len_slack: SchedulerConfig::default().sched_len_slack,
        max_live_limit: opts.registers,
    }
}

/// Runs both analyzer levels: the DDG lints, then — when the loop is
/// valid and its MII is formulatable — the ILP presolve findings on a
/// clone of the model built at the MII (the lint path never mutates
/// anything the scheduler will later solve).
fn analyze_findings(l: &Loop, machine: &Machine, opts: &Options) -> Vec<Finding> {
    let mut findings = lint_loop(l, machine);
    if max_severity(&findings) == Some(Severity::Error) {
        return findings; // invalid loop or MII overflow: no model to presolve
    }
    let mii = compute_mii(l, machine);
    if mii.value() > MAX_SCHEDULABLE_II {
        return findings;
    }
    if let Some(built) = build_model(l, machine, mii.value(), &formulation(opts, opts.objective)) {
        let mut model = built.model.clone();
        let popts = PresolveOptions {
            collect_findings: true,
        };
        let summary = optimod_analyze::presolve(&mut model, l, &built.analyzer_context(), &popts);
        findings.extend(summary.findings);
    }
    findings
}

fn print_findings(findings: &[Finding], json: bool) {
    if json {
        println!("[");
        for (i, f) in findings.iter().enumerate() {
            let sep = if i + 1 < findings.len() { "," } else { "" };
            println!("  {}{sep}", f.to_json());
        }
        println!("]");
        return;
    }
    if findings.is_empty() {
        println!("no findings");
        return;
    }
    for f in findings {
        println!("{f}");
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("{}", f.message());
            f.exit_code()
        }
    }
}

/// The `client` subcommand: ship the loop file to a running `optimodd`
/// over its Unix socket and print the reply. Retries ride an idempotent
/// request id, so a retried solve is never run twice. `--certify` re-runs
/// the exact-arithmetic certifier locally on the returned schedule — the
/// client does not have to trust the daemon (or the daemon's cache).
fn run_client(opts: &Options) -> Result<(), Failure> {
    let socket = opts
        .socket
        .as_deref()
        .ok_or_else(|| Failure::Usage(format!("client needs --socket\n{USAGE}")))?;

    if opts.ping {
        return match daemon_client::ping(std::path::Path::new(socket)) {
            Ok(brownout) => {
                println!(
                    "pong from {socket}{}",
                    if brownout {
                        " (brownout: degraded mode)"
                    } else {
                        ""
                    }
                );
                Ok(())
            }
            Err(e) => Err(Failure::Daemon(format!("ping failed: {e}"))),
        };
    }
    if opts.stats {
        return match daemon_client::stats(std::path::Path::new(socket)) {
            Ok(st) => {
                println!(
                    "daemon status: brownout={} queue={} in-flight={} sheds={} \
                     brownout-served={} recovered-intents={} journal-pending={}",
                    st.brownout,
                    st.queue_len,
                    st.in_flight,
                    st.sheds,
                    st.brownout_served,
                    st.recovered_intents,
                    st.journal_pending,
                );
                if let Some(c) = st.cache {
                    println!(
                        "cache: {} entries / {} bytes, {} hits, {} misses, {} stores, \
                         {} evicted, {} quarantined, {} tmp swept, {} quarantine rotated",
                        c.entries,
                        c.bytes,
                        c.hits,
                        c.misses,
                        c.stores,
                        c.evicted,
                        c.quarantined,
                        c.swept_tmp,
                        c.quarantine_rotated,
                    );
                }
                Ok(())
            }
            Err(e) => Err(Failure::Daemon(format!("stats failed: {e}"))),
        };
    }
    if opts.shutdown {
        return match daemon_client::shutdown(std::path::Path::new(socket)) {
            Ok(()) => {
                println!("shutdown acknowledged by {socket}");
                Ok(())
            }
            Err(e) => Err(Failure::Daemon(format!("shutdown failed: {e}"))),
        };
    }

    let text = std::fs::read_to_string(&opts.file)
        .map_err(|e| Failure::Io(format!("cannot read {}: {e}", opts.file)))?;
    // Parse locally first: a malformed file is exit 3 here, same as the
    // offline path, without a round-trip to the daemon.
    let parsed = textfmt::parse(&text).map_err(Failure::Parse)?;
    let (l, machine) = (parsed.l, parsed.machine);

    let mut request = DaemonRequest::new(text);
    request.deadline_ms = opts.deadline_ms;
    request.use_fallback = opts.fallback;
    request.use_cache = !opts.no_cache;
    request.objective = opts.objective;
    request.dep_style = opts.style;
    request.register_limit = opts.registers;
    request.threads = opts.threads;

    let mut ccfg = DaemonClientConfig::new(socket);
    ccfg.retries = opts.retries;

    let reply = daemon_client::solve(&ccfg, request).map_err(|e| match &e {
        ClientError::Daemon { reply: err, .. } => {
            let msg = format!("daemon refused: {e}");
            match err.code {
                ErrorCode::Parse | ErrorCode::InvalidLoop => Failure::Parse(msg),
                ErrorCode::Timeout | ErrorCode::Infeasible | ErrorCode::Failed => {
                    Failure::Scheduling(msg)
                }
                ErrorCode::Certification => Failure::Certification(msg),
                ErrorCode::Overloaded | ErrorCode::ShuttingDown | ErrorCode::Internal => {
                    Failure::Daemon(msg)
                }
            }
        }
        ClientError::Transport { .. } => Failure::Daemon(format!("no reply from daemon: {e}")),
    })?;

    println!(
        "daemon reply: II {} ({}{}), {} ops on '{}', {} b&b nodes, {} simplex iterations, {} us",
        reply.ii,
        reply.provenance,
        if reply.cache_hit {
            ", certified cache hit"
        } else if reply.optimal {
            ", optimal"
        } else {
            ", feasible"
        },
        reply.times.len(),
        machine.name(),
        reply.bb_nodes,
        reply.simplex_iterations,
        reply.wall_us,
    );
    if let Some(obj) = reply.objective {
        println!("objective: {obj} (exact)");
    }
    if reply.times.len() != l.num_ops() {
        return Err(Failure::Daemon(format!(
            "daemon returned {} times for {} operations",
            reply.times.len(),
            l.num_ops()
        )));
    }
    for (i, id) in l.op_ids().enumerate() {
        let t = reply.times[i];
        println!(
            "  {:>8}  t={:<4} row={} stage={}",
            l.op(id).name,
            t,
            t.rem_euclid(reply.ii as i64),
            t.div_euclid(reply.ii as i64),
        );
    }

    if opts.certify {
        // Trust nothing: rebuild the claim from the reply and certify it
        // locally against the locally parsed loop and machine.
        let schedule = optimod::Schedule::new(reply.ii, reply.times.clone());
        let exact = !reply.provenance.degraded();
        let mut cfg = SchedulerConfig::new(opts.style, opts.objective);
        cfg.register_limit = opts.registers;
        let sched = OptimalScheduler::new(cfg);
        let claim = Claim {
            graph: &l,
            machine: &machine,
            ii: reply.ii,
            times: &reply.times,
            claimed_optimal: exact && reply.optimal,
            claimed_objective: if exact {
                reply.objective.map(|o| o as f64)
            } else {
                None
            },
            exact_objective: if exact {
                sched.exact_objective(&l, &schedule)
            } else {
                None
            },
            claimed_bound: None,
        };
        let cert = certify(&claim)
            .map_err(|e| Failure::Certification(format!("certificate refused: {e}")))?;
        println!(
            "certificate: II {} >= MinII {}; {} dependence edges checked; {} resource-row \
             slots checked{}",
            cert.ii,
            cert.min_ii,
            cert.edges_checked,
            cert.resource_rows_checked,
            cert.objective
                .map_or_else(String::new, |o| format!("; objective {o} exact")),
        );
    }
    Ok(())
}

/// A `SchedulerConfig` for the feasibility-only questions the explain
/// paths ask (the engine has no secondary objective to discuss).
fn explain_scheduler_config(opts: &Options) -> SchedulerConfig {
    let mut cfg =
        SchedulerConfig::new(opts.style, Objective::FirstFeasible).with_time_limit(opts.budget);
    cfg.presolve = opts.presolve;
    cfg.limits.threads = opts.threads;
    if let Some(span) = opts.max_ii_span {
        cfg.max_ii_span = span;
    }
    cfg
}

/// Prints an explanation's diagnostics, cross-links the analyzer's OM104
/// conflict cliques against the core, and writes the replayable repro.
/// Returns the findings that were printed.
fn report_explanation(
    l: &Loop,
    machine: &Machine,
    opts: &Options,
    ex: &optimod::Explanation,
) -> Result<Vec<Finding>, Failure> {
    let mut findings: Vec<Finding> = ex.findings.clone();
    // Cross-link rather than duplicate: an OM104 clique that *is* an
    // over-subscribed core row becomes a pointer to its OM201 finding.
    let fcfg = formulation(opts, Objective::FirstFeasible);
    if let Some(built) = build_model(l, machine, ex.ii, &fcfg) {
        let mut model = built.model.clone();
        let popts = PresolveOptions {
            collect_findings: true,
        };
        let summary = optimod_analyze::presolve(&mut model, l, &built.analyzer_context(), &popts);
        let mut cliques: Vec<Finding> = summary
            .findings
            .into_iter()
            .filter(|f| f.code == LintCode::ConflictClique)
            .collect();
        optimod_analyze::cross_link_conflicts(&mut cliques, &model, ex);
        findings.extend(cliques);
    }
    print_findings(&findings, opts.json);
    if !opts.json {
        println!(
            "core: {} raw group(s) -> {} minimized, certified={}",
            ex.raw_core_size,
            ex.core.len(),
            ex.certified
        );
    }
    if let Some(repro) = &ex.repro {
        let path = "optimod-infeasible.loop";
        std::fs::write(path, repro)
            .map_err(|e| Failure::Io(format!("cannot write {path}: {e}")))?;
        if !opts.json {
            println!("replayable repro written to {path}");
        }
    }
    Ok(findings)
}

/// The `explain` subcommand: certified source-level diagnostics for an
/// infeasible `(loop, machine, II)` triple. With `--ii K` the triple is
/// explained directly; otherwise the loop is scheduled first and the last
/// refuted II (`II* - 1`) is explained — the tightest "why not one better"
/// question. Error-severity findings exit 7, like `lint`.
fn run_explain(opts: &Options, l: &Loop, machine: &Machine) -> Result<(), Failure> {
    if opts.registers.is_some() {
        return Err(Failure::Usage(
            "explain does not take --registers: its unsat cores are over dependence edges and \
             MRT rows only, with no register-pressure (MaxLive) term, so it cannot tell \
             whether a register cap is what makes an II infeasible"
                .into(),
        ));
    }
    let cfg = explain_scheduler_config(opts);
    let ii = match opts.ii {
        Some(0) => return Err(Failure::Usage("--ii must be at least 1".into())),
        Some(k) => k,
        None => {
            let res = OptimalScheduler::new(cfg.clone()).schedule(l, machine);
            let Some(star) = res.ii else {
                return Err(Failure::Scheduling(format!(
                    "cannot pick an II to explain: scheduling ended with status {:?} \
                     (pass --ii K to explain a specific II)",
                    res.status
                )));
            };
            if star == 1 {
                println!("II* = 1: the loop schedules at the floor; nothing to explain");
                return Ok(());
            }
            println!(
                "II* = {star}; explaining the last refuted II = {}",
                star - 1
            );
            star - 1
        }
    };
    let ex = match optimod::explain_at(l, machine, ii, &cfg, &optimod::explain_options(&cfg)) {
        ExplainOutcome::Satisfiable => {
            println!("II = {ii} is feasible: nothing to explain");
            return Ok(());
        }
        ExplainOutcome::Budget => {
            return Err(Failure::Scheduling(format!(
                "explanation budget exhausted before a verdict at II = {ii}"
            )))
        }
        ExplainOutcome::Explained(ex) => ex,
    };
    let findings = report_explanation(l, machine, opts, &ex)?;
    if findings.iter().any(|f| f.severity == Severity::Error) {
        return Err(Failure::Analysis(format!(
            "loop is infeasible at II = {ii}: {} certified core group(s)",
            ex.core.len()
        )));
    }
    Ok(())
}

fn run() -> Result<(), Failure> {
    let opts = parse_args().map_err(Failure::Usage)?;
    if opts.client {
        return run_client(&opts);
    }
    let text = std::fs::read_to_string(&opts.file)
        .map_err(|e| Failure::Io(format!("cannot read {}: {e}", opts.file)))?;
    let parsed = textfmt::parse(&text).map_err(Failure::Parse)?;
    let (l, machine) = (parsed.l, parsed.machine);

    if opts.explain_cmd {
        return run_explain(&opts, &l, &machine);
    }

    if opts.lint || opts.analyze {
        let findings = analyze_findings(&l, &machine, &opts);
        print_findings(&findings, opts.json);
        let errors = findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count();
        if errors > 0 {
            return Err(Failure::Analysis(format!(
                "{errors} error-severity finding(s)"
            )));
        }
        if opts.lint {
            return Ok(());
        }
        println!();
    }

    let mii = compute_mii(&l, &machine);
    println!(
        "loop: {} operations, {} edges, {} registers on '{}'",
        l.num_ops(),
        l.edges().len(),
        l.vregs().len(),
        machine.name()
    );
    println!(
        "ResMII = {}, RecMII = {}, MII = {}",
        mii.res_mii,
        mii.rec_mii,
        mii.value()
    );

    if opts.lp {
        let cfg = formulation(&opts, opts.objective);
        let built = build_model(&l, &machine, mii.value(), &cfg).ok_or_else(|| {
            Failure::Scheduling("MII below the recurrence bound — no model".into())
        })?;
        print!("{}", optimod_ilp::lp_format(&built.model));
        return Ok(());
    }

    let mut cfg = SchedulerConfig::new(opts.style, opts.objective).with_time_limit(opts.budget);
    cfg.register_limit = opts.registers;
    cfg.presolve = opts.presolve;
    cfg.limits.threads = opts.threads;
    cfg.portfolio = opts.portfolio;
    cfg.explain = opts.explain;
    if let Some(span) = opts.max_ii_span {
        cfg.max_ii_span = span;
    }
    if opts.fallback {
        cfg.fallback = FallbackConfig::enabled();
    }
    if let Some(seed) = opts.chaos {
        // Portfolio runs draw from the portfolio fault pool (which can hit
        // the SAT backend's sites); plain runs replay the solver-only pool.
        let plan = if opts.portfolio {
            FaultPlan::portfolio_from_seed(seed)
        } else {
            FaultPlan::from_seed(seed)
        };
        println!("chaos: {}", plan.describe());
        cfg.limits.fault = plan;
    }

    // Observability: --report buffers events in memory for the end-of-run
    // summary; --trace streams them to disk as JSON lines; both together
    // tee one stream into both sinks.
    let memory = (opts.report || opts.report_json).then(|| Arc::new(MemorySink::default()));
    let jsonl = match &opts.trace {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| Failure::Io(format!("cannot create {path}: {e}")))?;
            Some(Arc::new(JsonlSink::new(BufWriter::new(file))))
        }
        None => None,
    };
    let sink: Option<Arc<dyn TraceSink>> = match (&memory, &jsonl) {
        (Some(m), Some(j)) => Some(Arc::new(TeeSink(m.clone(), j.clone()))),
        (Some(m), None) => Some(m.clone()),
        (None, Some(j)) => Some(j.clone()),
        (None, None) => None,
    };
    if let Some(sink) = sink {
        cfg.limits.trace = Trace::new(sink);
    }

    let sched = OptimalScheduler::new(cfg);
    let result = sched.schedule(&l, &machine);

    if let Some(j) = &jsonl {
        j.flush()
            .map_err(|e| Failure::Io(format!("cannot flush trace: {e}")))?;
    }
    if let Some(m) = &memory {
        let report = m.report();
        if opts.report {
            println!("\n--- solve report ---");
            print!("{}{}", result.stats.render(), report.render());
        }
        if opts.report_json {
            // The one place the versioned JSON is composed: the solver's
            // effort counters and the trace-only sections side by side.
            println!(
                "{{\"version\":1,\"stats\":{},\"report\":{}}}",
                result.stats.to_json(),
                report.to_json()
            );
        }
    }
    if let Some(optimod::ScheduleError::BackendDisagreement { ii, detail, repro }) = &result.error {
        // The differential oracle fired: dump the minimized repro next to
        // the user and fail with the certification exit code — one backend
        // is provably wrong, so no schedule can be trusted.
        let path = "optimod-disagreement.loop";
        std::fs::write(path, repro)
            .map_err(|e| Failure::Io(format!("cannot write {path}: {e}")))?;
        return Err(Failure::Certification(format!(
            "cross-backend disagreement at II {ii}: {detail}; minimized repro written to {path}"
        )));
    }
    if let Some(e) = &result.error {
        eprintln!("warning: {e}");
    }
    let Some(schedule) = &result.schedule else {
        if let Some(ex) = &result.explanation {
            println!("\ninfeasibility explanation (II = {}):", ex.ii);
            report_explanation(&l, &machine, &opts, ex)?;
        }
        return Err(Failure::Scheduling(format!(
            "no schedule found (status {:?}; {} nodes, {} simplex iterations){}",
            result.status,
            result.stats.bb_nodes,
            result.stats.simplex_iterations,
            if opts.fallback {
                ""
            } else {
                " — consider --fallback for a heuristic schedule"
            }
        )));
    };
    let sat_effort = if result.stats.sat_conflicts > 0 || result.stats.sat_decisions > 0 {
        format!(
            ", {} sat decisions, {} sat conflicts",
            result.stats.sat_decisions, result.stats.sat_conflicts
        )
    } else {
        String::new()
    };
    println!(
        "\nII = {} ({:?} via {}; {} branch-and-bound nodes, {} simplex iterations{})",
        schedule.ii(),
        result.status,
        result.provenance.unwrap_or(Provenance::Exact),
        result.stats.bb_nodes,
        result.stats.simplex_iterations,
        sat_effort
    );
    println!("\nschedule:");
    for id in l.op_ids() {
        println!(
            "  t={:<4} {:<12} row {:<3} stage {}",
            schedule.time(id),
            l.op(id).name,
            schedule.row(id),
            schedule.stage(id)
        );
    }
    println!(
        "\nmodulo reservation table:\n{}",
        schedule.mrt_to_string(&l)
    );
    println!(
        "MaxLive = {}, buffers = {}, cumulative lifetime = {}",
        schedule.max_live(&l),
        schedule.buffers(&l),
        schedule.cumulative_lifetime(&l)
    );

    if opts.expand {
        let p = codegen::expand(&l, schedule);
        println!(
            "\nmodulo variable expansion: unroll x{}, {} stages",
            p.unroll, p.stages
        );
        print!("{}", p.to_text(&l));
    }

    if opts.certify {
        // External audit: the scheduler already certified internally before
        // emitting the schedule; this rebuilds the same claim from the
        // printed result and re-runs the certifier from outside, so a
        // regression that disabled the internal check would still be caught
        // here. Objective claims only apply to exact-rung results — ladder
        // schedules (stage ILP / IMS) claim feasibility only. A SAT
        // portfolio win counts as exact (objective-free by construction).
        let exact_rung = result.provenance.is_some_and(|p| !p.degraded());
        let claim = Claim {
            graph: &l,
            machine: &machine,
            ii: schedule.ii(),
            times: schedule.times(),
            claimed_optimal: exact_rung && result.status == LoopStatus::Optimal,
            claimed_objective: if exact_rung {
                result.objective_value
            } else {
                None
            },
            exact_objective: if exact_rung {
                sched.exact_objective(&l, schedule)
            } else {
                None
            },
            claimed_bound: None,
        };
        let cert = certify(&claim)
            .map_err(|e| Failure::Certification(format!("certificate refused: {e}")))?;
        println!(
            "\ncertificate: II {} >= MinII {}; {} dependence edges checked under both \
             formulations; {} resource-row slots checked{}",
            cert.ii,
            cert.min_ii,
            cert.edges_checked,
            cert.resource_rows_checked,
            cert.objective
                .map_or_else(String::new, |o| format!("; objective {o} exact")),
        );
    }
    Ok(())
}
