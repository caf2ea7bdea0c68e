//! Golden-corpus regression suite for the solver's headline counters.
//!
//! The paper's central claim is quantitative: the 0-1 structured
//! formulation solves the same loops with far fewer branch-and-bound nodes
//! and simplex iterations than the traditional formulation. These tests
//! pin the exact counters — achieved II, node count, LP solves, simplex
//! iterations — for a fixed set of named kernels on the example 3-FU
//! machine, solved serially (`threads = 1`, where the search is
//! deterministic), and compare them against a checked-in fixture at
//! `tests/golden/corpus.tsv`.
//!
//! Each row carries two families of counters: the baseline columns are
//! measured with the analyzer's presolve *disabled* (so they remain
//! comparable with the pre-analyzer history of this fixture), and the
//! `pre_*` columns re-solve the same kernel with presolve *enabled* —
//! rows eliminated, binaries fixed, and the post-presolve node/iteration
//! counts. Both modes must certify the same II.
//!
//! A counter drift is not automatically a bug — a better branching rule or
//! a tightened formulation legitimately moves these numbers — but it must
//! always be *noticed*. To accept new numbers, regenerate the fixture:
//!
//! ```text
//! OPTIMOD_BLESS=1 cargo test --test golden_corpus
//! ```
//!
//! and commit the diff with an explanation of why the counters moved.

use std::io::Write as IoWrite;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use optimod_suite::optimod::{DepStyle, LoopStatus, Objective, OptimalScheduler, SchedulerConfig};
use optimod_suite::optimod_ddg::{kernels, Loop};
use optimod_suite::optimod_machine::{example_3fu, Machine};
use optimod_suite::optimod_trace::{JsonlSink, MemorySink, Trace};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/corpus.tsv");

/// The golden kernel set: small enough that both formulations solve to
/// optimality in well under the budget (so time limits never fire and the
/// serial counters are bit-identical run to run), varied enough to cover
/// acyclic, single-recurrence, and multi-recurrence dependence graphs.
fn golden_loops(machine: &Machine) -> Vec<Loop> {
    vec![
        kernels::figure1(machine),
        kernels::saxpy(machine),
        kernels::dot_product(machine),
        kernels::lfk5_tridiag(machine),
        kernels::lfk6_recurrence(machine),
        kernels::lfk11_first_sum(machine),
        kernels::lfk12_first_diff(machine),
        kernels::fir4(machine),
        kernels::horner(machine),
        kernels::divide_recurrence(machine),
        kernels::stream_copy(machine),
    ]
}

const STYLES: [DepStyle; 2] = [DepStyle::Traditional, DepStyle::Structured];

fn style_name(style: DepStyle) -> &'static str {
    match style {
        DepStyle::Traditional => "traditional",
        DepStyle::Structured => "structured",
    }
}

/// One fixture row: the counters we pin per (kernel, formulation).
/// Baseline counters (`bb_nodes`..`simplex_iterations`) are measured with
/// presolve off; the `pre_*` counters re-solve with presolve on; the
/// `sat_wins`/`ilp_wins` columns come from a serial NoObj portfolio run
/// (SAT first, so they pin which backend settles each cell).
#[derive(Debug, PartialEq, Eq, Clone)]
struct Row {
    kernel: String,
    style: &'static str,
    ii: u32,
    bb_nodes: u64,
    lp_solves: u64,
    simplex_iterations: u64,
    pre_rows: u64,
    pre_fixed: u64,
    pre_nodes: u64,
    pre_iters: u64,
    sat_wins: u64,
    ilp_wins: u64,
}

impl Row {
    fn to_tsv(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.kernel,
            self.style,
            self.ii,
            self.bb_nodes,
            self.lp_solves,
            self.simplex_iterations,
            self.pre_rows,
            self.pre_fixed,
            self.pre_nodes,
            self.pre_iters,
            self.sat_wins,
            self.ilp_wins
        )
    }

    fn from_tsv(line: &str) -> Option<Row> {
        let mut f = line.split('\t');
        let kernel = f.next()?.to_string();
        let style = match f.next()? {
            "traditional" => "traditional",
            "structured" => "structured",
            _ => return None,
        };
        let row = Row {
            kernel,
            style,
            ii: f.next()?.parse().ok()?,
            bb_nodes: f.next()?.parse().ok()?,
            lp_solves: f.next()?.parse().ok()?,
            simplex_iterations: f.next()?.parse().ok()?,
            pre_rows: f.next()?.parse().ok()?,
            pre_fixed: f.next()?.parse().ok()?,
            pre_nodes: f.next()?.parse().ok()?,
            pre_iters: f.next()?.parse().ok()?,
            sat_wins: f.next()?.parse().ok()?,
            ilp_wins: f.next()?.parse().ok()?,
        };
        match f.next() {
            None => Some(row),
            Some(_) => None,
        }
    }
}

/// A deterministic serial scheduler: one thread, MinReg objective, and a
/// budget generous enough that no golden kernel ever hits a limit (a limit
/// firing would make the node counts timing-dependent).
fn golden_scheduler(style: DepStyle, trace: Trace, presolve: bool) -> OptimalScheduler {
    let mut cfg = SchedulerConfig::new(style, Objective::MinMaxLive)
        .with_time_limit(Duration::from_secs(120));
    cfg.limits.threads = 1;
    cfg.limits.trace = trace;
    cfg.presolve = presolve;
    OptimalScheduler::new(cfg)
}

fn measure_rows(machine: &Machine, loops: &[Loop]) -> Vec<Row> {
    let mut rows = Vec::new();
    for style in STYLES {
        let baseline = golden_scheduler(style, Trace::disabled(), false);
        let presolved = golden_scheduler(style, Trace::disabled(), true);
        for l in loops {
            let r = baseline.schedule(l, machine);
            assert_eq!(
                r.status,
                LoopStatus::Optimal,
                "golden kernel {} must solve to optimality under {} (got {:?})",
                l.name(),
                style_name(style),
                r.status
            );
            let s = r.schedule.as_ref().expect("optimal result has a schedule");

            let p = presolved.schedule(l, machine);
            assert_eq!(
                p.status,
                LoopStatus::Optimal,
                "golden kernel {} must stay optimal under {} with presolve (got {:?})",
                l.name(),
                style_name(style),
                p.status
            );
            assert_eq!(
                p.schedule.as_ref().map(|s| s.ii()),
                Some(s.ii()),
                "{} / {}: presolve changed the certified II",
                l.name(),
                style_name(style)
            );
            assert_eq!(
                p.objective_value,
                r.objective_value,
                "{} / {}: presolve changed the certified objective",
                l.name(),
                style_name(style)
            );

            // Cross-backend portfolio, serially (SAT decides first, so the
            // win column is deterministic): the certified II must match the
            // ILP-only solve exactly, and the winner is pinned.
            let memory = Arc::new(MemorySink::default());
            let mut pcfg = SchedulerConfig::new(style, Objective::FirstFeasible)
                .with_time_limit(Duration::from_secs(120));
            pcfg.limits.threads = 1;
            pcfg.limits.trace = Trace::new(memory.clone());
            pcfg.portfolio = true;
            let pf = OptimalScheduler::new(pcfg).schedule(l, machine);
            assert_eq!(
                pf.status,
                LoopStatus::Optimal,
                "{} / {}: portfolio did not settle the cell ({:?}; error: {:?})",
                l.name(),
                style_name(style),
                pf.status,
                pf.error
            );
            assert_eq!(
                pf.ii,
                Some(s.ii()),
                "{} / {}: portfolio certified a different II",
                l.name(),
                style_name(style)
            );
            let rep = memory.report();
            assert_eq!(
                rep.sat_wins + rep.ilp_wins,
                1,
                "{} / {}: exactly one backend must win the cell",
                l.name(),
                style_name(style)
            );

            rows.push(Row {
                kernel: l.name().to_string(),
                style: style_name(style),
                ii: s.ii(),
                bb_nodes: r.stats.bb_nodes,
                lp_solves: r.stats.lp_solves,
                simplex_iterations: r.stats.simplex_iterations,
                pre_rows: p.stats.presolve_rows_eliminated,
                pre_fixed: p.stats.presolve_binaries_fixed,
                pre_nodes: p.stats.bb_nodes,
                pre_iters: p.stats.simplex_iterations,
                sat_wins: rep.sat_wins,
                ilp_wins: rep.ilp_wins,
            });
        }
    }
    rows
}

fn render_fixture(rows: &[Row]) -> String {
    let mut out = String::from(
        "# Golden solver counters: kernel, formulation, achieved II, B&B nodes,\n\
         # LP solves, simplex iterations (presolve off), then presolve-on columns:\n\
         # rows eliminated, binaries fixed, post-presolve B&B nodes and simplex\n\
         # iterations, then the serial NoObj portfolio's sat_wins / ilp_wins.\n\
         # Serial (threads=1) MinReg solves on example_3fu.\n\
         # Regenerate with: OPTIMOD_BLESS=1 cargo test --test golden_corpus\n",
    );
    for row in rows {
        out.push_str(&row.to_tsv());
        out.push('\n');
    }
    out
}

fn parse_fixture(text: &str) -> Vec<Row> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| Row::from_tsv(l).unwrap_or_else(|| panic!("malformed fixture line: {l:?}")))
        .collect()
}

/// The headline regression gate: current counters must match the fixture
/// exactly. Set `OPTIMOD_BLESS=1` to rewrite the fixture instead.
#[test]
fn counters_match_golden_fixture() {
    let machine = example_3fu();
    let loops = golden_loops(&machine);
    let rows = measure_rows(&machine, &loops);

    if std::env::var("OPTIMOD_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(FIXTURE, render_fixture(&rows)).expect("write golden fixture");
        println!("blessed {} rows into {FIXTURE}", rows.len());
        return;
    }

    let text = std::fs::read_to_string(FIXTURE).unwrap_or_else(|e| {
        panic!("cannot read {FIXTURE}: {e}; run OPTIMOD_BLESS=1 cargo test --test golden_corpus")
    });
    let expected = parse_fixture(&text);

    let mut mismatches = Vec::new();
    for row in &rows {
        match expected
            .iter()
            .find(|e| e.kernel == row.kernel && e.style == row.style)
        {
            None => mismatches.push(format!(
                "  {} / {}: missing from fixture",
                row.kernel, row.style
            )),
            Some(e) if e != row => mismatches.push(format!(
                "  {} / {}: expected {:?}, got {:?}",
                row.kernel, row.style, e, row
            )),
            Some(_) => {}
        }
    }
    for e in &expected {
        if !rows
            .iter()
            .any(|r| r.kernel == e.kernel && r.style == e.style)
        {
            mismatches.push(format!(
                "  {} / {}: fixture row no longer measured",
                e.kernel, e.style
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden counters drifted ({} rows):\n{}\nIf the drift is intentional, regenerate with \
         OPTIMOD_BLESS=1 cargo test --test golden_corpus and commit the diff.",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// Acceptance invariant for the cross-backend portfolio: over the golden
/// corpus the SAT backend must win at least one cell outright (serially it
/// decides first, so this fails only if the CDCL core stops pulling its
/// weight), and no cell may go unwon.
#[test]
fn sat_backend_wins_at_least_one_golden_cell() {
    let machine = example_3fu();
    let loops = golden_loops(&machine);
    let rows = measure_rows(&machine, &loops);
    let sat_total: u64 = rows.iter().map(|r| r.sat_wins).sum();
    assert!(sat_total >= 1, "SAT won no golden cell");
}

/// The paper's Table-structure claim, as an invariant: on every golden
/// kernel the structured formulation needs no more branch-and-bound nodes
/// than the traditional one, and both reach the same II.
#[test]
fn structured_formulation_dominates_on_nodes() {
    let machine = example_3fu();
    let loops = golden_loops(&machine);
    let rows = measure_rows(&machine, &loops);
    for l in &loops {
        let find = |style: &str| {
            rows.iter()
                .find(|r| r.kernel == l.name() && r.style == style)
                .expect("row measured for every style")
        };
        let trad = find("traditional");
        let structured = find("structured");
        assert_eq!(
            structured.ii,
            trad.ii,
            "{}: formulations disagree on the optimal II",
            l.name()
        );
        assert!(
            structured.bb_nodes <= trad.bb_nodes,
            "{}: structured took {} nodes, traditional {}",
            l.name(),
            structured.bb_nodes,
            trad.bb_nodes
        );
    }
}

/// The analyzer's acceptance invariant, pinned: on every golden kernel the
/// presolved solve needs no more branch-and-bound nodes than the
/// unpresolved one, and over the whole corpus presolve strictly reduces
/// total search effort (nodes or simplex iterations).
#[test]
fn presolve_never_inflates_search() {
    let machine = example_3fu();
    let loops = golden_loops(&machine);
    let rows = measure_rows(&machine, &loops);
    for r in &rows {
        assert!(
            r.pre_nodes <= r.bb_nodes,
            "{} / {}: presolve inflated the node count ({} > {})",
            r.kernel,
            r.style,
            r.pre_nodes,
            r.bb_nodes
        );
    }
    let total = |f: fn(&Row) -> u64| rows.iter().map(f).sum::<u64>();
    let (nodes, pre_nodes) = (total(|r| r.bb_nodes), total(|r| r.pre_nodes));
    let (iters, pre_iters) = (total(|r| r.simplex_iterations), total(|r| r.pre_iters));
    assert!(
        pre_nodes < nodes || pre_iters < iters,
        "presolve reduced neither total nodes ({nodes} -> {pre_nodes}) nor total simplex \
         iterations ({iters} -> {pre_iters})"
    );
}

/// Warm-started children of a serial search return to their parent's
/// factor by rolling the eta file back, so almost none of them
/// refactorizes (figure1 / traditional reads 0 refactors for 22 warm
/// starts). Were the mark's stamps to stop matching, every warm start would
/// silently fall back to refactorizing its snapshot (one refactor per warm
/// start) and still give the same schedule: only this count shows it.
#[test]
fn warm_starts_roll_back_instead_of_refactorizing() {
    let machine = example_3fu();
    let r = golden_scheduler(DepStyle::Traditional, Trace::disabled(), false)
        .schedule(&kernels::figure1(&machine), &machine);
    assert_eq!(r.status, LoopStatus::Optimal);
    let (refactors, warm) = (r.stats.refactors, r.stats.warm_starts);
    assert!(
        warm >= 10,
        "figure1 / traditional took only {warm} warm starts"
    );
    assert!(
        refactors * 4 <= warm,
        "{refactors} refactors for {warm} warm starts: warm installs are not rolling back"
    );
}

/// A `Write` target the test can read back after the solver is done with
/// the sink (the sink is behind an `Arc`, so `into_inner` is unavailable).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("trace output is UTF-8")
    }
}

impl IoWrite for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Pulls `"key":<u64>` out of one JSONL line without a JSON parser — the
/// encoder emits flat objects with unquoted integers, so a scan suffices.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag)? + tag.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn has_kind(line: &str, kind: &str) -> bool {
    line.contains(&format!("\"ev\":\"{kind}\""))
}

/// On every golden-corpus loop, the counters re-aggregated from the JSONL
/// stream must exactly equal the solver's own `SolveStats` (equal node
/// opens and closes also mean the stream is balanced).
#[test]
fn jsonl_stream_aggregates_match_solve_stats() {
    let machine = example_3fu();
    for style in STYLES {
        for l in golden_loops(&machine) {
            let buf = SharedBuf::default();
            let jsonl = Arc::new(JsonlSink::new(buf.clone()));
            let r = golden_scheduler(style, Trace::new(jsonl.clone()), true).schedule(&l, &machine);
            jsonl.flush().expect("flush in-memory buffer");

            let ctx = format!("{} / {}", l.name(), style_name(style));
            let text = buf.contents();
            let lines: Vec<&str> = text.lines().collect();
            assert!(!lines.is_empty(), "{ctx}: empty trace");
            for line in &lines {
                assert!(
                    line.starts_with("{\"t_us\":") && line.ends_with('}'),
                    "{ctx}: malformed JSONL line {line:?}"
                );
            }

            let count = |kind: &str| lines.iter().filter(|l| has_kind(l, kind)).count() as u64;
            let sum = |kind: &str, key: &str| {
                lines
                    .iter()
                    .filter(|l| has_kind(l, kind))
                    .map(|l| {
                        field_u64(l, key)
                            .unwrap_or_else(|| panic!("{ctx}: {kind} line without {key}: {l:?}"))
                    })
                    .sum::<u64>()
            };

            assert_eq!(count("node_open"), r.stats.bb_nodes, "{ctx}: node opens");
            assert_eq!(count("node_close"), r.stats.bb_nodes, "{ctx}: node closes");
            assert_eq!(count("lp_solved"), r.stats.lp_solves, "{ctx}: LP solves");
            assert_eq!(
                sum("lp_solved", "iterations"),
                r.stats.simplex_iterations,
                "{ctx}: simplex iterations"
            );
            assert_eq!(
                sum("lp_solved", "refactors"),
                r.stats.refactors,
                "{ctx}: refactorizations"
            );
            assert_eq!(count("incumbent"), r.stats.incumbents, "{ctx}: incumbents");
        }
    }
}
