//! Crafted-corpus acceptance test for the static analyzer: a small set of
//! deliberately-flawed loops on which every lint code in the registry
//! fires. The issue's acceptance bar is >= 6 distinct codes; this corpus
//! triggers all 11 level-1/2 codes plus the `OM200`-series explanation
//! codes, and the tests pin the exact sets so a silently-dead lint is
//! noticed.

use std::collections::BTreeSet;

use optimod_suite::optimod::{build_model, compute_mii, DepStyle, FormulationConfig, Objective};
use optimod_suite::optimod_analyze::{
    explain_infeasible, lint_loop, max_severity, presolve, ExplainOptions, ExplainOutcome, Finding,
    LintCode, PresolveOptions, Severity,
};
use optimod_suite::optimod_ddg::{DepKind, Loop, LoopBuilder};
use optimod_suite::optimod_machine::{example_3fu, OpClass};
use optimod_suite::optimod_sat::SlotDomains;

/// Presolve findings on the structured MinReg model for `l` at `ii`.
fn presolve_at(
    l: &optimod_suite::optimod_ddg::Loop,
    ii: u32,
    slack: u32,
) -> optimod_suite::optimod_analyze::PresolveSummary {
    let machine = example_3fu();
    let cfg = FormulationConfig {
        dep_style: DepStyle::Structured,
        objective: Objective::MinMaxLive,
        sched_len_slack: slack,
        max_live_limit: None,
    };
    let built = build_model(l, &machine, ii, &cfg).expect("II at or above the recurrence bound");
    let mut model = built.model.clone();
    let opts = PresolveOptions {
        collect_findings: true,
    };
    presolve(&mut model, l, &built.analyzer_context(), &opts)
}

/// DDG-level findings for one loop under the default lint config.
fn lint(b: &LoopBuilder) -> Vec<Finding> {
    let machine = example_3fu();
    lint_loop(&b.build(&machine), &machine)
}

#[test]
fn crafted_corpus_fires_every_lint_code() {
    let machine = example_3fu();
    let mut seen: BTreeSet<LintCode> = BTreeSet::new();
    let mut record = |findings: &[Finding]| {
        seen.extend(findings.iter().map(|f| f.code));
    };

    // OM000: a zero-distance dependence cycle is structurally invalid
    // (build_unchecked bypasses the builder's own validation, as the
    // robustness harnesses do).
    let mut b = LoopBuilder::new("invalid");
    let x = b.op(OpClass::IAlu, "x");
    let y = b.op(OpClass::IAlu, "y");
    b.dep(x, y, 1, 0, DepKind::Control);
    b.dep(y, x, 1, 0, DepKind::Control);
    let invalid = b.build_unchecked(&machine);
    let findings = lint_loop(&invalid, &machine);
    assert_eq!(max_severity(&findings), Some(Severity::Error));
    record(&findings);

    // OM001 (redundant edge), OM003 (unreachable op), OM004 (SCC RecMII).
    let mut b = LoopBuilder::new("redundant");
    let ld = b.op(OpClass::Load, "ld");
    let add = b.op(OpClass::FAdd, "add");
    let st = b.op(OpClass::Store, "st");
    let orphan = b.op(OpClass::IAlu, "orphan");
    let _ = orphan;
    b.flow(ld, add, 0);
    b.flow(add, st, 0);
    b.dep(ld, st, 1, 0, DepKind::Memory); // implied by ld -> add -> st
    b.dep(add, add, 4, 1, DepKind::Anti); // recurrence: RecMII 4
    record(&lint(&b));

    // OM002: a value no operation consumes.
    let mut b = LoopBuilder::new("dead-value");
    let p = b.op(OpClass::Load, "p");
    let dead = b.op(OpClass::FAdd, "dead");
    b.flow(p, dead, 0);
    record(&lint(&b));

    // OM005: enough memory operations that the memory port binds the MII.
    let mut b = LoopBuilder::new("hot-memory");
    let mut prev = None;
    for i in 0..4 {
        let l = b.op(OpClass::Load, format!("ld{i}"));
        let s = b.op(OpClass::Store, format!("st{i}"));
        b.flow(l, s, 0);
        if let Some(p) = prev {
            b.dep(p, l, 0, 0, DepKind::Control);
        }
        prev = Some(s);
    }
    record(&lint(&b));

    // OM006: a recurrence whose RecMII exceeds the schedulable ceiling.
    let mut b = LoopBuilder::new("overflow");
    let a = b.op(OpClass::IAlu, "a");
    b.dep(a, a, 1 << 20, 1, DepKind::Anti);
    record(&lint(&b));

    // OM101/OM102/OM104: presolve on a zero-slack chain model. A
    // zero-slack horizon gives every critical-path operation a window of
    // `II + 1 - (min_len mod II)` cycles, so some II in the scanned range
    // has windows narrower than II: stage bounds collapse (OM101),
    // off-window MRT binaries fix (OM102), and the packing rows surface
    // as cliques (OM104).
    let mut b = LoopBuilder::new("pinned");
    let ld = b.op(OpClass::Load, "ld");
    let add = b.op(OpClass::FAdd, "add");
    let st = b.op(OpClass::Store, "st");
    b.flow(ld, add, 0);
    b.flow(add, st, 0);
    let l = b.build(&machine);
    let mii = compute_mii(&l, &machine);
    let mut fixed_somewhere = false;
    for ii in mii.value().max(3)..mii.value().max(3) + 8 {
        let summary = presolve_at(&l, ii, 0);
        assert!(!summary.infeasible, "zero-slack model must stay feasible");
        record(&summary.findings);
        if summary.binaries_fixed > 0 {
            fixed_somewhere = true;
            break;
        }
    }
    assert!(fixed_somewhere, "no scanned II produced a sub-II window");

    // OM103: a kernel with recurrence slack — some dependence rows are
    // already satisfied by the variable boxes and presolve drops them.
    let divide = optimod_suite::optimod_ddg::kernels::divide_recurrence(&machine);
    let dmii = compute_mii(&divide, &machine);
    let mut eliminated_somewhere = false;
    for ii in dmii.value()..dmii.value() + 4 {
        let summary = presolve_at(&divide, ii, 20);
        record(&summary.findings);
        if summary.rows_eliminated > 0 {
            eliminated_somewhere = true;
            break;
        }
    }
    assert!(
        eliminated_somewhere,
        "no scanned II eliminated a redundant row"
    );

    let expected: BTreeSet<LintCode> = [
        LintCode::InvalidLoop,
        LintCode::RedundantEdge,
        LintCode::DeadValue,
        LintCode::UnreachableOp,
        LintCode::SccRecMii,
        LintCode::HotResource,
        LintCode::MiiOverflow,
        LintCode::StageBoundTightened,
        LintCode::BinaryFixed,
        LintCode::RedundantRow,
        LintCode::ConflictClique,
    ]
    .into();
    let missing: Vec<_> = expected.difference(&seen).collect();
    assert!(
        missing.is_empty(),
        "lint codes never fired on the crafted corpus: {missing:?} (saw {seen:?})"
    );
    assert!(seen.len() >= 6, "acceptance bar: >= 6 distinct codes");
}

/// Explains `l` at `ii` over `domains`, panicking unless the engine
/// produced an explanation; records its finding codes into `seen`.
fn record_explained(
    seen: &mut BTreeSet<LintCode>,
    l: &Loop,
    ii: u32,
    domains: &SlotDomains,
    opts: &ExplainOptions,
) {
    let machine = example_3fu();
    match explain_infeasible(l, &machine, ii, domains, opts) {
        ExplainOutcome::Explained(ex) => seen.extend(ex.findings.iter().map(|f| f.code)),
        other => panic!(
            "{} at II={ii} must be explained, got {}",
            l.name(),
            other.name()
        ),
    }
}

#[test]
fn explain_corpus_fires_every_om200_series_code() {
    let machine = example_3fu();
    let mut seen: BTreeSet<LintCode> = BTreeSet::new();
    let opts = ExplainOptions::default();
    let free = |l: &Loop, ii: u32| SlotDomains::unrestricted(l.num_ops(), ii, 16 / ii as i64 + 4);

    // OM200: a two-op recurrence of latency 4 over distance 1 explained
    // two below its RecMII — the core is the cycle itself.
    let mut b = LoopBuilder::new("om200-cycle");
    let a = b.op(OpClass::FAdd, "a");
    let c = b.op(OpClass::FMul, "c");
    b.dep(a, c, 2, 0, DepKind::Flow);
    b.dep(c, a, 2, 1, DepKind::Flow);
    let cycle = b.build(&machine);
    record_explained(&mut seen, &cycle, 2, &free(&cycle, 2), &opts);

    // OM201: figure1's five ops cannot share three FUs in one MRT row.
    let fig1 = optimod_suite::optimod_ddg::kernels::figure1(&machine);
    record_explained(&mut seen, &fig1, 1, &free(&fig1, 1), &opts);

    // OM202: a presolve-style domain that forbids every slot of one op.
    let mut forbidden = free(&fig1, 2);
    forbidden.row_allowed[0] = vec![false; 2];
    forbidden.stage_bounds[0] = (0, 0);
    record_explained(&mut seen, &fig1, 2, &forbidden, &opts);

    // OM203: a zero minimization budget ships the raw core with a warning.
    let broke = ExplainOptions {
        mus_budget: 0,
        ..ExplainOptions::default()
    };
    record_explained(&mut seen, &fig1, 1, &free(&fig1, 1), &broke);

    let expected: BTreeSet<LintCode> = [
        LintCode::ConflictingEdges,
        LintCode::ResourceOverSubscription,
        LintCode::WindowConflict,
        LintCode::CoreNotMinimized,
    ]
    .into();
    let missing: Vec<_> = expected.difference(&seen).collect();
    assert!(
        missing.is_empty(),
        "explanation codes never fired on the crafted corpus: {missing:?} (saw {seen:?})"
    );
}
