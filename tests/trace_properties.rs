//! Property-based agreement between the trace layer and the solver's own
//! bookkeeping.
//!
//! The trace events and the `SolveStats` counters are produced by separate
//! code paths at the same program points; if they ever disagree, one of
//! them is lying. These properties solve randomly generated loops — serial
//! and parallel — with a [`MemorySink`] attached and require the raw event
//! stream to reproduce the stats counters exactly (`node_open`,
//! `lp_solved` with its iteration, refactor, eta and warm-start fields,
//! `incumbent`, `panic_recovered`), the sink's [`SolveReport`] to be
//! balanced, and the parallel stream to be well-formed (every `node_open`
//! matched by exactly one `node_close` from the same worker, in order).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use optimod_suite::optimod::{DepStyle, Objective, OptimalScheduler, SchedulerConfig};
use optimod_suite::optimod_ddg::{generate_loop, GeneratorConfig};
use optimod_suite::optimod_machine::example_3fu;
use optimod_suite::optimod_trace::{
    LpClass, MemorySink, SolveReport, TimedEvent, Trace, TraceEvent,
};

/// Small loops: the properties run dozens of full solves, so keep each one
/// cheap. Recurrences stay enabled — they are what makes the search branch.
fn small_loops() -> GeneratorConfig {
    GeneratorConfig {
        min_ops: 2,
        max_ops: 10,
        size_log_median: 5.0_f64.ln(),
        ..GeneratorConfig::default()
    }
}

fn traced_result(
    style: DepStyle,
    threads: u32,
    seed: u64,
) -> (
    optimod_suite::optimod::LoopResult,
    SolveReport,
    Vec<TimedEvent>,
) {
    let machine = example_3fu();
    let l = generate_loop(&small_loops(), &machine, seed);
    let sink = Arc::new(MemorySink::default());
    let mut cfg =
        SchedulerConfig::new(style, Objective::MinMaxLive).with_time_limit(Duration::from_secs(2));
    cfg.limits.threads = threads;
    cfg.limits.trace = Trace::new(sink.clone());
    let r = OptimalScheduler::new(cfg).schedule(&l, &machine);
    (r, sink.report(), sink.events())
}

/// The raw event stream must reproduce the solver's `SolveStats` exactly,
/// whatever the outcome — the property holds even when a budget fires
/// mid-search.
fn assert_events_reproduce_stats(
    r: &optimod_suite::optimod::LoopResult,
    rep: &SolveReport,
    events: &[TimedEvent],
) -> Result<(), String> {
    prop_assert!(rep.balanced(), "unbalanced node open/close stream");
    let count =
        |want: fn(&TraceEvent) -> bool| events.iter().filter(|te| want(&te.event)).count() as u64;
    let lp_sum = |field: fn(u64, u64, u64) -> u64| {
        events
            .iter()
            .map(|te| match te.event {
                TraceEvent::LpSolved {
                    iterations,
                    refactors,
                    etas,
                    ..
                } => field(iterations, refactors, etas),
                _ => 0,
            })
            .sum::<u64>()
    };
    let warm = |name: &str| {
        events
            .iter()
            .filter(|te| matches!(te.event, TraceEvent::LpSolved { warm, .. } if warm == name))
            .count() as u64
    };
    let s = &r.stats;
    prop_assert_eq!(
        count(|e| matches!(e, TraceEvent::NodeOpen { .. })),
        s.bb_nodes,
        "bb node count"
    );
    prop_assert_eq!(
        count(|e| matches!(e, TraceEvent::LpSolved { .. })),
        s.lp_solves,
        "LP solve count"
    );
    prop_assert_eq!(
        lp_sum(|it, _, _| it),
        s.simplex_iterations,
        "simplex iteration total"
    );
    prop_assert_eq!(lp_sum(|_, rf, _| rf), s.refactors, "refactorization total");
    prop_assert_eq!(lp_sum(|_, _, eta| eta), s.eta_pivots, "eta update total");
    prop_assert_eq!(warm("warm"), s.warm_starts, "warm starts taken");
    prop_assert_eq!(warm("abandoned"), s.warm_abandoned, "warm starts abandoned");
    prop_assert_eq!(
        count(|e| matches!(
            e,
            TraceEvent::LpSolved {
                class: LpClass::Stalled,
                ..
            }
        )),
        s.stalled_lps,
        "stalled LP count"
    );
    prop_assert_eq!(
        count(|e| matches!(e, TraceEvent::Incumbent { .. })),
        s.incumbents,
        "incumbent count"
    );
    prop_assert_eq!(
        count(|e| matches!(e, TraceEvent::PanicRecovered { .. })),
        s.panics_recovered,
        "recovered panic count"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serial solves: the event stream reproduces `SolveStats` on random
    /// loops, under both formulations.
    #[test]
    fn serial_trace_agrees_with_stats(seed in 0u64..4096, structured in proptest::bool::ANY) {
        let style = if structured { DepStyle::Structured } else { DepStyle::Traditional };
        let (r, rep, events) = traced_result(style, 1, seed);
        assert_events_reproduce_stats(&r, &rep, &events)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel solves: the same fidelity holds when events arrive
    /// interleaved from several workers, and the per-worker streams are
    /// well-formed — each worker expands one node at a time, so its
    /// open/close events must strictly alternate, starting with an open
    /// and ending closed.
    #[test]
    fn parallel_trace_agrees_with_stats(seed in 0u64..4096) {
        let (r, rep, events) = traced_result(DepStyle::Structured, 4, seed);
        assert_events_reproduce_stats(&r, &rep, &events)?;

        let mut open: HashMap<u32, bool> = HashMap::new();
        for te in &events {
            match te.event {
                TraceEvent::NodeOpen { worker, .. } => {
                    let slot = open.entry(worker).or_insert(false);
                    prop_assert!(!*slot, "worker {} opened a node while one was open", worker);
                    *slot = true;
                }
                TraceEvent::NodeClose { worker, .. } => {
                    let slot = open.entry(worker).or_insert(false);
                    prop_assert!(*slot, "worker {} closed a node it never opened", worker);
                    *slot = false;
                }
                _ => {}
            }
        }
        for (worker, still_open) in open {
            prop_assert!(!still_open, "worker {} left a node open at solve end", worker);
        }
    }
}
