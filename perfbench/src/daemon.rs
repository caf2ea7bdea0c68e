//! The daemon measurements of the traced run: one closed-loop client
//! against an in-process `optimodd`, over a seeded mix of first-seen and
//! repeated requests. They ride on the traced run of `noobj-structured`
//! rather than forming a timed workload of their own: round trips through
//! the socket, connection threads and fsynced cache writes drift with the
//! machine far more than solver time does (see the README).

use std::path::Path;
use std::time::{Duration, Instant};

use optimod::{certify, Claim, DepStyle, Objective, OptimalScheduler, SchedulerConfig};
use optimod_daemon::hash::{canonical_key, KeyConfig};
use optimod_daemon::wire::{dep_style_tag, objective_tag};
use optimod_daemon::{client, CacheStore, ClientConfig, Daemon, DaemonConfig, Request, Scheduled};
use optimod_ddg::{textfmt, Loop, CORPUS_SEED};
use optimod_machine::{cydra_like, Machine};

use crate::reference::{contradiction, Reference};
use crate::select::{corpus as gen_corpus, daemon_sequence, select};
use crate::spans::Recorder;
use crate::stats::percentile;
use crate::{metric, Metric};

/// Size-rule limit of the daemon's loops.
pub const SIZE_LIMIT: u64 = 100;

/// The objectives the daemon is asked for, each over every loop.
const OBJECTIVES: [Objective; 2] = [Objective::MinMaxLive, Objective::FirstFeasible];

/// Per-request deadline: the safety net. Every solve here finishes far
/// inside it; one that does not comes back as an error, a failure.
const DEADLINE: Duration = Duration::from_secs(30);

struct Inputs {
    machine: Machine,
    loops: Vec<Loop>,
    texts: Vec<String>,
    /// `(loop index, objective)` per distinct key.
    keys: Vec<(usize, Objective)>,
}

fn inputs() -> Inputs {
    let machine = cydra_like();
    let loops = select(gen_corpus(&machine, CORPUS_SEED), &machine, SIZE_LIMIT);
    let texts: Vec<String> = loops
        .iter()
        .map(|l| crate::render::render(l, &machine))
        .collect();
    // Loops that render to the same problem share a cache entry; keep the
    // first, so that every key's first request is a miss.
    let mut seen = std::collections::HashSet::new();
    let mut keys = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        let parsed = textfmt::parse(text).expect("a rendered loop parses");
        for o in OBJECTIVES {
            if seen.insert(canonical_key(&parsed.l, &parsed.machine, &key_config(o))) {
                keys.push((i, o));
            }
        }
    }
    Inputs {
        machine,
        loops,
        texts,
        keys,
    }
}

/// The cache-key configuration of a structured request for `objective`.
fn key_config(objective: Objective) -> KeyConfig {
    KeyConfig {
        dep_style: dep_style_tag(DepStyle::Structured),
        objective: objective_tag(objective),
        register_limit: None,
    }
}

/// The scheduler configuration the daemon runs for `objective`, for
/// ground-truth objectives.
fn scheduler(objective: Objective) -> OptimalScheduler {
    let mut cfg = SchedulerConfig::new(DepStyle::Structured, objective);
    cfg.limits.threads = 1;
    cfg.limits.time_limit = DEADLINE;
    OptimalScheduler::new(cfg)
}

/// Starts a daemon with one worker, one solver thread, no journal and a
/// fresh, empty cache under `dir`.
fn start(dir: &Path) -> Result<optimod_daemon::DaemonHandle, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut cfg = DaemonConfig::new(dir.join("d.sock"));
    cfg.cache_dir = Some(dir.join("cache"));
    cfg.workers = 1;
    cfg.solver_threads = 1;
    cfg.journal_path = None;
    cfg.default_deadline = DEADLINE;
    Daemon::start(cfg).map_err(|e| format!("daemon start: {e}"))
}

/// One request's outcome as the client saw it.
struct Reply {
    key: usize,
    first_seen: bool,
    round_trip: Duration,
    reply: Result<Scheduled, String>,
}

/// One pass: a fresh daemon, the whole request sequence under a span per
/// request, shutdown. The daemon's directory is left for the caller.
fn pass(
    inp: &Inputs,
    seq: &[usize],
    dir: &Path,
    rec: &mut Recorder,
    first_item: u32,
) -> Result<Vec<Reply>, String> {
    let handle = start(dir)?;
    let client_cfg = ClientConfig {
        retries: 0,
        ..ClientConfig::new(handle.socket_path())
    };
    let mut seen = vec![false; inp.keys.len()];
    let mut replies = Vec::with_capacity(seq.len());
    for (i, &key) in seq.iter().enumerate() {
        let (loop_idx, objective) = inp.keys[key];
        let request = Request {
            request_id: i as u64 + 1,
            deadline_ms: DEADLINE.as_millis() as u64,
            use_fallback: false,
            use_cache: true,
            objective,
            dep_style: DepStyle::Structured,
            register_limit: None,
            threads: 1,
            loop_text: inp.texts[loop_idx].clone(),
        };
        let span = rec.open("request", first_item + i as u32);
        let reply = client::solve(&client_cfg, request).map_err(|e| e.to_string());
        let round_trip = rec.close(span);
        replies.push(Reply {
            key,
            first_seen: !std::mem::replace(&mut seen[key], true),
            round_trip,
            reply,
        });
    }
    handle
        .shutdown()
        .map_err(|e| format!("daemon shutdown: {e}"))?;
    Ok(replies)
}

/// Why a reply fails, if it does: a transport or daemon error, a degraded
/// schedule, a hit where the key was first seen (or a miss on a repeat), a
/// schedule the certifier refuses, or a contradiction of the reference.
fn failure(inp: &Inputs, reference: &Reference, r: &Reply) -> Option<String> {
    let (loop_idx, objective) = inp.keys[r.key];
    let l = &inp.loops[loop_idx];
    let s = match &r.reply {
        Ok(s) => s,
        Err(e) => return Some(format!("{} {objective:?}: {e}", l.name())),
    };
    if s.provenance.degraded() {
        return Some(format!("{}: degraded reply ({})", l.name(), s.provenance));
    }
    if s.cache_hit == r.first_seen {
        return Some(format!(
            "{} {objective:?}: cache_hit={} on a {} key",
            l.name(),
            s.cache_hit,
            if r.first_seen {
                "first-seen"
            } else {
                "repeated"
            }
        ));
    }
    let exact =
        scheduler(objective).exact_objective(l, &optimod::Schedule::new(s.ii, s.times.clone()));
    let claim = Claim {
        graph: l,
        machine: &inp.machine,
        ii: s.ii,
        times: &s.times,
        claimed_optimal: s.optimal,
        claimed_objective: s.objective.map(|v| v as f64),
        exact_objective: exact,
        claimed_bound: None,
    };
    if let Err(e) = certify(&claim) {
        return Some(format!(
            "{} {objective:?}: certifier refused: {e}",
            l.name()
        ));
    }
    let e = reference.get(l)?;
    contradiction(e, objective, s.ii, exact, s.optimal).map(|why| {
        format!(
            "{} {objective:?}: contradicts the reference: {why}",
            l.name()
        )
    })
}

/// What the daemon measurements add to a traced run.
pub struct Measured {
    /// The `daemon.*` metrics.
    pub metrics: Vec<Metric>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed (see [`failure`]).
    pub failed: u64,
}

/// Starts a daemon on a fresh cache under `scratch`, sends the seeded
/// request mix, checks every reply, then splits each round trip by
/// `cache_hit` and by the server's `wall_us`, and times `textfmt::parse`,
/// `hash::canonical_key`, `CacheStore::load` and `certify` on the same
/// requests. Spans land in `rec`, with item ids from `first_item` on.
pub fn measure(
    seed: u64,
    scratch: &Path,
    rec: &mut Recorder,
    first_item: u32,
) -> Result<Measured, String> {
    let inp = inputs();
    let reference = Reference::pinned();
    let seq = daemon_sequence(inp.keys.len(), seed);
    println!(
        "# daemon: {} loops x {} objectives = {} keys, {} requests",
        inp.loops.len(),
        OBJECTIVES.len(),
        inp.keys.len(),
        seq.len()
    );
    let dir = scratch.join("daemon");
    let replies = pass(&inp, &seq, &dir, rec, first_item)?;
    let mut failed = 0;
    for r in &replies {
        if let Some(why) = failure(&inp, &reference, r) {
            eprintln!("perfbench: FAILED {why}");
            failed += 1;
        }
    }

    let cache = CacheStore::open(dir.join("cache")).map_err(|e| format!("cache open: {e}"))?;
    let mut key_us = Vec::new();
    let mut load_us = Vec::new();
    let mut certify_us = Vec::new();
    for (i, r) in replies.iter().enumerate() {
        let item = first_item + i as u32;
        let (loop_idx, objective) = inp.keys[r.key];
        let parsed = rec
            .span("parse", item, || textfmt::parse(&inp.texts[loop_idx]))
            .map_err(|e| format!("rendered loop does not parse: {e}"))?;
        let start = Instant::now();
        let key = rec.span("key", item, || {
            canonical_key(&parsed.l, &parsed.machine, &key_config(objective))
        });
        key_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        rec.span("cache_load", item, || cache.load(&key));
        load_us.push(start.elapsed().as_secs_f64() * 1e6);
        let Ok(s) = &r.reply else { continue };
        let sched = scheduler(objective);
        // Already checked by `failure`; timed here as the hit path runs it,
        // under a span of its own so that `certify.ms` stays the ladder's.
        let start = Instant::now();
        let _ = rec.span("daemon_certify", item, || {
            let schedule = optimod::Schedule::new(s.ii, s.times.clone());
            certify(&Claim {
                graph: &parsed.l,
                machine: &parsed.machine,
                ii: s.ii,
                times: &s.times,
                claimed_optimal: s.optimal,
                claimed_objective: s.objective.map(|v| v as f64),
                exact_objective: sched.exact_objective(&parsed.l, &schedule),
                claimed_bound: None,
            })
        });
        certify_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let hit = |r: &&Reply| matches!(&r.reply, Ok(s) if s.cache_hit);
    let (hits, misses): (Vec<&Reply>, Vec<&Reply>) = replies.iter().partition(hit);
    let ms = |rs: &[&Reply]| -> Vec<f64> {
        rs.iter()
            .map(|r| r.round_trip.as_secs_f64() * 1e3)
            .collect()
    };
    let server_us: Vec<f64> = replies
        .iter()
        .filter_map(|r| r.reply.as_ref().ok().map(|s| s.wall_us as f64))
        .collect();
    let transport_us: Vec<f64> = replies
        .iter()
        .filter_map(|r| {
            let s = r.reply.as_ref().ok()?;
            Some(r.round_trip.as_secs_f64() * 1e6 - s.wall_us as f64)
        })
        .collect();
    let p50 = |v: &[f64]| percentile(v, 0.5).unwrap_or(0.0);
    let metrics = vec![
        metric("daemon.hit_ms_p50", p50(&ms(&hits)), "ms"),
        metric("daemon.miss_ms_p50", p50(&ms(&misses)), "ms"),
        metric("daemon.server_us_p50", p50(&server_us), "us"),
        metric("daemon.transport_us_p50", p50(&transport_us), "us"),
        metric("daemon.key_us_p50", p50(&key_us), "us"),
        metric("daemon.cache_load_us_p50", p50(&load_us), "us"),
        metric("daemon.certify_us_p50", p50(&certify_us), "us"),
        metric(
            "daemon.hit_frac",
            hits.len() as f64 / replies.len() as f64,
            "ratio",
        ),
    ];
    Ok(Measured {
        metrics,
        attempted: replies.len() as u64,
        failed,
    })
}

/// The daemon metrics of a traced run that drives no daemon (they read 0).
pub fn absent_metrics() -> Vec<Metric> {
    [
        ("daemon.hit_ms_p50", "ms"),
        ("daemon.miss_ms_p50", "ms"),
        ("daemon.server_us_p50", "us"),
        ("daemon.transport_us_p50", "us"),
        ("daemon.key_us_p50", "us"),
        ("daemon.cache_load_us_p50", "us"),
        ("daemon.certify_us_p50", "us"),
        ("daemon.hit_frac", "ratio"),
    ]
    .into_iter()
    .map(|(name, unit)| metric(name, 0.0, unit))
    .collect()
}
