//! Daemon cache-hit latency benchmark and non-regression gate.
//!
//! Spins up a real `optimodd` (in process: Unix socket, worker pool,
//! certified-schedule cache) and measures, per golden kernel, the
//! round-trip latency of **cold solves** (cache bypassed, full B&B) vs
//! **cache hits** (content-addressed lookup + load-path re-certification).
//! Prints p50/p99 for both paths and fails the build unless the best-case
//! speedup stays above the pinned ratio: the cache must make at least one
//! genuinely expensive kernel >= 100x faster to serve than to re-solve, or
//! it is not earning its complexity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use optimod::Objective;
use optimod_daemon::client;
use optimod_daemon::server::{Daemon, DaemonConfig};
use optimod_daemon::{ClientConfig, Request};

const COLD_SAMPLES: usize = 5;
const HIT_SAMPLES: usize = 50;
/// The best cold/hit p50 speedup below which the gate fails.
const GATE: f64 = 100.0;

/// Golden kernels with their wire objective. `fir4` runs the cumulative
/// lifetime objective — the most expensive exact solve of the set, i.e.
/// the workload the cache exists for.
const KERNELS: [(&str, &str, Objective); 3] = [
    (
        "figure1",
        "machine example-3fu\n\
         op ld-x load\nop mult fmul\nop add fadd\nop sub fadd\nop st-y store\n\
         flow ld-x mult 0\nflow ld-x add 0\nflow mult sub 0\nflow add sub 0\nflow sub st-y 0\n",
        Objective::MinMaxLive,
    ),
    (
        "lfk5-tridiag",
        "machine example-3fu\n\
         op ld-y load\nop ld-z load\nop y-x fadd\nop z* fmul\nop st-x store\n\
         flow ld-y y-x 0\nflow z* y-x 1\nflow ld-z z* 0\nflow y-x z* 0\nflow z* st-x 0\n",
        Objective::MinMaxLive,
    ),
    (
        "fir4-minlife",
        "machine example-3fu\n\
         op ld-x load\nop m0 fmul\nop m1 fmul\nop m2 fmul\nop m3 fmul\n\
         op a0 fadd\nop a1 fadd\nop a2 fadd\nop st-y store\n\
         flow ld-x m0 0\nflow ld-x m1 1\nflow ld-x m2 2\nflow ld-x m3 3\n\
         flow m0 a0 0\nflow m1 a0 0\nflow m2 a1 0\nflow m3 a1 0\n\
         flow a0 a2 0\nflow a1 a2 0\nflow a2 st-y 0\n",
        Objective::MinCumLifetime,
    ),
];

static SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "omd-bench-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

struct KernelStats {
    name: &'static str,
    cold_p50_us: u64,
    cold_p99_us: u64,
    hit_p50_us: u64,
    hit_p99_us: u64,
    ratio: f64,
}

fn request(text: &str, objective: Objective, use_cache: bool) -> Request {
    let mut r = Request::new(text);
    r.objective = objective;
    r.use_cache = use_cache;
    r.deadline_ms = 120_000;
    r
}

fn main() {
    let cache_dir = fresh_path("cache");
    let mut cfg = DaemonConfig::new(fresh_path("sock").with_extension("sock"));
    cfg.cache_dir = Some(cache_dir.clone());
    cfg.workers = 2;
    cfg.default_deadline = Duration::from_secs(120);
    let handle = Daemon::start(cfg).expect("daemon starts");
    let client_cfg = ClientConfig::new(handle.socket_path());

    let mut stats: Vec<KernelStats> = Vec::new();
    for (name, text, objective) in KERNELS {
        // Cold path: cache bypassed, every request is a full solve.
        let mut cold_us: Vec<u64> = Vec::with_capacity(COLD_SAMPLES);
        for _ in 0..COLD_SAMPLES {
            let t0 = Instant::now();
            let reply = client::solve(&client_cfg, request(text, objective, false))
                .unwrap_or_else(|e| panic!("{name}: cold solve failed: {e}"));
            cold_us.push(t0.elapsed().as_micros() as u64);
            assert!(!reply.cache_hit, "{name}: cache bypass served a hit");
        }

        // Populate, then measure the hit path end to end (connect, frame,
        // content-addressed load, re-certification, reply).
        let populate = client::solve(&client_cfg, request(text, objective, true))
            .unwrap_or_else(|e| panic!("{name}: populating solve failed: {e}"));
        assert!(!populate.cache_hit, "{name}: cache already warm");
        let mut hit_us: Vec<u64> = Vec::with_capacity(HIT_SAMPLES);
        for i in 0..HIT_SAMPLES {
            let t0 = Instant::now();
            let reply = client::solve(&client_cfg, request(text, objective, true))
                .unwrap_or_else(|e| panic!("{name}: hit solve {i} failed: {e}"));
            hit_us.push(t0.elapsed().as_micros() as u64);
            assert!(reply.cache_hit, "{name}: warm request {i} missed the cache");
            assert_eq!(
                reply.times, populate.times,
                "{name}: cache hit differs from the certified original"
            );
        }

        cold_us.sort_unstable();
        hit_us.sort_unstable();
        let cold_p50 = percentile(&cold_us, 0.50);
        let hit_p50 = percentile(&hit_us, 0.50);
        stats.push(KernelStats {
            name,
            cold_p50_us: cold_p50,
            cold_p99_us: percentile(&cold_us, 0.99),
            hit_p50_us: hit_p50,
            hit_p99_us: percentile(&hit_us, 0.99),
            ratio: cold_p50 as f64 / (hit_p50.max(1)) as f64,
        });
    }
    handle.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&cache_dir);

    println!(
        "{:<14} {:>12} {:>12} {:>11} {:>11} {:>9}",
        "kernel", "cold p50", "cold p99", "hit p50", "hit p99", "speedup"
    );
    for s in &stats {
        println!(
            "{:<14} {:>10}us {:>10}us {:>9}us {:>9}us {:>8.1}x",
            s.name, s.cold_p50_us, s.cold_p99_us, s.hit_p50_us, s.hit_p99_us, s.ratio
        );
    }

    let max_ratio = stats.iter().map(|s| s.ratio).fold(0.0f64, f64::max);
    assert!(
        max_ratio >= GATE,
        "cache-hit gate failed: best cold/hit p50 speedup {max_ratio:.1}x < {GATE}x"
    );
    println!("\ngate satisfied: best speedup {max_ratio:.1}x >= {GATE}x");
}
