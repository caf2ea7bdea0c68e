#!/usr/bin/env bash
# Repository lint + test gate. Run before sending a change for review.
set -euo pipefail
cd "$(dirname "$0")/.."

# The gates print and exit; none may write into the tree. Snapshot the
# working-tree status now and compare it at the end. perfbench/Cargo.lock
# is excluded: it is stale (it still lists a dependency the workspace
# dropped), so cargo rewrites it on every perfbench build until a
# benchmark change commits the refreshed lockfile.
tree_status() {
    git status --porcelain --untracked-files=all | grep -v ' perfbench/Cargo.lock$' || true
}
TREE_BEFORE="$(tree_status)"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, rustdoc warnings are errors)"
# Broken intra-doc links (say, to a renamed or deleted item) fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> cargo test (release with debug assertions)"
# Release codegen with debug_assert! live: catches invariant violations
# (schedule re-validation, solver bookkeeping) that dev-profile timings
# hide and plain release builds compile out.
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true \
CARGO_PROFILE_RELEASE_OVERFLOW_CHECKS=true \
    cargo test --workspace -q --release

echo "==> benchmark harness builds and passes its unit tests"
# perfbench/ is a workspace of its own that drives the public APIs of the
# scheduler, ILP, analyzer and daemon crates; a public-API change that
# breaks the benchmark fails here instead of at the next benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml -q

echo "==> golden-corpus solver counters"
# Deterministic serial counters (II, B&B nodes, LP solves, simplex
# iterations) pinned in tests/golden/corpus.tsv. On intentional solver
# changes: OPTIMOD_BLESS=1 cargo test --test golden_corpus, commit the diff.
cargo test -q --test golden_corpus

echo "==> analyzer presolve impact (golden corpus)"
# Presolve must be sound (identical certified II and objective with and
# without it) and must reduce the total golden-corpus branch-and-bound
# nodes or simplex iterations; fails the build otherwise.
cargo run --release -q -p optimod-bench --bin presolve_impact

echo "==> exact-arithmetic certification of the golden corpus"
# Every golden kernel under both formulations must come back with a
# schedule the external certifier accepts (constraints cross-checked
# against the ground truth, II >= recomputed MinII, exact objective).
cargo run --release -q -p optimod-bench --bin certify_corpus

echo "==> infeasibility explanations over the golden corpus"
# Every golden kernel with II* > 1 explained at II* - 1: the engine must
# return a certified minimal unsat core each time (the named groups alone
# are infeasible; dropping any one restores satisfiability) and the
# minimized core may never exceed the raw assumption core.
cargo run --release -q -p optimod-bench --bin explain_corpus

echo "==> crate hygiene (memory-safety and doc gates)"
# The analysis-facing crates must keep forbid(unsafe_code) and
# deny(missing_docs) at the crate root; a silent downgrade to warn (or a
# removal) fails the build here before clippy ever sees it.
for crate in analyze sat verify; do
    lib="crates/$crate/src/lib.rs"
    grep -q '^#!\[forbid(unsafe_code)\]' "$lib" \
        || { echo "hygiene: $lib lost #![forbid(unsafe_code)]"; exit 1; }
    grep -q '^#!\[deny(missing_docs)\]' "$lib" \
        || { echo "hygiene: $lib lost #![deny(missing_docs)]"; exit 1; }
done

echo "==> fixed-seed chaos sweep (fault injection)"
# 64 seeded fault plans x 3 kernels x (plain + portfolio): every run must
# end in a certified schedule or a clean typed degradation — zero escaped
# panics, balanced trace streams, and no injected fault may ever
# manufacture a cross-backend disagreement. Odd seeds run two threads:
# for portfolio cells that is serial SAT, then a two-worker ILP. Failures
# name their seed: optimod --chaos SEED <loop>.
cargo run --release -q -p optimod-bench --bin chaos_sweep

echo "==> SAT encoder round-trip properties (vs the real ILP)"
# Both directions of the CNF encoder contract over seeded loops: every
# satisfying assignment decodes to a certified schedule, every certified
# ILP schedule satisfies the CNF via unit assumptions, and the sabotaged
# encoder variant is provably unsatisfiable (DESIGN.md §15).
cargo test -q -p optimod-sat --test encoding_properties

echo "==> cross-backend portfolio over the golden corpus"
# All 22 golden cells under --portfolio at 1 and 2 threads: certified II
# identical to ILP-only everywhere, the same winner and provenance at both
# thread counts, zero disagreements, SAT winning at least one cell
# outright; at every II up to II* both backends, run to completion
# independently, agree (infeasible below II*, certified witnesses at it);
# and the differential oracle demonstrably catches a deliberately
# sabotaged encoder with a minimized repro.
cargo run --release -q -p optimod-bench --bin portfolio_corpus

echo "==> daemon smoke (solve twice, second must be a certified cache hit)"
# Start a real optimodd on a temp socket with a temp cache, schedule the
# figure1 golden kernel twice through the CLI client with --certify: the
# second reply must be served from the certified-schedule cache and be
# byte-identical to the first (same times, same certificate).
cargo build --release -q -p optimod-cli -p optimod-daemon
OMD_SOCK="$(mktemp -u)/optimodd.sock"
mkdir -p "$(dirname "$OMD_SOCK")"
OMD_CACHE="$(mktemp -d)"
./target/release/optimodd --socket "$OMD_SOCK" --cache-dir "$OMD_CACHE" &
OMD_PID=$!
cleanup_daemon() {
    kill "$OMD_PID" 2>/dev/null || true
    rm -rf "$OMD_CACHE" "$(dirname "$OMD_SOCK")"
}
trap cleanup_daemon EXIT
for _ in $(seq 1 100); do [ -S "$OMD_SOCK" ] && break; sleep 0.05; done
OMD_OUT1="$(./target/release/optimod client examples/figure1.loop \
    --socket "$OMD_SOCK" --certify)"
OMD_OUT2="$(./target/release/optimod client examples/figure1.loop \
    --socket "$OMD_SOCK" --certify)"
echo "$OMD_OUT2" | grep -q "certified cache hit" \
    || { echo "daemon smoke: second solve was not a cache hit"; exit 1; }
[ "$(echo "$OMD_OUT1" | grep -E '^\s+\S+\s+t=')" = \
  "$(echo "$OMD_OUT2" | grep -E '^\s+\S+\s+t=')" ] \
    || { echo "daemon smoke: cache hit differs from the cold solve"; exit 1; }
./target/release/optimod client --socket "$OMD_SOCK" --shutdown
wait "$OMD_PID"
trap - EXIT
cleanup_daemon

echo "==> fixed-seed chaos sweep of the daemon stack (fault injection)"
# 64 seeded service-level fault plans (torn wire frames, dropped replies,
# corrupted cache writes, worker panics, mid-solve faults) x 3 kernels x
# 2 rounds against real in-process daemons: every request must end in a
# certified schedule or a typed error, zero aborts, zero uncertified
# cache responses. Failures name their seed for replay.
cargo run --release -q -p optimod-bench --bin chaos_daemon

echo "==> crash-recovery sweep (SIGKILL + seeded self-aborts, 64 cycles)"
# Kill the real optimodd 64 times — raw SIGKILL at seeded delays plus
# --crash-at self-aborts after the journal append, before the done-mark,
# and mid-cache-write — then fsck the journal and cache, restart on the
# same state, and retry every admitted request id. Zero lost admitted
# requests, zero uncertified replies, fsck-clean journal/cache, and a
# drained journal (0 pending) at the end of every cycle (DESIGN.md S16).
cargo build --release -q -p optimod-daemon
cargo run --release -q -p optimod-bench --bin chaos_recovery

echo "==> cache-bound + brownout gate (10x overflow, degrade-not-shed)"
# Phase 1: 40 distinct kernels through a 4-entry / 2 KiB cache; byte and
# entry caps must hold after every store (LRU eviction) and across a
# reopen. Phase 2: the same 32-client burst against a one-worker daemon
# must shed strictly less with brownout on, serve honestly-tagged
# degraded schedules, and return to exact solves once load drops.
cargo run --release -q -p optimod-bench --bin cache_bound

echo "==> daemon cache-hit latency gate"
# Cold-solve vs cache-hit round-trip latency (p50/p99) per golden kernel
# through a real daemon; fails unless the best cold/hit p50 speedup stays
# >= 100x.
cargo run --release -q -p optimod-bench --bin bench_daemon

echo "==> sparse basis vs dense-inverse oracle, solver vs brute force"
# The sparse LU basis against the explicit dense inverse through random
# histories of refactorizations, eta pivots, marks, rollbacks and resets
# (every FTRAN and BTRAN compared after every step), then branch and
# bound, warm-started and cold, and the LP relaxation against brute-force
# enumeration of random small integer programs.
cargo test -q --release -p optimod-ilp --lib dense_oracle_matches_sparse_basis
cargo test -q --release -p optimod-ilp --test proptest_ilp

echo "==> per-node LP re-solve benchmark (warm-start gate)"
# Simulated branch-and-bound children on generated loops (N >= 40):
# geometric-mean cold -> warm re-solve speedup must stay above the pinned
# non-regression ratio (2x).
cargo run --release -q -p optimod-bench --bin bench_simplex

echo "==> null-sink trace overhead (fig2 micro-run)"
# The observability layer must stay free when enabled with a no-op sink:
# a fig2-style corpus slice (24 loops, ~80 s total), disabled trace vs
# NullSink, fails the build when the traced run is >5% slower.
cargo run --release -q -p optimod-bench --bin trace_overhead

echo "==> the checks left the working tree as they found it"
TREE_AFTER="$(tree_status)"
if [ "$TREE_BEFORE" != "$TREE_AFTER" ]; then
    echo "tree guard: the checks changed the working tree:"
    diff <(echo "$TREE_BEFORE") <(echo "$TREE_AFTER") || true
    exit 1
fi

echo "All checks passed."
