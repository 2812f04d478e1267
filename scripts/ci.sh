#!/usr/bin/env bash
# Staged CI gate: formatting, lints, rustdoc, build, tests, bench smoke +
# snapshot.
#
#   scripts/ci.sh
#
# Each stage prints a banner and the pipeline stops at the first red stage.
# BENCH_SMOKE=1 makes the vendored criterion stand-in run each benchmark for
# a handful of iterations — enough to catch a pipeline regression (panic,
# equivalence failure, pathological slowdown) without a full measurement run.
# The hash_hot_path bench additionally writes BENCH_pr3.json, the recorded
# perf trajectory (compare snapshots with scripts/bench_compare.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

STAGE="(startup)"
stage() {
    STAGE="$1"
    echo
    echo "===== [stage: $STAGE] ====="
}
trap 'echo; echo "ci.sh: FAILED at stage: $STAGE" >&2' ERR

stage "fmt (cargo fmt --check)"
cargo fmt --check

stage "clippy (cargo clippy --all-targets -- -D warnings)"
cargo clippy --all-targets -- -D warnings

# Rustdoc with warnings denied: a doc link left dangling by a rename or a
# deletion fails here, not in a reader's browser.
stage "rustdoc (cargo doc --no-deps --workspace, warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

stage "build (release)"
cargo build --release

stage "tests"
cargo test -q

# Loopback-vs-TCP equivalence smoke: the same seeded scenario must produce
# byte-identical client events over the in-process loopback transport and
# over TCP against a live localhost daemon (plus concurrent-client and
# hostile-peer coverage), with and without rate limiting — the second run
# sends each client's three-member Request::Batch over the socket. The RPC
# codec properties (every variant and batch round-trips, every strict prefix
# and arbitrary bytes fail cleanly) ride along. Runs inside `cargo test -q`
# too; this named stage makes a transport regression point at itself.
stage "transport equivalence smoke (loopback vs TCP alpenhornd)"
cargo test -q --test transport_equivalence
cargo test -q -p alpenhorn-wire --test rpc_proptests

# Concurrent-equivalence gate: clients racing through the submission intake
# on concurrent connections must see event streams byte-identical to the
# sequential reference, and the intake's canonical sort-by-digest seal must
# be arrival-order-invariant (property tests over random permutations,
# racing threads, and full published-mailbox rounds fed in reverse). Runs
# inside `cargo test -q` too; this named stage makes a determinism
# regression point at itself.
stage "concurrent equivalence (intake determinism + racing clients vs loopback)"
cargo test -q --test intake_determinism
cargo test -q --test transport_equivalence concurrent

# Distributed-deployment gate (PR 9): a coordinator driving 3 networked mixd
# daemons over MixerRpc, with mailboxes offloaded to a 4-node cdnd fleet as
# 3+1 erasure shards, must yield client-event streams byte-identical to the
# in-process fault-free run — including one cdnd killed mid-run, with the
# surviving fetches reconstructed by XOR-only parity decode. The per-crate
# property suites (shift-XOR loss patterns, remote-chain ≡ in-process chain
# over every mixer count, over loopback and TCP) run inside `cargo test -q` too;
# this named stage makes a distribution regression point at itself. All
# three daemons run one serve loop (alpenhorn_wire::server), so its unit
# tests (shedding, bad frames, oversized replies, joined shutdown, poisoned
# state) and the cdn crate's node tests run here as well.
stage "distributed equivalence (3 mixd + 4 cdnd, one killed mid-run, vs in-process)"
cargo test -q --test distributed_equivalence
cargo test -q -p alpenhorn-wire --lib server::
cargo test -q -p alpenhorn-cdn
cargo test -q -p alpenhorn-erasure --test shift_xor_proptests
cargo test -q -p alpenhorn-mixd --test loopback_equivalence

# Observability gate (PR 10): metrics, spans, and logs must be invisible to
# the protocol. The e2e re-runs the seeded distributed scenario with the
# always-on instrumentation and asserts the client event stream stays
# byte-identical, one correlation id links the round's spans across
# coordinator, mixd, and cdnd, and the round/shard counters reconcile.
# Every metric family the daemons expose must be named in
# docs/OBSERVABILITY.md. The --ignored variant fetches GetTelemetry from a
# live alpenhornd over TCP. The bit-flip proptests cover every message of
# the three protocols, the three telemetry replies included.
stage "observability (telemetry e2e + GetTelemetry smoke vs live alpenhornd)"
cargo test -q --test observability_e2e
cargo test -q --release --test observability_e2e -- --ignored
cargo test -q -p alpenhorn-wire --test rpc_proptests bit_flips

# Full sampling budget, not BENCH_SMOKE: this stage's output IS the recorded
# perf trajectory (≈3 s total), and overwriting the committed baseline with
# noisy smoke numbers would make bench_compare.sh diffs meaningless.
stage "bench snapshot: hash hot path (writes BENCH_pr3.json)"
BENCH_JSON_OUT="$PWD/BENCH_pr3.json" \
    cargo bench -p alpenhorn-bench --bench hash_hot_path

stage "bench snapshot: wire RPC codec (writes BENCH_pr4.json)"
BENCH_JSON_OUT="$PWD/BENCH_pr4.json" \
    cargo bench -p alpenhorn-bench --bench wire_rpc

stage "bench snapshot: storage WAL (writes BENCH_pr5.json)"
BENCH_JSON_OUT="$PWD/BENCH_pr5.json" \
    cargo bench -p alpenhorn-bench --bench storage_wal

stage "bench snapshot: fault-injection overhead (writes BENCH_pr6.json)"
BENCH_JSON_OUT="$PWD/BENCH_pr6.json" \
    cargo bench -p alpenhorn-bench --bench fault_injection

stage "bench snapshot: scenario engine (writes BENCH_pr7.json)"
BENCH_JSON_OUT="$PWD/BENCH_pr7.json" \
    cargo bench -p alpenhorn-bench --bench scenario_engine

stage "bench snapshot: coordinator concurrency (writes BENCH_pr8.json)"
BENCH_JSON_OUT="$PWD/BENCH_pr8.json" \
    cargo bench -p alpenhorn-bench --bench coordinator_concurrency

stage "bench snapshot: distributed round (writes BENCH_pr9.json)"
BENCH_JSON_OUT="$PWD/BENCH_pr9.json" \
    cargo bench -p alpenhorn-bench --bench distributed_round

stage "bench snapshot: telemetry overhead (writes BENCH_pr10.json)"
BENCH_JSON_OUT="$PWD/BENCH_pr10.json" \
    cargo bench -p alpenhorn-bench --bench telemetry_overhead

# Perf numbers are hardware-specific, so the committed snapshot is only a
# valid baseline on comparable hardware; opt into the regression gate by
# pointing BENCH_BASELINE at a snapshot recorded on this machine.
if [[ -n "${BENCH_BASELINE:-}" ]]; then
    stage "bench compare (vs $BENCH_BASELINE)"
    scripts/bench_compare.sh "$BENCH_BASELINE" "$PWD/BENCH_pr3.json"
fi
if [[ -n "${BENCH_BASELINE_PR8:-}" ]]; then
    stage "bench compare: coordinator concurrency (vs $BENCH_BASELINE_PR8)"
    scripts/bench_compare.sh "$BENCH_BASELINE_PR8" "$PWD/BENCH_pr8.json"
fi
if [[ -n "${BENCH_BASELINE_PR9:-}" ]]; then
    stage "bench compare: distributed round (vs $BENCH_BASELINE_PR9)"
    scripts/bench_compare.sh "$BENCH_BASELINE_PR9" "$PWD/BENCH_pr9.json"
fi
if [[ -n "${BENCH_BASELINE_PR10:-}" ]]; then
    stage "bench compare: telemetry overhead (vs $BENCH_BASELINE_PR10)"
    scripts/bench_compare.sh "$BENCH_BASELINE_PR10" "$PWD/BENCH_pr10.json"
fi

# Crash-recovery smoke: start a durable alpenhornd, run a full seeded
# scenario with a SIGKILL + restart between rounds, and require the client
# event stream, the post-restart pkg_publics and the onion keys to be
# byte-identical to an uncrashed daemon's. The in-process tests ride along:
# PKG ratchet file twins (plain restart, crash between WAL append and file
# rewrite), no onion key re-served, no superseded ratchet on disk, typed
# refusal of a bad ratchet file, compaction only at round boundaries. The
# SIGKILL test spawns the release alpenhornd built above (same profile as
# this stage's test harness).
stage "crash-recovery smoke (SIGKILL alpenhornd --data-dir, restart, finish scenario; ratchet file)"
cargo test -q --release --test crash_recovery -- --include-ignored

# Chaos gate: seeded fault plans (request/response drops, delays, duplicate
# deliveries, frame corruption, scripted mid-run disconnects) over retrying
# clients must converge to the byte-identical event stream of a fault-free
# run, with no double effect on the coordinator's ledgers. The --ignored
# variant layers a SIGKILL + restart of a live alpenhornd under the same
# fault plans (crash recovery and fault injection composed).
stage "chaos (seeded fault-plan suite + SIGKILL-under-faults alpenhornd)"
cargo test -q --release --test chaos
cargo test -q --release --test chaos -- --ignored

# Scenario smoke: three scripted timelines (churn wave, crash-restart storm,
# partition window) in the scenarios-as-data text format, executed through
# the deterministic engine with the full invariant-checker suite (mailbox
# conservation, submission accounting, ledger consistency, fault-free-twin
# convergence), plus a replay-determinism check. Runs inside `cargo test -q`
# too; this named stage makes a scenario regression point at itself.
stage "scenario smoke (churn wave, crash-restart storm, partition window)"
cargo test -q --test scenario_smoke

# End-to-end benchmark smoke: 64 clients, 3 rounds, all four workloads,
# traced, against the real alpenhornd + 3 mixd + 4 cdnd fleet (the harness
# builds the daemons into its own target directory). Fails on any failed
# operation or broken oracle, and checks that the metric names printed are
# exactly those BENCHMARK.json lists. The timed runs are the perf gate and
# are not run here (examples/e2e_bench/README.md).
stage "e2e_bench smoke (real 8-daemon topology, metric names vs BENCHMARK.json)"
cargo run --release --offline --quiet --manifest-path examples/e2e_bench/Cargo.toml -- --smoke

stage "bench smoke: mixnet round pipeline"
BENCH_SMOKE=1 cargo bench -p alpenhorn-bench --bench mixnet_ops

stage "bench smoke: pkg throughput"
BENCH_SMOKE=1 cargo bench -p alpenhorn-bench --bench pkg_throughput

echo
echo "ci.sh: all green"
