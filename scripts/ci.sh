#!/usr/bin/env bash
# Staged CI gate: formatting, lints, rustdoc, build, tests, bench smoke.
#
#   scripts/ci.sh
#
# Each stage prints a banner and the pipeline stops at the first red stage.
# BENCH_SMOKE=1 makes the vendored criterion stand-in run each benchmark for
# a handful of iterations — enough to catch a pipeline regression (panic,
# equivalence failure, pathological slowdown) without a full measurement run.
# CI writes no tracked file: the micro bench's smoke output goes under
# target/, and only its key set is checked against the committed
# BENCH_micro.json.
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

# Dial-set false-positive rate: for every dialing mailbox size n in
# 1..=128, 10^5 non-member queries must see 0 hits (12.8 M queries; the
# expectation at the set's 7.8e-11 is about 1e-3 hits). Ignored in the
# debug suite because it needs a release build to finish in seconds.
stage "dial-set false-positive rate (12.8 M non-member queries, release)"
cargo test --release -p alpenhorn-bloom -- --ignored

# Onion layer keys: known-answer keys for the one-HMAC layer derivation, a
# seeded onion with pinned bytes, wrap/peel round trips from every first hop
# (the servers' noise path) and the mixnet's worker-count equivalence. Runs
# inside `cargo test -q` too; this named stage makes a derivation regression
# point at itself.
stage "onion layer KDF (known answers, wrap/peel, parallel equivalence)"
cargo test -q -p alpenhorn-mixnet

# Group-operation counts (alpenhorn_ibe::ops): one 3-PKG extraction hashes
# the identity to G2 once and the request and attestation messages to G1
# once each, with one request check (two pairings); the client checks the
# three attestations as one multi-signature and the key shares as one
# aggregate (one G1 hash, four pairings). The counters are process-wide, so
# the file holds exactly one test. Runs inside `cargo test -q` too; this
# named stage makes an operation-count regression point at itself.
stage "group-operation counts (one extraction, one client key check)"
cargo test -q --test group_op_counts

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

# Crash-recovery smoke: start a durable alpenhornd, run a full seeded
# scenario with a SIGKILL + restart between rounds, and require the client
# event stream, the post-restart pkg_publics and the onion keys to be
# byte-identical to an uncrashed daemon's. The in-process tests ride along:
# PKG ratchet file twins (plain restart, crash between WAL append and file
# rewrite), no onion key re-served, no superseded ratchet on disk, typed
# refusal of a bad ratchet file, compaction only at round boundaries, no
# round id begun twice across a crash. The SIGKILL test spawns the release
# alpenhornd built above (same profile as this stage's test harness). The
# scenario engine's 100k-client timeline adds three crash-restarts under
# ledger-consistency (a token spent at most once, per step).
stage "crash-recovery smoke (SIGKILL alpenhornd --data-dir, restart, finish scenario; ratchet file; 100k scenario)"
cargo test -q --release --test crash_recovery -- --include-ignored
cargo test -q --release --test scenario_engine

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
# convergence), plus a replay-determinism check and the scenario ≡
# hand-driven proof (`scenario_timeline_reproduces_hand_driven_runs_byte_for_byte`:
# a seed-32 scripted timeline, with and without a flaky window, yields the
# same client events as the workload driven by hand over `drive`). Runs
# inside `cargo test -q` too; this named stage makes a scenario regression
# point at itself.
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

# The primitives' costs (the cost model's calibration, SHA-256, erasure).
# A smoke run's numbers are noisy and stay under target/; a key renamed,
# added or dropped without regenerating the committed file fails here.
stage "bench smoke: primitive costs (key set vs BENCH_micro.json)"
BENCH_SMOKE=1 BENCH_JSON_OUT="$PWD/target/BENCH_micro.json" \
    cargo bench -p alpenhorn-bench --bench micro
micro_keys() { sed -n 's/^    "\([a-z0-9_]*\)": .*/\1/p' "$1" | sort; }
diff <(micro_keys BENCH_micro.json) <(micro_keys target/BENCH_micro.json)

stage "bench smoke: mixnet round pipeline"
BENCH_SMOKE=1 cargo bench -p alpenhorn-bench --bench mixnet_ops

stage "bench smoke: pkg throughput"
BENCH_SMOKE=1 cargo bench -p alpenhorn-bench --bench pkg_throughput

echo
echo "ci.sh: all green"
