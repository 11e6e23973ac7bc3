#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test suite.
# Run from anywhere; operates on the workspace that contains this script.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc -D warnings"
# Catches doc links left dangling when a public item is deleted or
# made private, and other rustdoc lints.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
# Hang watchdog: the fault-injection suites exercise deadline paths in the
# thread-backed collectives; a regression there shows up as a hang, not a
# failure. Kill the whole test run if it exceeds the budget.
timeout --kill-after=30 900 cargo test -q

echo "==> stepbench: benchmark replay self-tests"
# stepbench is a package of its own outside the workspace, so tier-1
# never compiles it. Its tests check the benchmark's stage replay
# against DistMoeLayer bit for bit; a layer change that breaks them
# fails here instead of in the benchmark run.
timeout --kill-after=30 600 \
    cargo test --release -q --manifest-path stepbench/Cargo.toml

echo "==> observability smoke: traced 2-rank training step"
# One training iteration over a 2-rank DistMoeLayer with an injected
# stall; the example writes a Chrome trace and self-validates it (span
# nesting, retry counters, expert-load histogram) via the in-tree
# checker, exiting non-zero on any miss.
timeout --kill-after=30 120 \
    cargo run --release -p models --example trace_training_step -- target/trace_smoke.json

echo "==> step attribution: measured-vs-modeled phase split on 4 ranks"
# Calibrates per-phase alpha-beta models from fault-free runs, predicts
# the phase split at a larger scale through simnet's serial step chain,
# then validates the prediction against a real run — and reruns with an
# injected 15 ms straggler, which attribution must name the critical
# rank and whose stall must be booked as the victims' blocked wait.
# Writes a validated Chrome trace (stitched op keys included) plus a
# flight-recorder dump, and self-checks every property.
timeout --kill-after=30 300 \
    cargo run --release -p models --example step_attribution -- target/step_attribution.json

echo "==> chaos suite (single-threaded tensor backend)"
TENSOR_THREADS=1 timeout --kill-after=30 300 \
    cargo test -q -p collectives --test chaos --test faults

echo "==> chaos suite (default threading)"
timeout --kill-after=30 300 \
    cargo test -q -p collectives --test chaos --test faults

echo "==> compute-bench gate: packed GEMM GFLOPS floors"
# The compute harness sweeps explicit thread counts, rewrites
# BENCH_compute.json, and (like the obs budget bench) asserts its own
# floor: best-thread-count GFLOPS at dims >= 256 must clear the
# per-dim minimum baked into the binary, so a microkernel regression
# fails CI instead of silently shipping slower GEMMs.
timeout --kill-after=30 300 cargo bench -q -p bench --bench harness

echo "==> flight-recorder budget: always-on ring overhead"
# Prices the per-event seqlock push, counts the ring events one real
# forward records, and asserts the always-on recording costs < 2% of a
# forward with the recorder on and off; also times obs::attrib over a
# real 4-rank session. Rewrites BENCH_attrib.json.
timeout --kill-after=30 300 cargo bench -q -p bench --bench attrib

echo "==> conformance: workspace invariant linter"
# Static gates: no std::sync locks outside shims/, no unjustified
# unwrap/expect in the guarded crates, obs names only via the registry,
# no wildcard arms over CommError where Reconfigured/Abandoned must be
# distinguished — plus the SPMD determinism auditor (unordered
# iteration, rank-divergent collectives, wall-clock decisions, float
# accumulation order). Non-zero exit on any violation; on failure the
# findings are re-emitted as JSON for one-glance triage.
if ! cargo run --release -p analyzer; then
    echo "analyzer findings (JSON):" >&2
    cargo run --release -p analyzer -- --json >&2 || true
    exit 1
fi

echo "==> conformance: collective schedule symmetry golden"
# The static schedule extractor's per-function collective op-graph must
# match the checked-in golden exactly: a new/moved/reordered collective
# call site is a deliberate protocol change and must be re-blessed with
# `cargo run --release -p analyzer -- --write-golden`.
cargo run --release -p analyzer -- --schedule-report > target/schedule_report.json
if ! diff -u results/schedule_report.json target/schedule_report.json; then
    echo "schedule report drifted from results/schedule_report.json;" >&2
    echo "re-bless with: cargo run --release -p analyzer -- --write-golden" >&2
    exit 1
fi

echo "==> conformance: chaos suite under the lock doctor"
# Re-run the fault-injection suites with lock-order tracking armed.
# Every test holds a check_guard, so any potential-deadlock cycle or
# blocking hazard observed anywhere in the run fails the suite.
LOCK_DOCTOR=1 timeout --kill-after=30 300 \
    cargo test -q -p collectives --test chaos --test faults
LOCK_DOCTOR=1 timeout --kill-after=30 300 \
    cargo test -q -p models --test lock_doctor

echo "==> elastic recovery smoke: 3-rank run surviving a dead rank"
# Rank 2 dies permanently after one step; the survivors evict it,
# re-shard the orphaned experts, roll back to the last snapshot, and
# finish. The example self-validates the elastic.reconfigure spans, the
# membership-epoch gauge, the eviction counter, and the exported trace.
timeout --kill-after=30 120 \
    cargo run --release -p models --example elastic_recovery -- target/elastic_recovery.json

echo "==> elastic chaos soak: >= 8 seeds x 2-8 ranks under a hang watchdog"
# ELASTIC_SOAK_WIDE=1 widens the soak to 6- and 8-rank worlds. The GNU
# timeout watchdog distinguishes a hang (a deadlocked eviction shows up
# as exit 124/137, surfaced as 124) from an assertion failure (any
# other non-zero exit, surfaced as 1). The in-process flight watchdog
# fires first (9 min) and drains the last-N ring events of every thread
# to target/flight_elastic_soak.json, so a hang leaves a trace.
set +e
ELASTIC_SOAK_WIDE=1 FLIGHT_DUMP=target/flight_elastic_soak.json \
    FLIGHT_WATCHDOG_MS=540000 timeout --kill-after=30 600 \
    cargo test -q -p models --test elastic --test elastic_obs
soak_rc=$?
set -e
if [ "$soak_rc" -eq 124 ] || [ "$soak_rc" -eq 137 ]; then
    echo "elastic chaos soak HANG (watchdog fired)" >&2
    exit 124
elif [ "$soak_rc" -ne 0 ]; then
    echo "elastic chaos soak FAILED (assertion)" >&2
    exit 1
fi

echo "==> migration capstone: chaos+skew soak under the lock doctor"
# Adversarially skewed (Zipf) workloads drive the imbalance detector
# into live hot-expert migrations while straggler faults delay random
# ranks mid-fence, with lock-order tracking armed the whole time. Runs
# the fence protocol suite, the workload generator's distribution
# tests, and the 4-seed migration soak; a wedged fence surfaces as a
# hang (exit 124), a broken bit-identity/no-drop/imbalance property as
# an assertion failure (exit 1).
set +e
LOCK_DOCTOR=1 FLIGHT_DUMP=target/flight_migration.json \
    FLIGHT_WATCHDOG_MS=540000 timeout --kill-after=30 600 sh -c '
    cargo test -q -p collectives --test migration_fence &&
    cargo test -q -p workloadgen &&
    cargo test -q -p models --test migrate
'
migrate_rc=$?
set -e
if [ "$migrate_rc" -eq 124 ] || [ "$migrate_rc" -eq 137 ]; then
    echo "migration capstone soak HANG (watchdog fired)" >&2
    exit 124
elif [ "$migrate_rc" -ne 0 ]; then
    echo "migration capstone soak FAILED (assertion)" >&2
    exit 1
fi

echo "==> gray-failure smoke: 4-rank run surviving a browned-out rank"
# Rank 3 limps (~5 ms per collective) but never dies. The health
# monitor scores it from all-reduced self-times, the ladder logs then
# quarantines it (draining a hot expert off it), the gray-failure
# pricing flips, and the fleet performs a live eviction. The example
# self-validates SPMD-identical scores, the health counters, the
# reconfigure spans, bit-identity against a fresh 3-rank world, and the
# exported trace.
timeout --kill-after=30 180 \
    cargo run --release -p models --example gray_failure -- target/gray_failure.json

echo "==> gray-failure soak: brownouts + escalation ladder under the lock doctor"
# The brownout chaos proptests (collectives) plus the trainer-level
# gray-failure soak: per-seed brownout magnitudes and pricing horizons
# force both ladder outcomes — limp to completion when eviction never
# amortizes, or one clean live eviction with bit-identical survivors.
# Lock-order tracking is armed; a wedged eviction surfaces as a hang
# (exit 124), a broken property as an assertion failure (exit 1).
set +e
LOCK_DOCTOR=1 timeout --kill-after=30 600 sh -c '
    cargo test -q -p collectives --test deadline &&
    cargo test -q -p models --test health
'
gray_rc=$?
set -e
if [ "$gray_rc" -eq 124 ] || [ "$gray_rc" -eq 137 ]; then
    echo "gray-failure soak HANG (watchdog fired)" >&2
    exit 124
elif [ "$gray_rc" -ne 0 ]; then
    echo "gray-failure soak FAILED (assertion)" >&2
    exit 1
fi

echo "==> throughput-recovery budget: brownout detection to full speed"
# Times a healthy 4-rank fleet, then the same fleet with rank 3 browned
# out and the defense armed: the run must quarantine, evict, and settle
# at >= 90% of the healthy step rate within 20 steps of the eviction,
# bit-identical to a fresh 3-rank world. Rewrites BENCH_health.json.
timeout --kill-after=30 300 cargo bench -q -p bench --bench health

echo "==> migration pause budget: fence-to-resume wall time"
# Measures the end-to-end training pause of one hot-expert migration on
# a 4-rank world (max across ranks, best of 5) against the enforced
# budget, and rewrites BENCH_migrate.json with measured vs modeled
# phase costs.
timeout --kill-after=30 300 cargo bench -q -p bench --bench migrate

echo "CI OK"
