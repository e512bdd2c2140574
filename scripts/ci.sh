#!/usr/bin/env bash
# Offline CI gate: everything here must pass with zero registry access.
#
#   scripts/ci.sh          # format check, build, tests, docs, fig1 smoke
#   CI_PERF=0 scripts/ci.sh # skip the simulator-throughput regression gate
#                           # (for machines much slower than the baseline's)
#
# The workspace has no external dependencies, so --offline is a hard
# guarantee, not an optimization.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== panic-surface gate (driver/sim/mem unwrap+expect ceiling)"
# Graceful-degradation budget: the protection substrate reports errors
# through DriverError/RunError/MemFault instead of panicking. New unwrap()
# or expect( call sites in these crates (tests included) need either a
# conversion to a structured error or a deliberate ceiling bump here.
panic_sites=$(grep -rEo '\.unwrap\(\)|\.expect\(' \
    crates/driver/src crates/sim/src crates/mem/src | wc -l)
# 128 = 137 + 3 invariant assertions in sim/par.rs (live PCs, resident
# workgroups, forkable guards) - 6 expects the serial engine's LSU
# dropped when both engines moved onto the shared lane data path - 3
# more (live PC, resident workgroup, atomic addend) that went with the
# serial engine itself, once audited and fault-injected runs moved onto
# the cycle-quantum engine - 2 "non-empty set" expects in the cache's
# victim choice, which now scans the set by index - 1 live-PC expect in
# the quantum engine's issue path, now that `SimpleOutcome::NeedsCore`
# carries the pc and instruction `exec_simple` already read; every
# checked-translation and decoded-operand expect is now a typed MemFault
# abort or a defensive skip, so a lane straddling into an unmapped page
# or a metadata mapping changing mid-run degrades gracefully instead of
# panicking.
panic_ceiling=128
if [[ "$panic_sites" -gt "$panic_ceiling" ]]; then
    echo "panic surface grew: $panic_sites unwrap/expect sites in" \
         "driver+sim+mem (ceiling $panic_ceiling)" >&2
    exit 1
fi
echo "   $panic_sites unwrap/expect sites (ceiling $panic_ceiling)"

echo "== cargo clippy --workspace --all-targets (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test (workspace, randomized property suites included) --offline"
cargo test -q --workspace --offline --no-fail-fast

echo "== cargo doc --workspace (deny warnings)"
# Broken or private intra-doc links fail here instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

if [[ "${CI_PERF:-1}" == "1" ]]; then
    echo "== simulator throughput smoke gate (CI_PERF=0 to skip)"
    # Fails when the smoke sweep's instrs/sec drops more than 30% below
    # the rate recorded in the committed BENCH_simcore.json.
    ./target/release/throughput --smoke --check BENCH_simcore.json
fi

echo "== kernel-verifier registry sweep (warnings/errors must be justified)"
# Runs the static-analysis pass pipeline (def-use, barrier divergence,
# shared-memory races, redundant checks) over every registry kernel; any
# unjustified warning/error finding fails CI.
./target/release/verify

echo "== experiments fig1 smoke run"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
./target/release/experiments fig1 "$out" --jobs 2
test -s "$out/fig1.txt"
test -s "$out/fig1.json"

echo "== every committed result reproduces byte for byte"
# Each exhibit is rerun from fresh simulations and its rendered text
# compared with the committed results/ copy, as is the Chrome trace of
# one workload; this pins every launch path an exhibit takes (concurrent,
# external-guard, fault-injected, audited, instrumented and traced).
./target/release/experiments all "$out/all" --jobs 2
for f in results/*.txt; do
    cmp "$f" "$out/all/$(basename "$f")"
done
./target/release/profile --trace vectoradd --out "$out/trace_vectoradd.json"
cmp results/trace_vectoradd.json "$out/trace_vectoradd.json"

echo "== telemetry schema gate"
# The registry key set is the machine-readable surface downstream tooling
# parses; the fixture pins the names (values are free to drift). A
# mismatch means a metric was renamed/removed without regenerating
# tests/golden/telemetry_schema.json.
./target/release/profile --check-schema tests/golden/telemetry_schema.json

if [[ "${CI_PERF:-1}" == "1" ]]; then
    echo "== stall-attribution exhibit determinism (CI_PERF=0 to skip)"
    # The Fig. 13-analogue table must be byte-identical regardless of the
    # fan-out width — results merge in submission order, never arrival
    # order.
    ./target/release/experiments profile "$out" --jobs 1
    mv "$out/profile.txt" "$out/profile.j1.txt"
    ./target/release/experiments profile "$out" --jobs 4
    cmp "$out/profile.j1.txt" "$out/profile.txt"
fi

if [[ "${CI_PERF:-1}" == "1" ]]; then
    echo "== fault-resilience smoke run (CI_PERF=0 to skip)"
    # The injected-fault sweep must classify every trial and terminate
    # within the tightened watchdog budget; identical matrices at 1 and 8
    # jobs pin the fan-out determinism. The --sim-threads 7 run only shows
    # the flag is accepted: the engine runs any fault session on one
    # worker, so that diff cannot fail yet (ROADMAP item 9).
    ./target/release/experiments fault_resilience "$out" --jobs 1 --max-cycles 100000
    mv "$out/fault_resilience.txt" "$out/fault_resilience.j1.txt"
    ./target/release/experiments fault_resilience "$out" --jobs 8 --max-cycles 100000
    cmp "$out/fault_resilience.j1.txt" "$out/fault_resilience.txt"
    ./target/release/experiments fault_resilience "$out" --jobs 8 --max-cycles 100000 --sim-threads 7
    cmp "$out/fault_resilience.j1.txt" "$out/fault_resilience.txt"
    grep -q '"quarantined": false' "$out/fault_resilience.json"
fi

if [[ "${CI_PERF:-1}" == "1" ]]; then
    echo "== adversarial fuzz scoreboard (CI_PERF=0 to skip)"
    # 225 seeded specimens spanning all three check types; the scoreboard
    # must be byte-identical at any --jobs fan-out and any --sim-threads
    # sharding, and the trend gate fails on any per-class detection-rate
    # regression or schema drift against the committed BENCH_detection.json,
    # and it must reproduce the committed results/ byte for byte.
    ./target/release/experiments fuzz_scoreboard "$out" --jobs 1
    mv "$out/fuzz_scoreboard.txt" "$out/fuzz_scoreboard.j1.txt"
    ./target/release/experiments fuzz_scoreboard "$out" --jobs 4
    cmp "$out/fuzz_scoreboard.j1.txt" "$out/fuzz_scoreboard.txt"
    ./target/release/experiments fuzz_scoreboard "$out" --jobs 4 --sim-threads 7
    cmp "$out/fuzz_scoreboard.j1.txt" "$out/fuzz_scoreboard.txt"
    cmp results/fuzz_scoreboard.txt "$out/fuzz_scoreboard.txt"

    echo "== static-precision exhibit determinism (CI_PERF=0 to skip)"
    # Classification, stall delta and certificate audit must be
    # byte-identical at any --jobs fan-out and --sim-threads sharding and
    # to the committed results/; zero audit violations is asserted on the
    # rendered text.
    ./target/release/experiments static_precision "$out" --jobs 1
    mv "$out/static_precision.txt" "$out/static_precision.j1.txt"
    ./target/release/experiments static_precision "$out" --jobs 4
    cmp "$out/static_precision.j1.txt" "$out/static_precision.txt"
    ./target/release/experiments static_precision "$out" --jobs 4 --sim-threads 7
    cmp "$out/static_precision.j1.txt" "$out/static_precision.txt"
    cmp results/static_precision.txt "$out/static_precision.txt"
    grep -q ' 0 violations' "$out/static_precision.txt"

    echo "== flight-recorder forensics matrix (CI_PERF=0 to skip)"
    # Replayed fuzz specimens and fault-injection trials must produce
    # byte-identical post-mortems at any --jobs fan-out and --sim-threads
    # sharding (the ring drains per-core outboxes in deterministic order),
    # and every detected specimen's post-mortem must name the oracle's
    # guilty memory instruction and victim region. The fault trials run
    # on one engine worker at any --sim-threads (a fault session forces
    # it), so only the fuzz specimens' sections are pinned sharded
    # (ROADMAP item 9).
    ./target/release/experiments forensics "$out" --jobs 1
    mv "$out/forensics.txt" "$out/forensics.j1.txt"
    ./target/release/experiments forensics "$out" --jobs 4
    cmp "$out/forensics.j1.txt" "$out/forensics.txt"
    ./target/release/experiments forensics "$out" --jobs 4 --sim-threads 7
    cmp "$out/forensics.j1.txt" "$out/forensics.txt"
    grep -q 'match=yes' "$out/forensics.txt"
    if grep -q 'match=NO\|victim_named=NO\|window_overlap=NO' "$out/forensics.txt"; then
        echo "forensics post-mortem disagrees with the fuzz oracle" >&2
        exit 1
    fi

    echo "== detection + precision trend gate (CI_PERF=0 to skip)"
    ./target/release/trend --check --jobs 4
fi

if [[ "${CI_PERF:-1}" == "1" ]]; then
    echo "== multi-tenant serving exhibit (CI_PERF=0 to skip)"
    # 2000 queued launches from 8 tenants under weighted-fair admission:
    # every cross-tenant probe must classify as detected (never masked or
    # silent), the per-tenant driver.tenant.* accounting must land in the
    # results JSON, and the rendered exhibit must be byte-identical at any
    # worker count and any --sim-threads sharding, and to the committed
    # results/ (one long-lived system reuses its engine state and RBTs
    # across every launch).
    ./target/release/experiments multi_tenant "$out" --jobs 1
    mv "$out/multi_tenant.txt" "$out/multi_tenant.j1.txt"
    ./target/release/experiments multi_tenant "$out" --jobs 4
    cmp "$out/multi_tenant.j1.txt" "$out/multi_tenant.txt"
    ./target/release/experiments multi_tenant "$out" --jobs 4 --sim-threads 7
    cmp "$out/multi_tenant.j1.txt" "$out/multi_tenant.txt"
    cmp results/multi_tenant.txt "$out/multi_tenant.txt"
    grep -q 'masked=0 silent=0' "$out/multi_tenant.txt"
    grep -q 'misattributed=0 secrets_intact=true' "$out/multi_tenant.txt"
    grep -q '"driver.tenant.launches_admitted"' "$out/multi_tenant.json"

    echo "== QoS fairness exhibit (CI_PERF=0 to skip)"
    ./target/release/experiments qos_fairness "$out" --jobs 1
    mv "$out/qos_fairness.txt" "$out/qos_fairness.j1.txt"
    ./target/release/experiments qos_fairness "$out" --jobs 4
    cmp "$out/qos_fairness.j1.txt" "$out/qos_fairness.txt"
    ./target/release/experiments qos_fairness "$out" --jobs 4 --sim-threads 7
    cmp "$out/qos_fairness.j1.txt" "$out/qos_fairness.txt"
    cmp results/qos_fairness.txt "$out/qos_fairness.txt"
    grep -q 'jain_index_over_mean_wait' "$out/qos_fairness.txt"

    echo "== cycle-quantum engine determinism (CI_PERF=0 to skip)"
    # Sharding a single run's SIMT cores across engine workers is a
    # wall-clock optimisation only: the stall-attribution table (full
    # simulated timing + telemetry) must be byte-identical whether the
    # engine runs sequentially or sharded 7 ways (7 doesn't divide the
    # core count, so shard sizes and claim order differ maximally).
    ./target/release/profile --jobs 1 --sim-threads 1 > "$out/profile.st1.txt"
    ./target/release/profile --jobs 1 --sim-threads 7 > "$out/profile.st7.txt"
    cmp "$out/profile.st1.txt" "$out/profile.st7.txt"
fi

echo "CI OK"
