#!/usr/bin/env bash
# Local CI gate (GitHub Actions is unavailable in this environment).
#
#   scripts/ci.sh          # everything: fmt, clippy, tier-1, full suite
#   scripts/ci.sh --quick  # skip the full --workspace test pass; run
#                          # sms-core's unit and integration tests and
#                          # sms-bench's experiment unit tests in its
#                          # place, and perfbench's tests in both modes
#
# Tier-1 (the must-stay-green contract, see README "Tests and benches"):
#   cargo build --release && cargo test -q
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> rustdoc: cargo doc --no-deps (missing_docs is deny in sms-core)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> doctests: cargo test --doc"
cargo test -q --doc --workspace

if [[ $quick -eq 0 ]]; then
    echo "==> full suite: cargo test -q --workspace"
    cargo test -q --workspace

    echo "==> wire hardening: mutation fuzz (release)"
    cargo test -q --release --test failure_injection mutation_fuzz

    metrics_tmp=$(mktemp -d)
    trap 'rm -rf "$metrics_tmp"' EXIT

    echo "==> wire hardening: repro ingest --faults --metrics smoke"
    cargo run -q --release -p sms-bench --bin repro -- \
        ingest --faults "--metrics=$metrics_tmp/ingest.prom" \
        > "$metrics_tmp/ingest.out"
    grep -q '^metrics_json: ' "$metrics_tmp/ingest.out"
    grep -q '^# TYPE sms_ingest_frames_ok counter$' "$metrics_tmp/ingest.prom"
    cargo run -q --release -p sms-bench --bin repro -- \
        validate-metrics "$metrics_tmp/ingest.out"

    echo "==> ml split-search bench smoke (down-scaled)"
    BENCH_ML_SMOKE=1 cargo bench -q -p sms-bench --bench ml

    echo "==> encode fast path: old-vs-new equivalence proptest (release)"
    cargo test -q --release --test encode_equivalence

    echo "==> encode bench smoke + per-core regression gate (down-scaled)"
    BENCH_ENCODE_SMOKE=1 BENCH_ENCODE_BASELINE="$PWD/BENCH_encode.json" \
        cargo bench -q -p sms-bench --bench encode

    echo "==> sharded fleet + segment store: scale bench smoke + regression gate"
    BENCH_SCALE_SMOKE=1 BENCH_SCALE_BASELINE="$PWD/BENCH_scale.json" \
        cargo bench -q -p sms-bench --bench scale

    echo "==> parallel evaluation determinism"
    cargo test -q -p sms-ml --test eval_determinism

    echo "==> supervised pool: panic-injection fuzz at workers {1,2,8} (release)"
    PANIC_FUZZ_ITERS=250 cargo test -q --release --test panic_injection

    echo "==> dirty-data quarantine: repro quality --faults --metrics smoke"
    cargo run -q --release -p sms-bench --bin repro -- \
        quality --faults "--metrics=$metrics_tmp/quality.prom" \
        > "$metrics_tmp/quality.out"
    grep -q '^metrics_json: ' "$metrics_tmp/quality.out"
    cargo run -q --release -p sms-bench --bin repro -- \
        validate-metrics "$metrics_tmp/quality.out"
    # The quality block counts every sample of every house, rejected
    # houses included, as the engine block does.
    quality_in=$(awk '$1 == "sms_quality_samples_in" { print $2 }' "$metrics_tmp/quality.prom")
    engine_in=$(awk '$1 == "sms_engine_samples_in" { print $2 }' "$metrics_tmp/quality.prom")
    if [[ -z "$quality_in" || "$quality_in" != "$engine_in" ]]; then
        echo "sms_quality_samples_in '$quality_in' != sms_engine_samples_in '$engine_in'" >&2
        exit 1
    fi

    echo "==> quality sanitizer + supervised pool bench smoke (down-scaled)"
    BENCH_QUALITY_SMOKE=1 cargo bench -q -p sms-bench --bench quality

    echo "==> telemetry: --metrics exporter smoke (JSON shape via sms_core::json)"
    cargo run -q --release -p sms-bench --bin repro -- \
        fleet --parallel --workers 2 "--metrics=$metrics_tmp/fleet.prom" \
        > "$metrics_tmp/fleet.out"
    grep -q '^metrics_json: ' "$metrics_tmp/fleet.out"
    grep -q '^# TYPE sms_engine_samples_in counter$' "$metrics_tmp/fleet.prom"
    cargo run -q --release -p sms-bench --bin repro -- \
        validate-metrics "$metrics_tmp/fleet.out"

    echo "==> gateway: loopback TCP e2e at workers {1,2,8} (release)"
    cargo test -q --release --test gateway_e2e

    echo "==> gateway: repro gateway --meters 64 --metrics round-trip"
    cargo run -q --release -p sms-bench --bin repro -- \
        gateway --meters 64 "--metrics=$metrics_tmp/gateway.prom" \
        > "$metrics_tmp/gateway.out"
    grep -q '^metrics_json: ' "$metrics_tmp/gateway.out"
    grep -q '^# TYPE sms_gateway_frames_acked counter$' "$metrics_tmp/gateway.prom"
    grep -q 'byte-identical to in-process FleetIngest' "$metrics_tmp/gateway.out"
    cargo run -q --release -p sms-bench --bin repro -- \
        validate-metrics "$metrics_tmp/gateway.out"

    echo "==> durability: crash-point sweep + torn-tail proptests (release)"
    cargo test -q --release -p sms-core --test durable_recovery

    echo "==> durability: repro crash --metrics smoke"
    cargo run -q --release -p sms-bench --bin repro -- \
        crash --houses 30 "--metrics=$metrics_tmp/crash.prom" \
        > "$metrics_tmp/crash.out"
    grep -q '^metrics_json: ' "$metrics_tmp/crash.out"
    grep -q '^# TYPE sms_durable_wal_appends counter$' "$metrics_tmp/crash.prom"
    grep -q '^# TYPE sms_durable_shard_failovers counter$' "$metrics_tmp/crash.prom"
    grep -q 'byte-for-byte' "$metrics_tmp/crash.out"
    grep -q '^sms_engine_house_samples_count 30$' "$metrics_tmp/crash.prom"
    cargo run -q --release -p sms-bench --bin repro -- \
        validate-metrics "$metrics_tmp/crash.out"

    echo "==> drift path: sketch bounds + epoch determinism suite (release)"
    cargo test -q --release -p sms-core --test drift_determinism

    echo "==> drift path: repro drift --metrics smoke"
    cargo run -q --release -p sms-bench --bin repro -- \
        drift "--metrics=$metrics_tmp/drift.prom" \
        > "$metrics_tmp/drift.out"
    grep -q '^metrics_json: ' "$metrics_tmp/drift.out"
    grep -q '^# TYPE sms_adaptive_rebuilds counter$' "$metrics_tmp/drift.prom"
    grep -q '^# TYPE sms_adaptive_epochs_shipped counter$' "$metrics_tmp/drift.prom"
    grep -q '^# TYPE sms_adaptive_sketch_bytes gauge$' "$metrics_tmp/drift.prom"
    grep -q '"recovered":1' "$metrics_tmp/drift.out"
    grep -q 'post-drift recovery to within 5% of baseline: yes' "$metrics_tmp/drift.out"
    grep -q 'topology combos byte-identical' "$metrics_tmp/drift.out"
    cargo run -q --release -p sms-bench --bin repro -- \
        validate-metrics "$metrics_tmp/drift.out"
else
    echo "==> sms-core unit + integration tests: cargo test -q -p sms-core --lib --tests"
    cargo test -q -p sms-core --lib --tests

    echo "==> experiment unit tests: cargo test -q -p sms-bench --lib"
    cargo test -q -p sms-bench --lib
fi

# Both modes: fleet_backfill's smoke is the one test that recovers a
# four-shard fleet from real files through several checkpoints per shard
# and compares the images byte for byte.
echo "==> benchmark: perfbench's own tests, smoke runs of every workload (release)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> docs freshness: README/DESIGN.md vs sms_core public modules"
scripts/check_module_docs.sh

echo "==> CI green"
