#!/usr/bin/env bash
# Committed perf trajectory, multi-scale: run the graph500 runner at a
# sweep of pinned scales and leave one BENCH_<scale>_<rows>x<cols>.json
# per scale in the repository root — the committed GTEPS curve for this
# revision (see "Reading the GTEPS curve" in README.md).
#
# Gates, in order:
#
#   * regression gate (simulated, deterministic): on a machine with
#     >= 4 cores the fresh SCALE-14 harmonic-mean GTEPS must be >= the
#     committed BENCH_14_2x2.json baseline, to a 1e-9 relative
#     tolerance (where a traversal's simulated clock starts re-associates
#     float sums in their last bits; nothing else may move it). The
#     simulated metric does not depend on host speed, so this is a hard
#     floor, not a hint.
#   * wall-clock smoke (SCALE 14 only): parallel must not lose to a
#     serial (SUNBFS_WORKERS=1) reference on >= 4 cores, and must stay
#     within a generous overhead bound (>= serial/3) everywhere.
#   * schema smoke: every artifact carries the v11 wall section, with its
#     load / traverse / validate split.
#
# Knobs (env): BENCH_SCALES ("14 16 18"), BENCH_RANKS (4), BENCH_ROOTS
# (4), BENCH_WORKERS (4), BENCH_TIMEOUT (600 s per run, hard).
set -euo pipefail
cd "$(dirname "$0")/.."

SCALES="${BENCH_SCALES:-14 16 18}"
RANKS="${BENCH_RANKS:-4}"
ROOTS="${BENCH_ROOTS:-4}"
WORKERS="${BENCH_WORKERS:-4}"
BENCH_TIMEOUT="${BENCH_TIMEOUT:-600}"
CORES="$(nproc 2>/dev/null || echo 1)"

# One number per report: the wall section's edges_per_second and the
# top-level harmonic_mean_gteps each appear exactly once in the schema
# (src/metrics.rs).
eps_of() {
    sed -n 's/.*"edges_per_second": *\([0-9.eE+-]*\).*/\1/p' "$1" | head -1
}
hmean_of() {
    sed -n 's/.*"harmonic_mean_gteps": *\([0-9.eE+-]*\).*/\1/p' "$1" | head -1
}
# wall_of <key> <report>: one of the wall section's seconds, to the ms.
# Every root carries a `validate_seconds` of its own; the wall section
# is the last in the file, so the last match is the run's.
wall_of() {
    sed -n 's/.*"'"$1"'": *\([0-9.eE+-]*\).*/\1/p' "$2" | tail -1 | xargs printf '%.3f'
}

echo "==> bench trajectory: SCALES='$SCALES' ranks=$RANKS roots=$ROOTS workers=$WORKERS"
cargo build -q --release --example graph500_runner

# The committed SCALE-14 baseline, captured before this sweep overwrites
# the artifact. Absent on a fresh clone pre-first-commit: gate skipped.
BASELINE_HMEAN=""
if [ -f BENCH_14_2x2.json ]; then
    BASELINE_HMEAN="$(hmean_of BENCH_14_2x2.json)"
fi

for SCALE in $SCALES; do
    echo "==> SCALE $SCALE (SUNBFS_WORKERS=$WORKERS) -> committed artifact"
    SUNBFS_WORKERS="$WORKERS" timeout "$BENCH_TIMEOUT" \
        cargo run -q --release --example graph500_runner -- \
        "$SCALE" "$RANKS" 256 64 "$ROOTS" --json > /dev/null
    BENCH_JSON="$(ls BENCH_"$SCALE"_*.json | head -1)"
    echo "    wrote $BENCH_JSON ($(hmean_of "$BENCH_JSON") harmonic-mean GTEPS;" \
        "load $(wall_of load_seconds "$BENCH_JSON") s," \
        "traverse $(wall_of traverse_seconds "$BENCH_JSON") s," \
        "validate $(wall_of validate_seconds "$BENCH_JSON") s)"

    # --- schema smoke: wall section present and sane ------------------
    grep -Eq '"schema_version": *11' "$BENCH_JSON"
    grep -q '"wall":' "$BENCH_JSON"
    grep -q '"available_parallelism":' "$BENCH_JSON"
    grep -Eq '"workers": *'"$WORKERS" "$BENCH_JSON"
    grep -Eq '"edges_per_second": *[0-9]' "$BENCH_JSON"
    grep -Eq '"validate_root_seconds":' "$BENCH_JSON"
    grep -Eq '"harmonic_mean_gteps": *[0-9]' "$BENCH_JSON"
done

# --- regression gate: the curve must not sink at its anchor point -----
if [ -n "$BASELINE_HMEAN" ] && [ -f BENCH_14_2x2.json ]; then
    FRESH_HMEAN="$(hmean_of BENCH_14_2x2.json)"
    echo "==> regression gate: SCALE-14 harmonic-mean $FRESH_HMEAN vs committed $BASELINE_HMEAN"
    awk -v fresh="$FRESH_HMEAN" -v base="$BASELINE_HMEAN" -v c="$CORES" 'BEGIN {
        if (fresh <= 0) { print "bench gate: non-positive harmonic mean"; exit 1 }
        if (c >= 4 && fresh < base * (1 - 1e-9)) {
            printf "bench gate: SCALE-14 harmonic-mean GTEPS regressed (%g < %g)\n", fresh, base
            exit 1
        }
    }'
fi

# --- wall-clock smoke at the anchor scale -----------------------------
case " $SCALES " in *" 14 "*)
    SERIAL_JSON="$(mktemp)"
    echo "==> serial reference at SCALE 14 (SUNBFS_WORKERS=1)"
    SUNBFS_WORKERS=1 timeout "$BENCH_TIMEOUT" \
        cargo run -q --release --example graph500_runner -- \
        14 "$RANKS" 256 64 "$ROOTS" --json "$SERIAL_JSON" > /dev/null

    SERIAL_EPS="$(eps_of "$SERIAL_JSON")"
    PARALLEL_EPS="$(eps_of BENCH_14_2x2.json)"
    rm -f "$SERIAL_JSON"

    echo "    serial:   $SERIAL_EPS edges/s"
    echo "    parallel: $PARALLEL_EPS edges/s ($CORES cores visible)"

    awk -v s="$SERIAL_EPS" -v p="$PARALLEL_EPS" -v c="$CORES" 'BEGIN {
        if (s <= 0 || p <= 0) { print "bench smoke: non-positive throughput"; exit 1 }
        if (c >= 4 && p < s) {
            printf "bench smoke: parallel (%g) lost to serial (%g) on %d cores\n", p, s, c
            exit 1
        }
        if (p < s / 3) {
            printf "bench smoke: parallel (%g) below overhead bound serial/3 (%g)\n", p, s / 3
            exit 1
        }
    }'
;; esac

echo "bench trajectory OK: $(ls BENCH_*_*.json | tr '\n' ' ')"
