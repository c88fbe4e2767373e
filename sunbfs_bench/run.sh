#!/usr/bin/env bash
# One command for the whole benchmark: build it, run the four workloads
# untraced and traced, and print every metric by name.
#
#   sunbfs_bench/run.sh                       one set, seed 1, 15 s per run
#   sunbfs_bench/run.sh --sets 2 --check-agree
#       run the set twice; fail if an end-to-end median moved by more
#       than its bound between sets, or a count marked "=" differs
#   sunbfs_bench/run.sh --spread 10
#       untraced runs on 10 seeds per workload (what the driver does);
#       prints each end-to-end metric's quartile spread next to its bound
#
# Records land in sunbfs_bench/out/ (ignored by git). The exit status is
# non-zero if any run was incorrect or --check-agree found a difference.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
sets=1
spread=0
check=""
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --sets) sets=$2; shift 2 ;;
        --spread) spread=$2; shift 2 ;;
        --check-agree) check=--check-agree; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --manifest-path sunbfs_bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-sunbfs_bench/target}/release/sunbfs_bench"
out=sunbfs_bench/out
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

status=0
# run <directory> <workload> <seed> <trace>: one process, its record kept.
run() {
    mkdir -p "$1"
    rm -f "$out/$2.trace$4.json"
    echo "== $2 seed $3 trace $4" >&2
    "$bin" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4" \
        >"$1/$2.trace$4.log" || status=1
    # A run that died before its record leaves none; summarize.py says so.
    cp "$out/$2.trace$4.json" "$1/" 2>/dev/null || status=1
}

if [ "$spread" -gt 0 ]; then
    rm -rf "$out/spread"
    for w in $workloads; do
        for s in $(seq 1 "$spread"); do
            run "$out/spread/seed$s" "$w" "$s" 0
        done
    done
    python3 sunbfs_bench/summarize.py --spread "$out/spread" || status=1
    exit $status
fi

for k in $(seq 1 "$sets"); do
    rm -rf "$out/set$k"
    for w in $workloads; do
        for t in 0 1; do
            run "$out/set$k" "$w" "$seed" "$t"
        done
    done
done
dirs=$(for k in $(seq 1 "$sets"); do echo "$out/set$k"; done)
# shellcheck disable=SC2086
python3 sunbfs_bench/summarize.py $check $dirs | tee "$out/summary.txt" || status=1
exit $status
