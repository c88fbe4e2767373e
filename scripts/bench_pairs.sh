#!/usr/bin/env bash
# Parent/change pairs of the frozen benchmark on one workload.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <n> [seconds]
#
# Exports <parent-rev> into $TMPDIR/bench_pairs.<sha> (kept, so a second
# call on the same parent does not build it again), builds sunbfs_bench
# there and in this working tree (release, --offline), then runs <n>
# pairs of untraced runs. Pair k runs both sides on seed k, and the side
# that goes first alternates from pair to pair. For each of the six
# end-to-end metrics it prints every pair's values, both sides' medians
# and quartiles, and the pairs the change won (ties count for neither),
# then two verdicts: whether the change is a gain by docs/PERF.md's rule
# (it won at least 9 pairs in 10, and its median is better than the
# parent's by more than the parent's interquartile range), and whether
# its median is worse than the parent's by more than the metric's
# BENCHMARK.json bound. Last comes the failed-operation share of each
# side. Run length is BENCHMARK.json's run_seconds unless [seconds] is
# given.
#
# It adds nothing to sunbfs_bench/ or BENCHMARK.json; each side writes
# its run records under its own sunbfs_bench/out/, and the per-run JSON
# lines are kept in a fresh directory it prints.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <parent-rev> <workload> <n> [seconds]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3
seconds=${4:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
case "$pairs" in '' | *[!0-9]*) echo "$0: n must be a positive integer, got $pairs" >&2; exit 2 ;; esac
[ "$pairs" -gt 0 ] || { echo "$0: n must be at least 1" >&2; exit 2; }

sha=$(git rev-parse --verify --short "$rev^{commit}")
parent="${TMPDIR:-/tmp}/bench_pairs.$sha"
if [ ! -d "$parent" ]; then
    mkdir "$parent.part"
    git archive "$sha" | tar -x -C "$parent.part"
    mv "$parent.part" "$parent"
fi
runs=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs_runs.XXXXXX")
echo "parent tree $parent, run lines $runs" >&2

build() {
    cp "$1/sunbfs_bench/Cargo.lock" "$runs/Cargo.lock"
    (cd "$1" && cargo build --release --offline --quiet --manifest-path sunbfs_bench/Cargo.toml)
    # Without --locked cargo prunes the frozen lock file; put it back.
    cp "$runs/Cargo.lock" "$1/sunbfs_bench/Cargo.lock"
}
build "$parent"
build .

# run <side> <root> <seed>: one untraced run, its JSON line kept (a
# failed check still prints the line, with "correct": false).
run() {
    echo "== $workload seed $3: $1" >&2
    (cd "$2" && sunbfs_bench/target/release/sunbfs_bench --workload "$workload" \
        --seed "$3" --seconds "$seconds" --trace 0) | tail -n 1 > "$runs/$1.$3.json" ||
        echo "== $1 exited non-zero" >&2
}
for k in $(seq 1 "$pairs"); do
    if [ $((k % 2)) -eq 1 ]; then
        run parent "$parent" "$k"
        run change . "$k"
    else
        run change . "$k"
        run parent "$parent" "$k"
    fi
done

python3 - "$runs" "$pairs" "$workload" <<'EOF'
import json, statistics, sys

runs, pairs, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bench = json.load(open("BENCHMARK.json"))
side = {s: [json.load(open(f"{runs}/{s}.{k}.json")) for k in range(1, pairs + 1)]
        for s in ("parent", "change")}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{workload}: {pairs} pairs, parent vs change")
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in side["parent"]]
    c = [r["metrics"][name]["value"] for r in side["change"]]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    pm, cm = statistics.median(p), statistics.median(c)
    (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
    print(f"\n{name} ({m['unit']}, {m['better']} is better, bound {m['bound']:.0%})")
    print("  pairs: " + ", ".join(f"{a:.4g} -> {b:.4g}" for a, b in zip(p, c)))
    print(f"  parent median {pm:.4g} [q1 {p1:.4g}, q3 {p3:.4g}]")
    print(f"  change median {cm:.4g} [q1 {c1:.4g}, q3 {c3:.4g}]")
    print(f"  change {100 * (cm - pm) / pm:+.1f} % at the median; wins {wins}/{pairs}; "
          f"median gap {abs(cm - pm):.4g} vs parent IQR {p3 - p1:.4g}")
    better = cm < pm if lower else cm > pm
    gain = 10 * wins >= 9 * pairs and better and abs(cm - pm) > p3 - p1
    print(f"  gain rule (>= 9/10 wins, median gap > parent IQR): "
          f"{'met' if gain else 'not met'}")
    limit = pm * (1 + m["bound"]) if lower else pm * (1 - m["bound"])
    worse = cm > limit if lower else cm < limit
    print(f"  bound: change median {'WORSE than' if worse else 'within'} "
          f"the {m['bound']:.0%} bound ({limit:.4g})")
for s in ("parent", "change"):
    attempted = sum(r["attempted"] for r in side[s])
    failed = sum(r["failed"] for r in side[s])
    correct = all(r["correct"] for r in side[s])
    print(f"\n{s}: {failed}/{attempted} operations failed, every run correct: {correct}")
EOF
