#!/usr/bin/env python3
"""Read the run records run.sh collected and print them as tables.

summarize.py [--check-agree] SET_DIR...   one or more full sets
summarize.py --spread SPREAD_DIR          untraced runs on several seeds

Exit status 1 if a record is missing or incorrect, if --check-agree
finds an end-to-end metric that moved between sets by more than its
bound or a count marked "=" that differs, or if --spread finds a
quartile spread above a bound.
"""
import json
import pathlib
import statistics
import sys

BENCH = json.load(open(pathlib.Path(__file__).parent.parent / "BENCHMARK.json"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
BOUND = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}

problems = []


def load(directory, workload, traced):
    path = pathlib.Path(directory) / f"{workload}.trace{traced}.json"
    if not path.exists():
        problems.append(f"{path}: no record (the run died)")
        return None
    record = json.load(open(path))
    if not record["correct"]:
        problems.append(f"{path}: incorrect: {record['failures'][:3]}")
    return record


def print_metrics(record):
    for name, m in record["metrics"].items():
        exact = " =" if name in record["exact"] else ""
        n = record["samples"][name]
        print(f"  {name:<40} {m['value']:>18.6f} {m['unit']:<9} n={n}{exact}")


def sets(directories, check):
    for workload in WORKLOADS:
        runs = [(load(d, workload, 0), load(d, workload, 1)) for d in directories]
        for k, (plain, traced) in enumerate(runs, 1):
            if plain is None or traced is None:
                continue
            print(f"\n== {workload}, set {k}: seed {plain['seed']}, {plain['seconds']} s, "
                  f"fail_share {plain['fail_share']:.6f} ({plain['failed']}/{plain['attempted']}), "
                  f"noisy {plain['noisy']}")
            print(" end to end (untraced run):")
            print_metrics(plain)
            print(" per layer (traced run):")
            print_metrics(traced)
            overhead = (traced["metrics"]["trace.op_ms_p50"]["value"]
                        / plain["metrics"]["op_ms_p50"]["value"] - 1)
            print(f"  {'trace_overhead_share':<40} {overhead:>18.6f} share")
        if not check:
            continue
        records = [r for pair in runs for r in pair if r is not None]
        # Counts marked "=" repeat exactly for a seed: traced or not, any set.
        seen = {}
        for r in records:
            for name, m in r["exact"].items():
                first = seen.setdefault(name, m["value"])
                if first != m["value"]:
                    problems.append(f"{workload}: {name} differs between runs: "
                                    f"{first!r} vs {m['value']!r}")
        plains = [p for p, _ in runs if p is not None]
        for name, bound in BOUND.items():
            values = [p["metrics"][name]["value"] for p in plains]
            if len(values) > 1 and (max(values) - min(values)) / min(values) > bound:
                problems.append(f"{workload}: {name} moved by more than {bound:.0%} "
                                f"between sets: {values}")
    if check and not problems:
        print("\nsets agree: every end-to-end metric within its bound, every = count identical")


def spread(directory):
    seeds = sorted(pathlib.Path(directory).glob("seed*"))
    print(f"quartile spread over {len(seeds)} seeds, as a share of the median "
          f"(! = above the bound, ~ = above a third of it)")
    for workload in WORKLOADS:
        records = [r for r in (load(d, workload, 0) for d in seeds) if r is not None]
        noisy = sum(r["noisy"] for r in records)
        print(f"\n== {workload} ({len(records)} runs, {noisy} noisy)")
        for name, bound in BOUND.items():
            values = [r["metrics"][name]["value"] for r in records]
            if len(values) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / q2
            mark = "!" if share > bound else "~" if share > bound / 3 else " "
            print(f"  {name:<16} median {q2:>14.6f}  spread {share:>7.4f}  bound {bound:.2f} {mark}")
            if share > bound and name != "setup_s":
                problems.append(f"{workload}: {name} spread {share:.3f} is above its bound {bound}")


def main(argv):
    if argv[:1] == ["--spread"] and len(argv) == 2:
        spread(argv[1])
    elif argv and not argv[-1].startswith("--"):
        check = argv[0] == "--check-agree"
        sets(argv[1:] if check else argv, check)
    else:
        sys.exit(__doc__)
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


main(sys.argv[1:])
