#!/usr/bin/env python3
"""Symbolise what scripts/prof/sampler.c wrote: inclusive and self tables.

    scripts/prof/symbolise.py prof.txt [--under REGEX]... [--top N]

Every pc goes through its mapping's LOAD segments to a file vaddr and
through `addr2line -a -f -C -i`, so inlined frames count too. Inclusive:
one count per function per sample. Self: the innermost function of the
interrupted frame. `--under` keeps only the samples with a matching
frame (given twice: a frame for each) and reports shares of those.
"""
import argparse
import bisect
import collections
import re
import subprocess

ap = argparse.ArgumentParser()
ap.add_argument("profile")
ap.add_argument("--under", action="append", default=[],
                help="keep samples with a frame matching this regex (repeatable: all must match)")
ap.add_argument("--top", type=int, default=40)
args = ap.parse_args()

maps, samples = [], []  # (start, end, file offset, path), [pc, ...]
for line in open(args.profile):
    kind, _, rest = line.partition(" ")
    if kind == "M":
        f = rest.split()
        if len(f) >= 6 and "x" in f[1] and f[5].startswith("/"):
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5]))
    elif kind == "S":
        samples.append([int(pc, 16) for pc in rest.split()])
maps.sort()
starts = [m[0] for m in maps]


def segments(path, cache={}):
    """LOAD segments of an ELF file as (file offset, file size, vaddr)."""
    if path not in cache:
        out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
        rows = [l.split() for l in out.splitlines() if l.strip().startswith("LOAD")]
        cache[path] = [(int(r[1], 16), int(r[4], 16), int(r[2], 16)) for r in rows]
    return cache[path]


def locate(pc):
    """(path, file vaddr) of a pc, or None outside every file mapping."""
    i = bisect.bisect_right(starts, pc) - 1
    if i < 0 or pc >= maps[i][1]:
        return None
    lo, _, offset, path = maps[i]
    at = pc - lo + offset
    for seg_off, seg_size, vaddr in segments(path):
        if seg_off <= at < seg_off + seg_size:
            return path, at - seg_off + vaddr
    return None


# The handler's own frame and the kernel's signal trampoline lead every
# stack; frame 2 is the interrupted pc, the rest are return addresses
# (minus one: inside the call).
stacks = []
for pcs in samples:
    frames = [locate(pc if d == 0 else pc - 1) for d, pc in enumerate(pcs[2:])]
    stacks.append([f for f in frames if f])

by_path = collections.defaultdict(set)
for stack in stacks:
    for path, vaddr in stack:
        by_path[path].add(vaddr)
names = {}  # (path, vaddr) -> [innermost inlined function, ..., outermost]
for path, vaddrs in by_path.items():
    query = "\n".join(hex(v) for v in sorted(vaddrs))
    out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", path],
                         input=query, capture_output=True, text=True).stdout
    # Per address: its line, then a (function, file:line) pair per
    # inlining level, innermost first.
    for line in out.splitlines():
        if re.fullmatch(r"0x[0-9a-f]+", line):
            frames = names[(path, int(line, 16))] = []
            want_function = True
        else:
            if want_function:
                frames.append(re.sub(r"::h[0-9a-f]{16}$", "", line))
            want_function = not want_function

inclusive, self_time, kept = collections.Counter(), collections.Counter(), 0
for stack in stacks:
    funcs = [name for frame in stack for name in names.get(frame, ["??"])]
    if not funcs or not all(any(re.search(u, f) for f in funcs) for u in args.under):
        continue
    kept += 1
    self_time[funcs[0]] += 1
    inclusive.update(set(funcs))

print(f"{len(samples)} samples, {kept} kept" + "".join(f" under /{u}/" for u in args.under))
for title, table in (("inclusive", inclusive), ("self", self_time)):
    print(f"\n{title:>9}  share  function")
    for name, count in table.most_common(args.top):
        print(f"{count:9d} {100 * count / max(kept, 1):5.1f}%  {name[:120]}")
