#!/usr/bin/env python3
"""Summarise a pcsample run: the share of samples per function (or line).

    python3 tools/pcsample_report.py PREFIX [--top N] [--lines]

PREFIX is the PCSAMPLE_OUT value the sampled run used: PREFIX.pcs holds
the raw program counters (little-endian uint64 each) and PREFIX.maps the
copy of /proc/self/maps taken at start. Each sample is mapped to its
object file and to a function (and, with --lines, a source line) by
addr2line; samples outside any file-backed mapping (vdso, JIT, anonymous
memory) count as [unmapped]. See tools/pcsample.cpp for how to record.
"""

import argparse
import bisect
import collections
import struct
import subprocess
import sys


def read_maps(path):
    """Executable file-backed mappings as sorted (start, end, offset, file)."""
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split(maxsplit=5)
            if len(parts) < 6 or "x" not in parts[1] or not parts[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            maps.append((start, end, int(parts[2], 16), parts[5].strip()))
    maps.sort()
    return maps


def is_position_independent(path):
    """ET_DYN objects (shared libraries, PIE) are addressed by file offset."""
    try:
        with open(path, "rb") as f:
            header = f.read(18)
    except OSError:
        return True
    return len(header) == 18 and struct.unpack_from("<H", header, 16)[0] == 3


def symbolize(path, addrs, lines):
    """addr -> 'function' or 'function (file:line)' via one addr2line call."""
    if not addrs:
        return {}
    out = subprocess.run(["addr2line", "-f", "-C", "-e", path],
                         input="\n".join(hex(a) for a in addrs), capture_output=True,
                         text=True, check=False).stdout.splitlines()
    names = {}
    for i, a in enumerate(addrs):
        func = out[2 * i] if 2 * i < len(out) else "??"
        where = out[2 * i + 1].split(" (discriminator")[0] if 2 * i + 1 < len(out) else "??:0"
        names[a] = f"{func} ({where.rsplit('/', 1)[-1]})" if lines else func
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("prefix")
    ap.add_argument("--top", type=int, default=30, help="rows to print (default 30)")
    ap.add_argument("--lines", action="store_true", help="group by source line, not function")
    args = ap.parse_args()

    with open(args.prefix + ".pcs", "rb") as f:
        raw = f.read()
    pcs = [pc for (pc,) in struct.iter_unpack("<Q", raw[: len(raw) - len(raw) % 8])]
    if not pcs:
        sys.exit(f"{args.prefix}.pcs: no samples")
    maps = read_maps(args.prefix + ".maps")
    starts = [m[0] for m in maps]

    pic = {path: is_position_independent(path) for _, _, _, path in maps}
    per_object = collections.defaultdict(collections.Counter)  # file -> addr -> samples
    unmapped = 0
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            unmapped += 1
            continue
        start, _, offset, path = maps[i]
        per_object[path][pc - start + offset if pic[path] else pc] += 1

    totals = collections.Counter()
    for path, counts in per_object.items():
        names = symbolize(path, sorted(counts), args.lines)
        obj = path.rsplit("/", 1)[-1]
        for a, n in counts.items():
            totals[f"{names.get(a, '??')}  [{obj}]"] += n
    if unmapped:
        totals["[unmapped]"] += unmapped

    print(f"{len(pcs)} samples")
    for name, n in totals.most_common(args.top):
        print(f"{100.0 * n / len(pcs):6.2f}%  {n:8d}  {name}")


if __name__ == "__main__":
    main()
