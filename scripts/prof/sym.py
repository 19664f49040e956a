#!/usr/bin/env python3
"""Turns prof.so's output into two tables: each thread name's share of the
samples, and the functions on the stacks of the threads whose name starts
with --threads, by inclusive count (a function counts once per sample it
appears in) and by self count (the innermost frame)."""
import argparse
import collections
import re
import subprocess

ap = argparse.ArgumentParser()
ap.add_argument("samples")
ap.add_argument("--threads", default="bargain-replica", help="thread-name prefix")
ap.add_argument("--top", type=int, default=40)
args = ap.parse_args()

maps, bases, stacks = [], {}, []
with open(args.samples) as f:
    for line in f:
        if line.strip() == "--":
            break
        m = re.match(r"([0-9a-f]+)-([0-9a-f]+) \S+ ([0-9a-f]+) \S+ \S+\s+(/\S+)", line)
        if m:
            lo, hi, off = (int(x, 16) for x in m.groups()[:3])
            maps.append((lo, hi, m.group(4)))
            if off == 0:
                bases.setdefault(m.group(4), lo)
    for line in f:
        thread, _, pcs = line.rstrip("\n").partition("\t")
        stacks.append((thread, [int(pc, 16) for pc in pcs.split()]))


def locate(pc):
    """(object file, address relative to its load base) of a program counter."""
    for lo, hi, path in maps:
        if lo <= pc < hi:
            return path, pc - bases.get(path, lo)
    return None, pc


# The handler's own frame and the signal trampoline come first: drop the
# frames inside prof.so and the one after them. Every remaining frame but
# the innermost is a return address, so look up the byte before it.
cleaned, wanted = [], collections.defaultdict(set)
for thread, pcs in stacks:
    own = [i for i, pc in enumerate(pcs) if (locate(pc)[0] or "").endswith("prof.so")]
    pcs = pcs[own[-1] + 2:] if own else pcs
    frames = [locate(pc - (1 if i else 0)) for i, pc in enumerate(pcs)]
    for path, addr in frames:
        if path:
            wanted[path].add(addr)
    cleaned.append((thread, frames))

names = {}
for path, addrs in wanted.items():
    addrs = sorted(addrs)
    out = subprocess.run(
        ["addr2line", "-f", "-C", "-e", path] + [hex(a) for a in addrs],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    for addr, func in zip(addrs, out[::2]):
        # Drop the hash rustc appends.
        func = re.sub(r"::h[0-9a-f]{16}$", "", func)
        names[path, addr] = func if func != "??" else "%s+%#x" % (path.rsplit("/", 1)[-1], addr)

by_thread = collections.Counter(re.sub(r"-?\d+$", "", t) for t, _ in cleaned)
total = sum(by_thread.values())
print("%d samples" % total)
for thread, n in by_thread.most_common():
    print("%6d %5.1f%%  %s" % (n, 100.0 * n / total, thread))

inclusive, leaf, picked = collections.Counter(), collections.Counter(), 0
for thread, frames in cleaned:
    if not thread.startswith(args.threads) or not frames:
        continue
    picked += 1
    funcs = [names.get(f, "?") for f in frames]
    leaf[funcs[0]] += 1
    inclusive.update(set(funcs))
for title, table in (("inclusive", inclusive), ("self", leaf)):
    print("\n%s, %d samples on %s*" % (title, picked, args.threads))
    for func, n in table.most_common(args.top):
        print("%6d %5.1f%%  %s" % (n, 100.0 * n / max(picked, 1), func))
