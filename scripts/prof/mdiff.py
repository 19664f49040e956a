#!/usr/bin/env python3
"""Heap calls per operation, per thread name, from two mcount runs.

    mdiff.py LONG_COUNTS LONG_JSON SHORT_COUNTS SHORT_JSON

Each COUNTS file is what mcount.so wrote for one `e2e` run and each JSON
file that run's output (its last line carries `attempted`). The long run's
counts minus the short run's, over the difference in `attempted`, cancel
what both runs share: the boots, the warm-up, the checks and the exit.
See README.md.
"""
import json
import sys


def counts(path):
    with open(path) as f:
        header = f.readline().split()[1:]
        rows = {}
        for line in f:
            name, *values = line.rstrip("\n").split("\t")
            rows[name] = [int(v) for v in values]
    return header, rows


def attempted(path):
    with open(path) as f:
        return json.loads(f.read().strip().splitlines()[-1])["attempted"]


def main(long_counts, long_json, short_counts, short_json):
    kinds, long_rows = counts(long_counts)
    _, short_rows = counts(short_counts)
    ops = attempted(long_json) - attempted(short_json)
    if ops <= 0:
        sys.exit("the long run attempted no more operations than the short one")
    print(f"per operation, over {ops} operations")
    print("thread".ljust(16) + "".join(k.rjust(10) for k in kinds) + "allocs".rjust(10))
    names = sorted(long_rows, key=lambda n: (n == "total", n))
    for name in names:
        short = short_rows.get(name, [0] * len(kinds))
        per = [(a - b) / ops for a, b in zip(long_rows[name], short)]
        allocs = sum(v for k, v in zip(kinds, per) if k != "free")
        print(name.ljust(16) + "".join(f"{v:10.2f}" for v in per) + f"{allocs:10.2f}")


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    main(*sys.argv[1:])
