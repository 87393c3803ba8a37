#!/usr/bin/env python3
"""Checks a phoenix_chaos report against the campaign that was asked for.

usage: check_chaos_report.py REPORT BENCH RUNS [WAL_SHARDS] [--positive=FIELD]...

Fails unless the report names BENCH, counts RUNS runs, records WAL_SHARDS
(default 1; reports omit wal_shards on a single log) and has zero
violations and, where the mode has a twin, zero state-hash divergences.
Each --positive=FIELD also requires that metric to be present and > 0, so
a code path the campaign must exercise cannot silently drop out.
"""
import json
import sys


def main(argv):
    positive = [a[len("--positive="):] for a in argv[1:]
                if a.startswith("--positive=")]
    args = [a for a in argv[1:] if not a.startswith("--positive=")]
    if len(args) not in (3, 4):
        sys.exit(__doc__)
    path, bench, runs = args[0], args[1], int(args[2])
    shards = int(args[3]) if len(args) == 4 else 1
    report = json.load(open(path))
    m = report["variants"][0]["metrics"]
    checks = [
        ("bench", report["bench"], bench),
        ("runs", m["runs"], runs),
        ("wal_shards", m.get("wal_shards", 1), shards),
        ("violations", m["violations"], 0),
        ("state_hash_divergences", m.get("state_hash_divergences", 0), 0),
    ]
    bad = [f"{k}={got!r}, want {want!r}" for k, got, want in checks
           if got != want]
    bad += [f"{k}={m.get(k)!r}, want > 0" for k in positive
            if not m.get(k, 0) > 0]
    if bad:
        sys.exit(f"{path}: " + "; ".join(bad))
    print(f"{path}: {bench}, {runs} run(s), {shards} shard(s), 0 violations")


if __name__ == "__main__":
    main(sys.argv)
