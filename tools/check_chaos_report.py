#!/usr/bin/env python3
"""Checks a phoenix_chaos report against the campaign that was asked for.

usage: check_chaos_report.py REPORT BENCH RUNS [WAL_SHARDS]

Fails unless the report names BENCH, counts RUNS runs, records WAL_SHARDS
(default 1; reports omit wal_shards on a single log) and has zero
violations and, where the mode has a twin, zero state-hash divergences.
"""
import json
import sys


def main(argv):
    if len(argv) not in (4, 5):
        sys.exit(__doc__)
    path, bench, runs = argv[1], argv[2], int(argv[3])
    shards = int(argv[4]) if len(argv) == 5 else 1
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
    if bad:
        sys.exit(f"{path}: " + "; ".join(bad))
    print(f"{path}: {bench}, {runs} run(s), {shards} shard(s), 0 violations")


if __name__ == "__main__":
    main(sys.argv)
