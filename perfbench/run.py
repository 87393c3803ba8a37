#!/usr/bin/env python3
"""Repo benchmark runner: builds phx_perfbench, runs rounds, reports metrics.

    python3 perfbench/run.py --workload transfer|crash_restart|bookstore \
        --seed N --seconds S --trace 0|1

--workload all runs the three workloads one after another, each in its own
process, and exits non-zero if any of them fails.

Run from the root of a checkout. The first run builds the program's
sources (src/) together with perfbench/phx_perfbench.cc into .bench_build/.
Each round is one phx_perfbench process that pools several simulations from
sub-seeds of --seed; rounds repeat until --seconds have passed (at least two
rounds).

Sim-time metrics depend only on the seed, so every round of one run must
report them identically; the run fails if they differ. Wall-time metrics
are the median of the per-simulation (per-restart) samples of all rounds. With --trace 0 the last stdout line carries the
end-to-end metrics, with --trace 1 the per-layer metrics of the traced
rounds (untraced and traced rounds alternate). The exit code is 0 only when
every oracle check passed.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench-traces")
BINARY = os.path.join(BUILD_DIR, "phx_perfbench")

WORKLOADS = ("transfer", "crash_restart", "bookstore")

# End-to-end metrics: name -> (unit, where the value comes from).
END_TO_END = {
    "setup_s": ("s", "wall"),
    "req_per_sim_s": ("req/s", "sim"),
    "req_p50_ms": ("ms", "sim"),
    "req_p99_ms": ("ms", "sim"),
    "log_bytes_per_req": ("B", "sim"),
    "peak_rss_mb": ("MB", "wall"),
    "recovery_ms": ("ms", "sim"),
    "first_reply_ms": ("ms", "sim"),
}

# Per-layer metrics: name -> unit. Values come from a round's layer_sim
# (seed-determined counts) or layer_wall (traced-pass timings), except the
# wall-clock speeds of UNTRACED_WALL, taken from the untraced rounds of the
# run, and obs.trace_overhead_pct, which compares untraced and traced rounds.
PER_LAYER = {
    "runtime.req_per_wall_s": "req/s",
    "runtime.call_wall_us_p50": "us",
    "runtime.intercepts_per_req": "count",
    "runtime.retries_per_req": "count",
    "runtime.dedupe_hits": "count",
    "runtime.replay_suppressed": "count",
    "wal.appends_per_req": "count",
    "wal.forces_per_req": "count",
    "wal.bytes_per_force": "B",
    "wal.group_batch_mean": "count",
    "wal.park_ms_per_req": "ms",
    "wal.own_force_wait_ms_per_req": "ms",
    "wal.scan_mb_per_s": "MB/s",
    "sim.disk_ms_per_req": "ms",
    "sim.disk_rot_wait_share": "ratio",
    "recovery.ckpt_published_per_kreq": "count",
    "recovery.state_saves_per_kreq": "count",
    "recovery.ckpt_deferred_per_kreq": "count",
    "recovery.ckpt_lag_ms_p99": "ms",
    "recovery.gc_reclaimed_ratio": "ratio",
    "recovery.log_retained_mb": "MB",
    "recovery.records_scanned": "count",
    "recovery.calls_replayed": "count",
    "recovery.contexts_recovered": "count",
    "recovery.replay_chains": "count",
    "recovery.replay_critical_path_ms": "ms",
    "recovery.replay_makespan_ms": "ms",
    "recovery.replay_fallbacks": "count",
    "recovery.merge_records": "count",
    "recovery.supervisor_attempts": "count",
    "recovery.plan_wall_ms": "ms",
    "recovery.wall_ms": "ms",
    "serde.decode_ns_per_record": "ns",
    "serde.encode_ns_per_record": "ns",
    "common.crc_mb_per_s": "MB/s",
    "obs.trace_overhead_pct": "%",
}

# Program wall-clock speed. Its seed-to-seed spread follows the host's fast
# and slow periods (up to 34 % on a shared VM), beyond any end-to-end bound,
# so it is reported here, ungated.
UNTRACED_WALL = {
    "runtime.req_per_wall_s": "req_per_wall_s",
    "recovery.wall_ms": "recovery_wall_ms",
}

ROUND_TIMEOUT_S = 120
RUN_LIMIT_S = 150


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds phx_perfbench once per checkout (incremental)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"program sources missing: no src/CMakeLists.txt under {ROOT}", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
                configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                             "-DCMAKE_BUILD_TYPE=Release"]
                if shutil.which("ninja"):
                    configure += ["-G", "Ninja"]
                steps.append(configure)
            jobs = str(max(1, min(4, os.cpu_count() or 1)))
            steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                          "--target", "phx_perfbench"])
            for cmd in steps:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=850)
                if done.returncode != 0:
                    log.flush()
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed: " + " ".join(cmd), 3)


def pin_to_one_cpu():
    """Runs this process and its rounds on one CPU of the allowed set;
    returns that set."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    return allowed


def run_round(args, traced):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--traced", "1" if traced else "0", "--trace-dir", TRACE_DIR]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=ROUND_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"phx_perfbench exited {done.returncode}: "
             f"{done.stderr[-2000:]}", 4)
    return json.loads(lines[-1])


def run_rounds(args):
    """Rounds until --seconds have passed; at least one of each kind."""
    kinds = [False, True] if args.trace else [False, False]
    rounds = []
    start = time.monotonic()
    longest = 0.0
    while True:
        traced = kinds[len(rounds) % 2]
        t0 = time.monotonic()
        rounds.append(run_round(args, traced))
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(rounds) >= 2 and (elapsed >= args.seconds or
                                 elapsed + longest > RUN_LIMIT_S):
            return rounds


def check_rounds(rounds):
    """Every round passed the oracle and reported identical sim figures."""
    problems = []
    for i, r in enumerate(rounds):
        for e in r["errors"]:
            problems.append(f"round {i}: {e}")
        if not r["correct"] and not r["errors"]:
            problems.append(f"round {i}: oracle failed")
    first = rounds[0]
    for i, r in enumerate(rounds[1:], start=1):
        for part in ("sim", "layer_sim"):
            if r[part] != first[part]:
                diff = sorted(k for k in first[part]
                              if r[part].get(k) != first[part][k])
                problems.append(f"round {i} {part} differs from round 0 "
                                f"(same seed): {', '.join(diff)}")
    return problems


def median_of(rounds, part, name):
    """Median of a figure over rounds; wall figures are lists of samples
    (one per simulation or restart), pooled over all rounds first. A round
    that failed early may lack the figure; 0 when no round has it."""
    if part == "wall":
        values = [x for r in rounds for x in r["wall"].get(name, [])]
    else:
        values = [r[part][name] for r in rounds if name in r[part]]
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(rounds):
    out = {}
    for name, (unit, part) in END_TO_END.items():
        out[name] = {"value": median_of(rounds, part, name), "unit": unit}
    return out


def per_layer_metrics(rounds):
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    out = {}
    for name, unit in PER_LAYER.items():
        if name in UNTRACED_WALL:
            value = median_of(plain, "wall", UNTRACED_WALL[name])
        elif name == "obs.trace_overhead_pct":
            fast = median_of(plain, "wall", "req_per_wall_s")
            slow = median_of(traced, "wall", "req_per_wall_s")
            value = (fast / slow - 1.0) * 100.0 if slow else 0.0
        elif name in traced[0]["layer_sim"]:
            value = traced[0]["layer_sim"][name]
        else:
            value = median_of(traced, "layer_wall", name)
        out[name] = {"value": value, "unit": unit}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__),
                                 "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        sys.exit(max(codes))

    build()
    os.makedirs(TRACE_DIR, exist_ok=True)
    cpus = pin_to_one_cpu()
    rounds = run_rounds(args)
    problems = check_rounds(rounds)

    first = rounds[0]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    metrics = (per_layer_metrics(rounds) if args.trace
               else end_to_end_metrics(rounds))

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          f"  cpu {os.sched_getaffinity(0)} of allowed {cpus}")
    print(f"  {'failed_req_ratio':34s} {first['sim']['failed_req_ratio']:.6g}"
          f" ratio ({failed}/{attempted})")
    print(f"  {'latency_samples':34s} {first['sim']['latency_samples']:.0f}"
          " per round")
    served = sum(first["mix"].values())
    if served:
        print(f"  {'mix served':34s} " + ", ".join(
            f"{method} {calls / served:.1%}"
            for method, calls in first["mix"].items()))
    plain = [r for r in rounds if not r["traced"]]
    print(f"  {'req_per_wall_s':34s} "
          f"{median_of(plain, 'wall', 'req_per_wall_s'):.6g} req/s (ungated)")
    print(f"  {'recovery_wall_ms':34s} "
          f"{median_of(plain, 'wall', 'recovery_wall_ms'):.6g} ms (ungated)")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"  ORACLE/DETERMINISM FAILURE: {p}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
