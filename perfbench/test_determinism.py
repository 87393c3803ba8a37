#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/test_determinism.py

For each workload, on a short request stream (--size small):
  1. two traced rounds with one seed report identical sim-time end-to-end
     metrics and identical per-layer counts;
  2. an untraced round with that seed reports the same figures as the
     traced ones (tracing does not perturb the simulation);
  3. a round with another seed passes the exactly-once oracle.
It also checks that BENCHMARK.json names exactly the workloads and metrics
run.py reports, with the same units. Exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys

import run

SEED, OTHER_SEED = 7, 8


def run_round(workload, seed, traced):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--traced", "1" if traced else "0", "--size", "small",
           "--trace-dir", run.TRACE_DIR]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_workload(workload):
    problems = []
    a = run_round(workload, SEED, traced=True)
    b = run_round(workload, SEED, traced=True)
    plain = run_round(workload, SEED, traced=False)
    other = run_round(workload, OTHER_SEED, traced=False)
    for name, r in (("first", a), ("second", b), ("untraced", plain),
                    ("other-seed", other)):
        if not r["correct"]:
            problems.append(f"{name} round failed the oracle: {r['errors']}")
    for part in ("sim", "layer_sim"):
        if a[part] != b[part]:
            problems.append(f"{part} differs between two runs of seed {SEED}")
        if a[part] != plain[part]:
            problems.append(f"{part} differs between traced and untraced runs")
    if a["sim"] == other["sim"]:
        problems.append(f"seeds {SEED} and {OTHER_SEED} gave identical figures")
    missing = [m for m in run.PER_LAYER
               if m != "obs.trace_overhead_pct"
               and m not in a["layer_sim"] and m not in a["layer_wall"]
               and not plain["wall"].get(run.UNTRACED_WALL.get(m, ""))]
    if missing:
        problems.append(f"traced round lacks per-layer metrics {missing}")
    return problems


def check_manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != {k: v[0] for k, v in run.END_TO_END.items()}:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if layers != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.py")
    return problems


def main():
    run.build()
    os.makedirs(run.TRACE_DIR, exist_ok=True)
    failures = [f"manifest: {p}" for p in check_manifest()]
    for workload in run.WORKLOADS:
        problems = check_workload(workload)
        print(f"{workload:14s} {'FAIL' if problems else 'ok'}")
        failures += [f"{workload}: {p}" for p in problems]
    for f in failures:
        print(f"  {f}")
    print("PASS" if not failures else "FAIL")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
