#!/usr/bin/env python3
"""Tiny-size smoke run of every workload in BENCHMARK.json.

    smoke_test.py <perfbench binary> <BENCHMARK.json>

Runs each workload at --smoke size, untraced and traced, and checks that the
last line is the result object with exactly the contract's keys, that the
run is correct, and that every end-to-end (untraced) or per-layer (traced)
metric named in BENCHMARK.json is printed with its unit and a finite value.
"""
import json
import math
import os
import shutil
import subprocess
import sys


def check_run(binary, workload, trace, expected, work_dir):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke", "--work-dir", work_dir]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}\n{out.stdout}{out.stderr}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result.get('attempted')}")
    if not isinstance(result.get("failed"), int):
        errors.append(f"{where}: failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{where}: missing {sorted(set(expected) - set(metrics))}"
                      f", unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{where}: {name} unit {m.get('unit')} != {unit}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{where}: {name} value {v}")
    return errors


def main():
    binary, bench_path = sys.argv[1], sys.argv[2]
    with open(bench_path) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    work_dir = os.path.join(os.getcwd(), "smoke-work")
    errors = []
    for w in bench["workloads"]:
        errors += check_run(binary, w["name"], 0, e2e, work_dir)
        errors += check_run(binary, w["name"], 1, layer, work_dir)
    shutil.rmtree(work_dir, ignore_errors=True)
    for e in errors:
        print(e)
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
