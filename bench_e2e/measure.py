#!/usr/bin/env python3
"""Runs bench_e2e repeatedly and summarizes each metric's spread.

    python3 bench_e2e/measure.py [--runs 10] [--trace 0|1] [--seed 1]
        [--workloads compile-corpus,...] [--seconds S] [--out DIR]

Run it from the repository root. Run i of a workload uses seed `--seed + i`
and, unless --seconds says otherwise, BENCHMARK.json's run_seconds.
For every workload and metric it prints the median, the quartiles from
statistics.quantiles(n=4) and their distance as a share of the median (the
spread BENCHMARK.json's bounds are checked against), plus each run's wall
time. With --out it also writes DIR/runs.jsonl (one record per run),
DIR/summary.json (with two or more runs) and DIR/fingerprint.json (nproc,
CPU model, compiler, build type, commit) -- the form of the committed
baseline.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ["compile-corpus", "compile-analyses", "sim-arb8", "sim-ed32",
             "rt-fig1"]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench_e2e/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return {"workload": workload, "seed": seed, "trace": trace,
            "started": round(started, 1), "exit": proc.returncode,
            "wall_s": round(wall, 3), "result": result}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def fingerprint(build_dir):
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "commit": commit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.seconds is None:
        with open("BENCHMARK.json") as f:
            args.seconds = json.load(f)["run_seconds"]

    records = []
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.seed + i, args.seconds, args.trace)
                for i in range(args.runs)]
        records += runs
        good = [r for r in runs if r["exit"] == 0 and r["result"]
                and r["result"]["correct"]]
        ok = ok and len(good) == len(runs)
        walls = [r["wall_s"] for r in runs]
        print(f"{workload}: {len(good)}/{len(runs)} correct, wall "
              f"{min(walls):.1f}-{max(walls):.1f} s")
        if len(good) < 2:
            continue
        summary[workload] = {}
        for name in good[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in good]
            s = spread(values)
            summary[workload][name] = s
            print(f"  {name:40s} median {s['median']:<14.6g} q1 "
                  f"{s['q1']:<14.6g} q3 {s['q3']:<14.6g} spread "
                  f"{100 * s['spread']:6.2f}%")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "runs.jsonl"), "w") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")
        if summary:
            with open(os.path.join(args.out, "summary.json"), "w") as f:
                json.dump(summary, f, indent=2)
                f.write("\n")
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        with open(os.path.join(args.out, "fingerprint.json"), "w") as f:
            json.dump(fingerprint(build), f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
