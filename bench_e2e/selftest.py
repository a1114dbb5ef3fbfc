#!/usr/bin/env python3
"""ctest checks of bench_e2e (registered by bench_e2e/CMakeLists.txt).

    selftest.py smoke|deterministic BENCH_E2E_BINARY REPO_ROOT

smoke          every workload at --smoke, untraced and traced: exit 0, every
               metric BENCHMARK.json names for that mode printed exactly once
               as `name value unit` with its unit, the JSON result line
               complete and correct with no failed operation, and the BENCH
               report written.
deterministic  the smoke runs twice with one seed: the modelled and
               hardware metrics must be identical.
"""
import json
import os
import re
import subprocess
import sys

WORKLOADS = ["compile-corpus", "compile-analyses", "sim-arb8", "sim-ed32",
             "rt-fig1"]
# Modelled and hardware metrics: a function of the inputs alone.
DETERMINISTIC = re.compile(
    r"^(fmax_mhz_geomean|luts_total|ffs_total|handoff_mhz|fpga\.(arb|ed)\d+\..*"
    r"|memorg\.stall_cycles_per_round\..*|memorg\.port_util_pct"
    r"|sim\.round_latency_cycles|memorg\.nets|bound\.worklist_steps"
    r"|nlint\.facts)$")


def smoke_run(binary, root, workload, trace, out_dir):
    cmd = [binary, "--workload", workload, "--smoke", "--seed", "1",
           "--trace", str(trace), "--examples", os.path.join(root, "examples"),
           "--out-dir", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_output(workload, trace, rc, lines, specs, out_dir):
    errors = []
    where = f"{workload} --trace {trace}"
    if rc != 0:
        errors.append(f"{where}: exit {rc}")
    if not lines:
        return errors + [f"{where}: no output"]
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        if line.startswith("#"):
            continue
        name, _, unit = line.split(" ")
        printed.setdefault(name, []).append(unit)
    for name, unit in specs.items():
        if printed.get(name) != [unit]:
            errors.append(f"{where}: {name} printed as {printed.get(name)}, "
                          f"want once with unit {unit}")
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            errors.append(f"{where}: {name} missing from the JSON result")
    extra = set(result["metrics"]) - set(specs)
    if extra:
        errors.append(f"{where}: unexpected metrics {sorted(extra)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
    report = os.path.join(out_dir, f"BENCH_e2e_{workload}"
                          f"{'_traced' if trace else ''}.json")
    with open(report) as f:
        json.load(f)
    return errors


def main():
    mode, binary, root = sys.argv[1], sys.argv[2], sys.argv[3]
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    specs = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    out_dir = os.path.join(os.path.dirname(os.path.abspath(binary)),
                           f"selftest-{mode}")
    os.makedirs(out_dir, exist_ok=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, lines = smoke_run(binary, root, workload, trace, out_dir)
            errors += check_output(workload, trace, rc, lines, specs[trace],
                                   out_dir)
            if mode != "deterministic" or errors:
                continue
            _, again = smoke_run(binary, root, workload, trace, out_dir)
            first = json.loads(lines[-1])["metrics"]
            second = json.loads(again[-1])["metrics"]
            for name in first:
                if DETERMINISTIC.match(name) and first[name] != second[name]:
                    errors.append(f"{workload} --trace {trace}: {name} "
                                  f"{first[name]['value']} then "
                                  f"{second[name]['value']}")
    for e in errors:
        print(e)
    print(f"{mode}: {'FAIL' if errors else 'ok'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
