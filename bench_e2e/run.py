#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of it.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds the
benchmark package (bench_e2e/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls find the
build up to date. Build output goes to stderr, so the last line on stdout is
the benchmark's JSON result. BENCH/TRACE files and the run's AF_UNIX socket
go to <build dir>/e2e-out. The exit code is the benchmark's.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("run.py: no src/CMakeLists.txt here; run it from the root of "
              "a hicsync checkout", file=sys.stderr)
        return 2
    package = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), root)
    # Relative paths keep the socket path short (AF_UNIX allows ~107 bytes).
    build = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                            root)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        step = ["cmake", "-S", package, "-B", build,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return 1
    step = ["cmake", "--build", build, "--target", "bench_e2e", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return 1
    out_dir = os.path.join(build, "e2e-out")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    bench = [os.path.join(build, "bench_e2e"), *sys.argv[1:],
             "--examples", "examples", "--out-dir", out_dir]
    return subprocess.run(bench).returncode


if __name__ == "__main__":
    sys.exit(main())
