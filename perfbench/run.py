#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds
`perfbench_cre` (this directory's CMake package, which compiles the
repository's `cre` library) into `.bench_build/`; later runs only check
that the build is current. The program's output is passed through: its
last line is the JSON result
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the line before it the run record (host, configuration, sample
counts). Extra arguments (`--small`, `--corrupt-op <i>`, ...) are passed
to the program. Exits non-zero, printing no result, when the build or the
run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_cre")
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        print("perfbench: no engine sources next to perfbench/", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compiled = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench_cre", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return compiled.returncode == 0 and os.path.isfile(BINARY)


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Relative to the checkout root (the run's working directory), so run
    # records name no absolute path.
    out_dir = os.path.join(os.path.relpath(BUILD, ROOT), "results")
    args = [BINARY] + argv + ["--out-dir", out_dir]
    try:
        run = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                             timeout=RUN_TIMEOUT_S, text=True, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if run.returncode != 0 or last_json_line(run.stdout) is None:
        sys.stderr.write(run.stdout)
        print("perfbench: run failed (exit %d)" % run.returncode, file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
