#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload report_paper --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the program's libraries
from src/ plus the benchmark binary, Release) under .bench_build/; later
calls rebuild incrementally. The binary's output is passed through; its
last line is the JSON result. Scratch files (stores, spill files) live in
.bench_build/work/ and are removed when the run ends; traced runs leave
their span report in .bench_build/traces/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no program sources under {ROOT / 'src'}; run from a full checkout")
        sys.exit(2)
    jobs = str(len(os.sched_getaffinity(0)))
    # Build output goes to stderr so the result stays the last stdout line.
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", target],
        check=True, stdout=sys.stderr)
    return BUILD_DIR / target


def metric_names(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def run_workload(args):
    binary = build("perfbench")
    work = BUILD_ROOT / "work" / f"{args.workload}-{os.getpid()}"
    traces = BUILD_ROOT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["TMPDIR"] = str(work)  # paper-scale spill files stay in the checkout
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", str(BENCH_DIR / "digests.txt"),
           "--work-dir", str(work), "--trace-dir", str(traces)]
    last = ""
    try:
        with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                              text=True) as child:
            for line in child.stdout:
                sys.stdout.write(line)
                sys.stdout.flush()
                if line.strip():
                    last = line
            code = child.wait()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        return code
    # The result must carry exactly the metrics BENCHMARK.json declares.
    result = json.loads(last)
    expected = metric_names("per_layer" if args.trace else "end_to_end")
    if sorted(result["metrics"]) != sorted(expected):
        log(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json "
            f"{sorted(expected)}")
        return 3
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["report_paper", "peering_paper",
                                 "serve_xi_sweep"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()
    try:
        if args.selftest:
            return subprocess.run([str(build("perfbench_selftest"))]).returncode
        if args.workload is None:
            parser.error("--workload is required")
        return run_workload(args)
    except subprocess.CalledProcessError as error:
        log(f"build failed: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
