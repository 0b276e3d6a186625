#!/usr/bin/env python3
"""The repository benchmark: builds perfbench (with slc and slcd) from the
sources of this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); every run gets a fresh temporary directory under
it for journals, crash repros and the slcd socket, deleted afterwards.
The last line of standard output is the result JSON; see README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("gen_o3_cold", "gen_8backends", "gen_child_modes", "slcd_mixed")
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    make = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def run(argv):
    """Runs the benchmark binary in its own process group, so a timeout
    also ends the daemon and children it started."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # Relative paths keep the slcd socket path short.
    tmp_dir = os.path.join(build_dir, "tmp", f"run-{os.getpid()}")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir)
    argv = [os.path.join(build_dir, "perfbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--tmp-dir", tmp_dir,
            "--bin-dir", os.path.join(build_dir, "slc_tools"),
            "--golden", os.path.join(HERE, "golden.json"),
            "--spec", os.path.join(os.path.dirname(HERE), "BENCHMARK.json")]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        argv += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        code, out = run(argv)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("perfbench: no result line", file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
