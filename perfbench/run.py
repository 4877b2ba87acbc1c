#!/usr/bin/env python3
"""Build and run the rtsc repository benchmark.

    python3 perfbench/run.py --workload ring|mpeg2_traced|sched_campaign \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/ with CMake in Release
mode; later runs only re-check the build. Every run then executes the
benchmark's self-tests and the benchmark binary, checks that its result
line names exactly the metrics BENCHMARK.json declares for the mode, and
prints its output. The last line of standard output is the result
JSON. Exit status is non-zero, with no result printed, when the build, the
self-tests or the benchmark binary fail. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ring", "mpeg2_traced", "sched_campaign")
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s once built
BUILD_TIMEOUT_S = 840


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then (re)build the three perfbench targets."""
    if shutil.which("cmake") is None:
        die("cmake not found")
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        # Serialise concurrent runs in one checkout around the build.
        fcntl.flock(lock, fcntl.LOCK_EX)
        # A configure that failed leaves a cache but no build file.
        if not any(os.path.exists(os.path.join(cmake_dir, f))
                   for f in ("build.ninja", "Makefile")):
            cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            step(cmd, "configure")
        step(["cmake", "--build", cmake_dir, "--parallel", "2", "--target",
              "rtsc_perfbench", "perfbench_selftest", "perfbench_validate"],
             "build")
    return cmake_dir


def step(cmd, what):
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(what + " timed out")
    if res.returncode != 0:
        sys.stderr.write(res.stdout[-8000:])
        die(what + " failed")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        die("last output line is not JSON: " + line[:200])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        die("result keys are " + ", ".join(sorted(res)))
    want = declared_metrics(trace)
    if want is not None and sorted(res["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(res["metrics"]))
        extra = sorted(set(res["metrics"]) - set(want))
        die("metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (missing, extra))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        die("--seed must be >= 0 and --seconds in 1..60")
    trace = args.trace == "1"

    build_dir = os.path.join(ROOT, ".bench_build")
    cmake_dir = build(build_dir)
    selftest = subprocess.run([os.path.join(cmake_dir, "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stderr)
        die("self-tests failed")

    # Exports, journals and span files go here; the binary deletes each
    # export and journal once measured. Clear what an aborted run left.
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        if ".perfetto.json" in name or name.endswith(".journal"):
            os.remove(os.path.join(out_dir, name))

    cmd = [os.path.join(cmake_dir, "rtsc_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", out_dir,
           "--validator", os.path.join(cmake_dir, "perfbench_validate")]
    started = time.monotonic()
    # Own process group, so a timeout also stops the campaign's workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        die("benchmark binary exited with status %d" % proc.returncode)
    lines = stdout.rstrip("\n").split("\n")
    check_result(lines[-1], trace)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print("run took %.1f s" % (time.monotonic() - started))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
