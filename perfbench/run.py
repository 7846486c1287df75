#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first run configures and builds perfbench/CMakeLists.txt (the analysis
libraries plus the benchmark program) into .bench_build; later runs only re-check the
build. The program's stdout is passed through, so the last line is its JSON
result. --smoke runs every workload of BENCHMARK.json briefly, traced and
untraced, and checks that each run is correct and prints every metric of
BENCHMARK.json with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark program; False on any failure."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no analysis sources under ./src; run from the repository root")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log("cannot run %s: %s" % (cmd[0], err))
            return False
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def run_program(workload, seed, seconds, trace, capture=False):
    """Runs one workload; returns (exit code, stdout text or None)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK_DIR]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    return done.returncode, done.stdout


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_program(w["name"], 1, 2, trace, capture=True)
            lines = (out or "").strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                log("%s trace %d: no JSON result" % (w["name"], trace))
                ok = False
                continue
            problems = []
            if code != 0 or result.get("correct") is not True:
                problems.append("run not correct (exit %d)" % code)
            metrics = result.get("metrics", {})
            for m in spec[section]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("missing " + m["name"])
                elif got.get("unit") != m["unit"]:
                    problems.append("%s unit %r, expected %r"
                                    % (m["name"], got.get("unit"), m["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[section]}
            if extra:
                problems.append("metrics not in BENCHMARK.json: "
                                + ", ".join(sorted(extra)))
            log("smoke %s trace %d: %s" % (w["name"], trace,
                                           "; ".join(problems) or "ok"))
            ok = ok and not problems
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if not args.smoke and not args.workload:
        p.error("--workload is required")
    if not build():
        return 1
    if args.smoke:
        return 0 if smoke() else 1
    code, _ = run_program(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
