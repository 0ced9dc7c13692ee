#!/usr/bin/env python3
"""Plaid benchmark entry point.

Run from the root of a Plaid checkout:

    python3 perfbench/run.py --workload map_plaid [--seed 2025] [--seconds S] [--trace 0|1]

--seconds defaults to BENCHMARK.json's run_seconds, the run length its
bounds were measured at.

Builds the benchmark program (perfbench/src) and the Plaid libraries from
source with dune, runs one workload, checks that its result names exactly
the metrics BENCHMARK.json defines for the mode (end-to-end when untraced,
per-layer when traced), and relays the program's output.  The last line of
stdout is the result object.  Exits 2 without a result when the checkout
cannot be built or an argument is bad, and 1 when the program fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "src", "main.exe")
OUT_DIR = ".perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git") and shutil.which("git"):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if rev.returncode == 0:
            return "git:" + rev.stdout.strip()
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def check_result(line, expected):
    """The result line's problems against the metrics BENCHMARK.json names."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    problems = []
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted is not a positive whole number")
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        problems.append("failed is not a whole number")
    metrics = res["metrics"]
    if set(metrics) != set(expected):
        problems.append("metrics differ from BENCHMARK.json: %s" % sorted(set(metrics) ^ set(expected)))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append("%s has unit %r, not %r" % (name, m.get("unit"), unit))
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append("%s is not a finite number" % name)
    return problems


def main():
    ap = argparse.ArgumentParser(description="Run one Plaid benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2025)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(2, "cannot read BENCHMARK.json: %s" % e)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        die(2, "--seconds must be positive")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(2, "unknown workload %r" % args.workload)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die(2, "run from the root of a Plaid checkout (dune-project and lib/ are missing)")
    dune = shutil.which("dune")
    if dune is None:
        die(2, "dune is not on PATH")

    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/src/main.exe"],
            capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(2, "build timed out")
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        die(2, "build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(1, "workload ran past %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die(1, "benchmark program exited with %d" % proc.returncode)

    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    lines = proc.stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], expected)
    if problems:
        sys.stderr.write(proc.stdout)
        die(1, "; ".join(problems))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
