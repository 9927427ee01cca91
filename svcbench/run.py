#!/usr/bin/env python3
"""Service benchmark of rdfmr: builds svcbench from source and runs it.

Benchmark run (the form BENCHMARK.json's "command" takes):

    python3 svcbench/run.py --workload cold_agg --seed 1 --seconds 16 --trace 0

builds the rdfmr libraries and the svcbench program in Release under
.bench_build/svcbench (build output goes to stderr), runs one workload and
passes its stdout through: a host/configuration stamp line, then the result
object as the last line. --trace 1 reports the per-layer metrics instead of
the end-to-end ones and writes a Chrome trace and a self-time table under
.bench_build/svcbench-work/<workload>/.

Steadiness mode runs each workload repeatedly, one seed per run, and prints
every end-to-end metric's median, quartiles and spread (Q3 - Q1 over the
median) against its bound in BENCHMARK.json:

    python3 svcbench/run.py --steadiness --runs 10 [--workloads a,b]

Self-test mode builds and runs the benchmark's own unit tests:

    python3 svcbench/run.py --selftest
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "svcbench")
WORK = os.path.join(ROOT, ".bench_build", "svcbench-work")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; False on any failure."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("svcbench: build step failed: %s" % " ".join(step))
            return False
    return True


def source_id():
    """Git SHA of the checkout, or a digest of src/ when it has no git."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, sha):
    """Runs one workload; returns (exit code, stdout)."""
    cmd = [os.path.join(BUILD, "svcbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", os.path.join(WORK, workload),
           "--git-sha", sha]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("svcbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def steadiness(args, sha):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    worst = 0.0
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            code, out = run_once(workload, seed, seconds, 0, sha)
            result = last_json(out) if code == 0 else None
            if not result or not result["correct"] or result["failed"]:
                log("svcbench: %s seed %d failed" % (workload, seed))
                return 1
            runs.append(result["metrics"])
            stamp = json.loads(out.strip().splitlines()[-2])["stamp"]
            log("svcbench: %s seed %d steal %.4f (kept %.4f, %d groups "
                "replayed, %d set-ups kept, %d redone, hot set %d B, cpu probe "
                "%.4f ms): %s" % (
                workload, seed, stamp["cpu_steal_share"],
                stamp["accepted_steal_share"], stamp["replayed_groups"],
                stamp["setups"], stamp["setup_redos"],
                stamp["warm_cache_bytes"], stamp["cpu_probe_ms"],
                " ".join("%s=%.10g" % (k, v["value"])
                         for k, v in sorted(result["metrics"].items()))))
        print("%s: %d runs, seeds %d..%d, %d s each" % (
            workload, args.runs, args.first_seed,
            args.first_seed + args.runs - 1, seconds))
        print("  %-16s %12s %12s %12s %8s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for name in bounds:
            values = [r[name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bounds[name] / 3 else \
                "  above bound/3" if spread <= bounds[name] else "  ABOVE BOUND"
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print("  %-16s %12.5g %12.5g %12.5g %8.4f %6.2f%s" % (
                name, q1, med, q3, spread, bounds[name], flag))
        sys.stdout.flush()
    print("worst spread/bound (setup_s excluded): %.3f" % worst)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build("svcbench_test"):
            return 1
        return subprocess.run([os.path.join(BUILD, "svcbench_test")]).returncode
    if not build("svcbench"):
        return 1
    sha = source_id()
    if args.steadiness:
        return steadiness(args, sha)
    if not args.workload or args.seconds <= 0:
        parser.error("--workload and --seconds are required")
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace,
                         sha)
    result = last_json(out) if code == 0 else None
    if result is None:
        log("svcbench: no result (exit code %d)" % code)
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
