#!/usr/bin/env python3
"""Run one perfbench workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the driver
(perfbench/CMakeLists.txt, a Release build of src/ plus the driver) into
$CARGO_TARGET_DIR or .bench_build, runs one workload, prints every metric
the run measured with its unit, then prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. The full report (environment stamp,
every metric, per-rate serve accounting) is also written to
.perfbench_results/. Exit codes: 0 ran (see "correct"), 1 build or run
failure, 2 usage.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table1-generate", "fig-eval", "serve-closed", "serve-openloop")

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configure and build the driver; returns its path or None."""
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"),
        "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=sys.stderr) != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return None
        cmd = ["cmake", "--build", build_dir, "--target", "perfbench_driver",
               "-j", str(os.cpu_count() or 1)]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return None
    return os.path.join(build_dir, "perfbench_driver")


def git_stamp(root):
    """Commit and dirty flag when the checkout is a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")) or not shutil.which("git"):
        return None, None
    try:
        commit = subprocess.check_output(
            ["git", "-C", root, "rev-parse", "HEAD"], text=True,
            stderr=subprocess.DEVNULL).strip()
        status = subprocess.check_output(
            ["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
            text=True, stderr=subprocess.DEVNULL)
        return commit, bool(status.strip())
    except (OSError, subprocess.CalledProcessError):
        return None, None


def source_digest(root):
    """SHA-256 over the files the driver is built from: identifies the
    code measured when there is no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    driver = build(root)
    if driver is None:
        log("perfbench: build failed")
        return 1

    work = os.path.join(".perfbench_work", "%s-%d" % (args.workload, os.getpid()))
    cmd = [driver, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + work,
           "--catalog=" + os.path.join(root, "examples", "data"),
           "--reference=" + HERE]
    results = ".perfbench_results"
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    os.makedirs(results, exist_ok=True)
    span_dump = None
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(60.0, 3 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return 1
    finally:
        spans = os.path.join(work, "spans-%s.ndjson" % args.workload)
        if os.path.exists(spans):
            span_dump = os.path.join(results, stem + "-spans.ndjson")
            shutil.move(spans, span_dump)
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log("perfbench: driver exited with %d" % proc.returncode)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if span_dump:
        report["detail"]["span_dump"] = span_dump

    commit, dirty = git_stamp(root)
    report["env"].update({"commit": commit, "dirty": dirty,
                          "source_sha256": source_digest(root),
                          "workload": args.workload, "trace": args.trace,
                          "seconds": args.seconds,
                          "wall_s": round(time.monotonic() - start, 3)})

    # The driver reports every per-layer metric on a traced run (0 for a
    # layer the workload does not run), so a missing one is a fault.
    measured = report["metrics"]
    metrics, problems = {}, []
    for m in wanted:
        name = m["name"]
        if name not in measured:
            problems.append("%s: not measured" % name)
            continue
        value = measured[name]["value"]
        if value is None or not math.isfinite(value):
            problems.append("%s: not a finite number" % name)
            continue
        if not args.trace and value <= 0:
            problems.append("%s: reads %r" % (name, value))
        metrics[name] = {"value": value, "unit": m["unit"]}

    correct = report["failed"] == 0 and report["attempted"] > 0 and not problems
    result = {"correct": correct, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}

    out_path = os.path.join(results, stem + ".json")
    with open(out_path, "w") as f:
        json.dump(dict(report, result=result, problems=problems), f, indent=1)

    env = report["env"]
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    print("env: %s build (%s), %s, %s x%d, commit %s%s, sources %s" % (
        env["build_type"], env["cxx_flags"].strip(), env["compiler"], env["cpu"],
        env["nproc"], env["commit"] or "unknown", " (dirty)" if env["dirty"] else "",
        env["source_sha256"][:12]))
    print("ops: attempted %d, failed %d" % (report["attempted"], report["failed"]))
    for reason in report.get("failures", []):
        print("  failure: %s" % reason)
    for reason in problems:
        print("  problem: %s" % reason)
    for name in sorted(measured):
        print("%-44s %16.6f %s" % (name, measured[name]["value"],
                                   measured[name]["unit"]))
    for key, value in sorted(report["detail"].items()):
        print("%s: %s" % (key, json.dumps(value)))
    print("report: %s" % out_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
