#!/usr/bin/env python3
"""The repository benchmark's entry point (see BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree. It builds perfbench/ (which builds
the ExoCC libraries from src/) into $CARGO_TARGET_DIR, or .bench_build when
that is unset, runs one workload, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json when --trace is 0, and every
per_layer metric when it is 1. A per-layer metric the workload does not
exercise reads 0. The line before it ("run {...}") records the seed, git
SHA, host, nproc, `cc --version`, the thread count and every metric the
binary measured. Traced runs also write a Chrome trace file, named in that
line. All scratch files stay inside the build directory.

Exits 0 when every output was correct, 1 when one was wrong, and 2 when
the benchmark cannot run (no sources, failed build, bad arguments).
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, log):
    """Runs a build step, sending its output to the log; True on success."""
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode == 0


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no ExoCC sources (src/CMakeLists.txt) under " + root)
    obj = os.path.join(build_dir, "perfbench")
    log = os.path.join(build_dir, "build.log")
    os.makedirs(obj, exist_ok=True)
    if not os.path.isfile(os.path.join(obj, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_quiet(["cmake", "-S", src, "-B", obj] + gen, log):
            fail("configuring failed; see " + log)
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", obj, "--target", "exo_perfbench",
                      "-j", jobs], log):
        fail("building failed; see " + log)
    return os.path.join(obj, "exo_perfbench")


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.splitlines()[0].strip() if out.stdout else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    return first_line(["git", "-C", root, "rev-parse", "HEAD"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)

    # Host compiles and JIT modules go to per-run temp dirs under TMPDIR,
    # which the binary removes at exit; keep that root inside the tree.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace_file = os.path.join(build_dir, "traces", tag + ".json")
    os.makedirs(os.path.dirname(trace_file), exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2 or not lines[-2].startswith("info "):
        fail("the benchmark binary exited with %d and no result" % proc.returncode)
    info = json.loads(lines[-2][len("info "):])
    result = json.loads(lines[-1])

    # The contract: the end-to-end metrics untraced, the per-layer ones
    # traced, each under its BENCHMARK.json name and unit.
    measured = result["metrics"]
    known = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in measured.items():
        if name not in known or known[name]["unit"] != m["unit"]:
            fail("metric %s (%s) is not in BENCHMARK.json" % (name, m["unit"]))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            metrics[m["name"]] = measured[m["name"]]
        elif args.trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail("end-to-end metric %s was not measured" % m["name"])

    run = dict(info)
    run.update({
        "git_sha": git_sha(root),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cc_version": first_line(["cc", "--version"]),
        "measured": measured,
    })
    if args.trace:
        run["trace_file"] = os.path.relpath(trace_file, root)
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(run, f, indent=1)

    print("run " + json.dumps(run))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
