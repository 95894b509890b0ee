#!/usr/bin/env python3
"""VBMC benchmark: builds the harness from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form prints the per-check ledger, the metrics with their units,
and as its last line the result object
{"correct", "attempted", "failed", "metrics"}; it exits non-zero on a
wrong verdict or when the harness cannot be built or run. --smoke is the
benchmark's self-test: one check per workload in both trace modes, every
metric name of BENCHMARK.json present with its unit, and the verdict check
shown to reject a flipped reference.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; the harness compiles the repository's own sources from src/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["table1_bugs", "litmus_observer", "serve_corpus"]
RUN_TIMEOUT_S = 170


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures and builds the harness; returns its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", "perfbench", "-B", out,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "vbmc_perfbench",
              "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: the last stdout line is the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "vbmc_perfbench")


def harness(binary, workload, seed, seconds, trace, extra=()):
    """Runs the harness; returns (exit code, stdout)."""
    # A relative socket directory keeps the daemon's socket path short.
    sockets = os.path.relpath(os.path.abspath(build_dir()), ROOT)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--corpus", "perfbench/corpus", "--socket-dir", sockets, *extra]
    # Its own process group, so a timeout also stops the serve workers.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 3, ""
    return p.returncode, out


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = harness(binary, w, 1, 0, trace, ["--smoke"])
            res = result_of(out)
            if code != 0 or not res or res["correct"] is not True:
                problems.append("%s trace %d: exit %d" % (w, trace, code))
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: v["unit"] for n, v in res["metrics"].items()}
            if got != want:
                problems.append("%s trace %d: metrics %s, want %s"
                                % (w, trace, sorted(got), sorted(want)))
            if res["attempted"] < 1 or res["failed"] != 0:
                problems.append("%s trace %d: attempted %d failed %d"
                                % (w, trace, res["attempted"], res["failed"]))
            print("smoke %-16s trace %d ok (%d checks)"
                  % (w, trace, res["attempted"]))
        # The verdict check itself: a flipped reference must fail the run.
        code, out = harness(binary, w, 1, 0, 0,
                            ["--smoke", "--invert-reference"])
        res = result_of(out)
        if code != 1 or not res or res["correct"] is not False:
            problems.append("%s: flipped reference not rejected (exit %d)"
                            % (w, code))
        else:
            print("smoke %-16s flipped reference rejected" % w)
    for p in problems:
        print("SMOKE FAIL: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload or --smoke is required")

    os.chdir(ROOT)
    binary = build()
    if not binary:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    if args.smoke:
        return smoke(binary)
    code, out = harness(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
