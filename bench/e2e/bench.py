#!/usr/bin/env python3
"""One measurement of the end-to-end mediator benchmark.

    python3 bench/e2e/bench.py --workload W --seed N --trace 0|1 [--seconds S]
                               [--commit SHA] [--results DIR]
    python3 bench/e2e/bench.py --self-test

Builds build-e2e/aqv_bench from source in Release when needed (the build
output goes to stderr), runs it from the checkout root and prints every
metric as `<workload> <metric> <value> <unit> n=<samples>`. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics, where metrics holds exactly what BENCHMARK.json lists
for the mode: the end_to_end metrics with --trace 0, the per_layer ones
with --trace 1. The full result, provenance included, is written to
<results>/<workload>-s<seed>[-trace].json, and a traced run's spans to
<results>/<workload>.spans.json.

--self-test runs answer_cold for one second with one answer row corrupted
on arrival. It exits 1 when the run completed and the correctness gate
rejected it for that row (an (exact) or (certain) answer that disagrees
with direct), and 0 when the run proved nothing: it passed, crashed, or
failed for another reason.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BUILD_DIR = "build-e2e"
BINARY = os.path.join(BUILD_DIR, "aqv_bench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "bench/e2e", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "aqv_bench",
                           "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0 and os.path.exists(BINARY)


def run(cmd):
    """Runs the benchmark binary; returns its exit code (None on timeout)."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("bench.py: the run took longer than %d s" % RUN_TIMEOUT_S)
        return None


def self_test(results):
    """Returns 1 when the gate caught the corrupted row and nothing else
    went wrong, 0 when it proved nothing."""
    out = os.path.join(results, "self-test.json")
    if os.path.exists(out):
        os.remove(out)
    code = run([BINARY, "--workload", "answer_cold", "--seed", "1", "--seconds", "1",
                "--self-test", "--out", out])
    try:
        with open(out) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = None
    caught = ("(exact) rows differ", "(certain) rows are not a subset")
    expected = caught + ("in-process replay differs",)
    messages = result["checks"]["messages"] if result else []
    if (result and code == 1 and result["attempted"] > 0 and result["failed"] == 0
            and result["checks"]["violations"] > 0
            and any(c in m for m in messages for c in caught)
            and all(any(e in m for e in expected) for m in messages)):
        log("self-test: the corrupted answer row was caught (exit 1)")
        return 1
    log("self-test FAILED: exit %s, checks %s" % (code, result and result["checks"]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--commit", default="unknown")
    parser.add_argument("--results", default=os.path.join("bench", "e2e", "results"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)

    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        log("bench.py: cannot read BENCHMARK.json: %s" % err)
        return 1
    if not build():
        log("bench.py: build failed")
        return 1

    os.makedirs(args.results, exist_ok=True)
    if args.self_test:
        return self_test(args.results)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log("bench.py: --workload must be one of %s" % ", ".join(workloads))
        return 2
    suffix = "-trace" if args.trace else ""
    out = os.path.join(args.results, "%s-s%d%s.json" % (args.workload, args.seed, suffix))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--out", out, "--commit", args.commit]
    if args.trace:
        cmd += ["--trace", os.path.join(args.results, args.workload + ".spans.json")]
    if os.path.exists(out):
        os.remove(out)
    code = run(cmd)
    try:
        with open(out) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        log("bench.py: the run wrote no result (exit %s)" % code)
        return 1

    metrics = result["metrics"]
    for name, m in metrics.items():
        print("%s %s %.6g %s n=%d" % (args.workload, name, m["value"], m["unit"], m["n"]))
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        log("bench.py: the run did not report %s" % ", ".join(missing))
        return 1
    print(json.dumps({
        "correct": bool(result["correct"]) and code == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in wanted},
    }))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
