#!/usr/bin/env python3
"""Sanity-checks the F5 and F12 google/benchmark JSON reports.

Asserts the cached-index machinery actually engaged during the run:
every F5 evaluation benchmark (DirectOverBase, ViaRewriting,
SelectiveAnswer) must report a nonzero `index_hits` counter and zero
`index_builds` (the setup primes the caches, so a warm run that builds
anything — or hits nothing — means the cache is broken or disabled).

Also asserts the persisted-extents claims of the F12 storage suite:
every persisted-answer benchmark must produce answers through warm
cached indexes (index_hits > 0, index_builds == 0) and hold its
post-answer resident growth below the on-disk database size
(`rss_answer_mb < file_mb` — the point of the mmap backend).

Write the reports with each binary's own flags, e.g.
  build/bench/bench_f5_eval_speedup --benchmark_min_time=0 \
      --benchmark_out=f5.json --benchmark_out_format=json

Usage: tools/check_bench_smoke.py F5.json F12.json
"""

import json
import sys


def fail(msg):
    print(f"check_bench_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


F5_EVAL_BENCHMARKS = ("BM_F5_DirectOverBase/", "BM_F5_ViaRewriting/",
                      "BM_F5_SelectiveAnswer/")


def check_f5(suite):
    checked = 0
    for bench in suite.get("benchmarks", []):
        name = bench.get("name", "")
        if not name.startswith(F5_EVAL_BENCHMARKS):
            continue
        hits = bench.get("index_hits")
        builds = bench.get("index_builds")
        if hits is None or builds is None:
            fail(f"{name}: missing index_hits/index_builds counters")
        if hits <= 0:
            fail(f"{name}: warm run reported index_hits={hits}")
        if builds != 0:
            fail(f"{name}: warm run reported index_builds={builds}")
        checked += 1

    if checked == 0:
        fail("no evaluation benchmarks found in bench_f5_eval_speedup")
    return checked


def check_f12(suite):
    checked = 0
    for bench in suite.get("benchmarks", []):
        name = bench.get("name", "")
        if "BM_F12_SelectiveAnswerPersisted" not in name:
            continue
        for counter in ("answers", "index_hits", "index_builds", "file_mb",
                        "rss_answer_mb"):
            if bench.get(counter) is None:
                fail(f"{name}: missing {counter} counter")
        if bench["answers"] <= 0:
            fail(f"{name}: persisted answer produced no rows")
        if bench["index_hits"] <= 0:
            fail(f"{name}: warm persisted run reported "
                 f"index_hits={bench['index_hits']}")
        if bench["index_builds"] != 0:
            fail(f"{name}: warm persisted run reported "
                 f"index_builds={bench['index_builds']}")
        if bench["rss_answer_mb"] >= bench["file_mb"]:
            fail(f"{name}: mmap backend resident growth "
                 f"({bench['rss_answer_mb']:.1f} MiB) is not below the "
                 f"database size ({bench['file_mb']:.1f} MiB)")
        checked += 1

    if checked == 0:
        fail("no SelectiveAnswerPersisted benchmarks in bench_f12_storage")
    return checked


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} F5.json F12.json")
    checked = check_f5(load(sys.argv[1]))
    f12_checked = check_f12(load(sys.argv[2]))
    print(f"check_bench_smoke: OK ({checked} F5 benchmarks, "
          f"{f12_checked} F12 benchmarks checked)")


if __name__ == "__main__":
    main()
