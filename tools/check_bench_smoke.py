#!/usr/bin/env python3
"""Sanity-checks the F5 and F12 google/benchmark JSON reports.

Asserts the cached-index machinery actually engaged during the run:
every F5 Indexed:1 evaluation benchmark must report a nonzero
`index_hits` counter and zero `index_builds` (the setup primes the
caches, so a warm run that builds anything — or hits nothing — means
the cache is broken or disabled), and every Indexed:0 baseline must
report zero `index_hits`.

Also asserts the persisted-extents claims of the F12 storage suite:
every Mmap:1 persisted-answer benchmark must produce answers through
warm cached indexes (index_hits > 0, index_builds == 0) and hold its
post-answer resident growth below the on-disk database size
(`rss_answer_mb < file_mb` — the point of the mmap backend), while the
Mmap:0 eager baseline must still answer identically (same `answers`
counter as its mmap twin).

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


def check_f5(suite):
    checked = 0
    for bench in suite.get("benchmarks", []):
        name = bench.get("name", "")
        if "Indexed:" not in name:
            continue
        hits = bench.get("index_hits")
        builds = bench.get("index_builds")
        if hits is None or builds is None:
            fail(f"{name}: missing index_hits/index_builds counters")
        if "Indexed:1" in name:
            if hits <= 0:
                fail(f"{name}: warm run reported index_hits={hits}")
            if builds != 0:
                fail(f"{name}: warm run reported index_builds={builds}")
        else:
            if hits != 0:
                fail(f"{name}: cold baseline reported index_hits={hits}")
        checked += 1

    if checked == 0:
        fail("no Indexed:* benchmarks found in bench_f5_eval_speedup")
    return checked


def check_f12(suite):
    checked = 0
    answers = {}  # (size) -> {mmap_flag: answers} for cross-backend equality
    for bench in suite.get("benchmarks", []):
        name = bench.get("name", "")
        if "BM_F12_SelectiveAnswerPersisted" not in name or "Mmap:" not in name:
            continue
        mmap = "Mmap:1" in name
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
        if mmap and bench["rss_answer_mb"] >= bench["file_mb"]:
            fail(f"{name}: mmap backend resident growth "
                 f"({bench['rss_answer_mb']:.1f} MiB) is not below the "
                 f"database size ({bench['file_mb']:.1f} MiB)")
        size_key = name.split("size:")[-1].split("/")[0]
        answers.setdefault(size_key, {})[mmap] = bench["answers"]
        checked += 1

    if checked == 0:
        fail("no SelectiveAnswerPersisted benchmarks in bench_f12_storage")
    for size, by_backend in answers.items():
        if len(by_backend) == 2 and by_backend[True] != by_backend[False]:
            fail(f"F12 size {size}: mmap and columnar backends disagree "
                 f"({by_backend[True]} vs {by_backend[False]} answers)")
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
