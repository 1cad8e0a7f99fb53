#!/usr/bin/env python3
"""Quick self-test of the benchmark: runs every workload once untraced and
once traced, with the shortest run length, and asserts that each run ends
with a result line that reports every metric ``BENCHMARK.json`` names, in
the unit it names, with no failed solver run.

Usage: python3 perfbench/selftest.py   (about two minutes on 2 cores)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from common import BENCH_DIR, ROOT


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", workload, "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=False)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct {result['correct']}, failed "
                                f"{result['failed']} of {result['attempted']}")
            for metric in expected[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{where}: {metric['name']} not reported")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} in {got['unit']}, "
                                    f"not {metric['unit']}")
            print(f"{where}: {len(result['metrics'])} metrics", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
