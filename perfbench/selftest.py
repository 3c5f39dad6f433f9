#!/usr/bin/env python3
"""Self-test of the rtoc benchmark.

Runs a tiny run (1 s) of every workload of BENCHMARK.json, untraced and
traced, and asserts that each run prints every declared metric by name
with its unit (as a human-readable line and in the final JSON line) and
that no output check failed (fail_frac 0). Exits non-zero on the first
violation.

Usage: python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = bench["command"] + ["--workload", w["name"], "--seed", "7",
                                      "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            label = "%s trace=%d" % (w["name"], trace)
            if proc.returncode != 0:
                print("FAIL %s: exit %d\n%s" % (label, proc.returncode,
                                                proc.stderr[-2000:]))
                failures += 1
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            problems = []
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("result keys %s" % sorted(result))
            if result["failed"] != 0 or not result["correct"]:
                problems.append("fail_frac %d/%d" % (result["failed"],
                                                     result["attempted"]))
            want = {m["name"]: m["unit"] for m in bench[kind]}
            if set(result["metrics"]) != set(want):
                problems.append("metric names differ: %s" % sorted(
                    set(result["metrics"]) ^ set(want)))
            for name, unit in want.items():
                got = result["metrics"].get(name, {})
                if got.get("unit") != unit or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append("%s: %s" % (name, got))
                if not any(l.startswith(name + " ") and l.endswith(" " + unit)
                           for l in lines[:-1]):
                    problems.append("%s not printed with unit %s" %
                                    (name, unit))
            if not any(l.startswith("fail_frac 0.0000") for l in lines):
                problems.append("fail_frac line missing or non-zero")
            print("%s %s" % ("FAIL" if problems else "ok", label))
            for p in problems:
                print("  " + p)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
