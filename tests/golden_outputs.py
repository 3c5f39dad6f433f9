#!/usr/bin/env python3
"""Golden-output check: regenerate the paper's figure outputs and diff.

Runs every bench and example listed in GOLDEN below from a build tree,
twice: serially against a cold private disk cache, then at
RTOC_THREADS=4 against the now-warm cache. Every RTOC_* variable of
the caller is cleared first, so only the thread count and the private
cache directory differ between the two runs. Each output is masked by
one rule (mask_payload) and compared byte for byte with its committed
copy under tests/golden/.

Stdout goldens are compared as printed. The --json payloads drop their
`manifest` and `metrics` sections (build fingerprint, thread count,
counters that depend on cache warmth), and bench_dse's experiments
drop their host times and cache-provenance counts.

Usage:
    golden_outputs.py --build BUILD_DIR [--work DIR] [--update]

--update rewrites tests/golden/ from the serial cold run. Use it only
when a change means to move a simulated result, and say why in the
same change.
"""

import argparse
import difflib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

# (golden file name, binary relative to the build tree, arguments).
# A ".json" golden is the masked --json payload; the others are stdout.
GOLDEN = [
    ("bench_fig10_pareto.txt", "bench/bench_fig10_pareto", []),
    ("bench_fig15_scenarios.txt", "bench/bench_fig15_scenarios", []),
    ("bench_fig16_hil.txt", "bench/bench_fig16_hil", []),
    ("bench_fig17_disturbance.txt", "bench/bench_fig17_disturbance", []),
    ("bench_fig18_swap.txt", "bench/bench_fig18_swap", []),
    ("bench_sec53_concurrent.txt", "bench/bench_sec53_concurrent", []),
    ("bench_tab1_variants.txt", "bench/bench_tab1_variants", []),
    ("bench_ablation_design.txt", "bench/bench_ablation_design", []),
    ("quickstart.txt", "examples/quickstart", []),
    ("drone_tracking.txt", "examples/drone_tracking", []),
    ("swap_study.txt", "examples/swap_study", []),
    ("bench_cross_plant.json", "bench/bench_cross_plant", ["--smoke"]),
    ("bench_relin.json", "bench/bench_relin", ["--smoke"]),
    ("bench_dse.json", "bench/bench_dse", ["--smoke"]),
]

# (name, RTOC_THREADS, start from an empty cache directory)
MODES = [("serial-cold", "1", True), ("4-thread-warm", "4", False)]

# Host wall times and cache-provenance counts of bench_dse's
# experiments: they vary with machine load and cache warmth, never
# with the simulated result.
DSE_HOST_FIELDS = ("grid_s", "search_s", "replays", "memo_hits",
                   "disk_hits")


def mask_payload(doc):
    """The one masking rule shared by every --json golden."""
    doc.pop("manifest", None)
    doc.pop("metrics", None)
    for exp in doc.get("experiments", []):
        for field in DSE_HOST_FIELDS:
            exp.pop(field, None)
    return json.dumps(doc, indent=1) + "\n"


def run_one(build, work, name, rel, args, env):
    cmd = [os.path.join(build, rel)] + args
    payload = None
    if name.endswith(".json"):
        payload = os.path.join(work, name)
        cmd.append("--json=" + payload)
    proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s exited %d" % (" ".join(cmd),
                                             proc.returncode))
    if payload is None:
        return proc.stdout
    with open(payload) as f:
        return mask_payload(json.load(f))


def run_mode(build, work, threads, cold):
    cache = os.path.join(work, "cache")
    if cold:
        shutil.rmtree(cache, ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("RTOC_")}
    env["RTOC_THREADS"] = threads
    env["RTOC_CACHE_DIR"] = cache
    return {name: run_one(build, work, name, rel, args, env)
            for name, rel, args in GOLDEN}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", required=True, help="CMake build tree")
    ap.add_argument("--work", help="scratch directory (default: "
                    "BUILD/golden_work)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite tests/golden/ from the serial cold run")
    opts = ap.parse_args()
    build = os.path.abspath(opts.build)
    work = os.path.abspath(opts.work or os.path.join(build, "golden_work"))
    os.makedirs(work, exist_ok=True)

    failures = 0
    for mode, threads, cold in MODES:
        outputs = run_mode(build, work, threads, cold)
        if opts.update and cold:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            for name, text in outputs.items():
                with open(os.path.join(GOLDEN_DIR, name), "w") as f:
                    f.write(text)
        for name, text in outputs.items():
            path = os.path.join(GOLDEN_DIR, name)
            try:
                with open(path) as f:
                    want = f.read()
            except FileNotFoundError:
                want = ""
            if text == want:
                continue
            failures += 1
            print("%s: %s differs from tests/golden/%s" % (mode, name, name))
            diff = difflib.unified_diff(
                want.splitlines(True), text.splitlines(True),
                "golden/" + name, mode + "/" + name)
            sys.stdout.writelines(list(diff)[:60])
        print("%s: %d outputs checked" % (mode, len(outputs)))
    if failures:
        print("FAIL: %d golden output(s) moved" % failures)
        return 1
    print("all golden outputs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
