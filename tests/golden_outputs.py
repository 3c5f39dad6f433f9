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

After the serial cold run, every `prog` entry of the private cache is
read back, and no two may carry the same payload: each distinct
emitted stream has one key, so it is emitted and stored once.

Then, at the same thread count and against the same warm cache, the
bench_cross_plant payload is regenerated once per KNOB_RUNS setting.
Each must equal the warm default payload with only `manifest` dropped:
the counters in `metrics` must not move either, and the fault run must
register no sched.* or fault.* metric.

Usage:
    golden_outputs.py --build BUILD_DIR [--work DIR] [--update]

--update rewrites tests/golden/ from the serial cold run. Use it only
when a change means to move a simulated result, and say why in the
same change.
"""

import argparse
import difflib
import hashlib
import json
import os
import shutil
import struct
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
    ("bench_fig01_flop_breakdown.txt", "bench/bench_fig01_flop_breakdown",
     []),
    ("bench_fig03_matlib_vs_handopt.txt",
     "bench/bench_fig03_matlib_vs_handopt", []),
    ("bench_fig04_lmul.txt", "bench/bench_fig04_lmul", []),
    ("bench_fig05_fusion.txt", "bench/bench_fig05_fusion", []),
    ("bench_fig06_gemmini_static.txt", "bench/bench_fig06_gemmini_static",
     []),
    ("bench_fig07_gemmini_spad.txt", "bench/bench_fig07_gemmini_spad", []),
    ("bench_fig09_sync_granularity.txt",
     "bench/bench_fig09_sync_granularity", []),
    ("bench_fig11_saturn_frontend.txt", "bench/bench_fig11_saturn_frontend",
     []),
    ("bench_fig12_gemmini_breakdown.txt",
     "bench/bench_fig12_gemmini_breakdown", []),
    ("bench_fig13_kernel_comparison.txt",
     "bench/bench_fig13_kernel_comparison", []),
    ("bench_sec43_codegen.txt", "bench/bench_sec43_codegen", []),
    ("bench_sched_rt.txt", "bench/bench_sched_rt", ["--smoke"]),
    ("bench_schedule.txt", "bench/bench_schedule", ["--smoke"]),
    ("quickstart.txt", "examples/quickstart", []),
    ("drone_tracking.txt", "examples/drone_tracking", []),
    ("swap_study.txt", "examples/swap_study", []),
    ("codegen_flow.txt", "examples/codegen_flow", []),
    ("plant_zoo.txt", "examples/plant_zoo", []),
    ("bench_cross_plant.json", "bench/bench_cross_plant", ["--smoke"]),
    ("bench_relin.json", "bench/bench_relin", ["--smoke"]),
    ("bench_dse.json", "bench/bench_dse", ["--smoke"]),
    ("bench_precision.json", "bench/bench_precision", ["--smoke"]),
]

# (name, RTOC_THREADS, start from an empty cache directory)
MODES = [("serial-cold", "1", True), ("4-thread-warm", "4", False)]

# Settings that must leave a warm bench_cross_plant payload unchanged,
# metrics included: the explicit off spelling of the schedule layer,
# the explicit default numeric format, and a fault trace armed in a
# binary that never enters the real-time scheduler.
KNOB_RUNS = [("RTOC_SCHED", "0"), ("RTOC_FORMAT", "f32"),
             ("RTOC_FAULT", "spike@2+1x2.5")]
KNOB_GOLDEN = "bench_cross_plant.json"

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


def run(build, work, rel, args, env, payload=None):
    """Run one binary; return its stdout, or its --json doc."""
    cmd = [os.path.join(build, rel)] + args
    if payload is not None:
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
        return json.load(f)


def run_one(build, work, name, rel, args, env):
    if not name.endswith(".json"):
        return run(build, work, rel, args, env)
    return mask_payload(run(build, work, rel, args, env,
                            os.path.join(work, name)))


def mode_env(work, threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RTOC_")}
    env["RTOC_THREADS"] = threads
    env["RTOC_CACHE_DIR"] = os.path.join(work, "cache")
    return env


def run_mode(build, work, threads, cold):
    if cold:
        shutil.rmtree(os.path.join(work, "cache"), ignore_errors=True)
    env = mode_env(work, threads)
    return {name: run_one(build, work, name, rel, args, env)
            for name, rel, args in GOLDEN}


# DiskCache file envelope: magic, then the fingerprint, namespace and
# key (u32 length + bytes each), the u64 payload length, the payload
# and a u64 checksum, all little-endian.
CACHE_MAGIC = b"RTOCCHE1"


def prog_entries(cache):
    """(key, payload) of every prog-*.rtoc file under cache."""
    for name in sorted(os.listdir(cache)):
        if not (name.startswith("prog-") and name.endswith(".rtoc")):
            continue
        with open(os.path.join(cache, name), "rb") as f:
            blob = f.read()
        if not blob.startswith(CACHE_MAGIC):
            raise RuntimeError("%s: not a cache entry" % name)
        pos = len(CACHE_MAGIC)
        fields = []
        for _ in range(3):  # fingerprint, namespace, key
            (n,) = struct.unpack_from("<I", blob, pos)
            fields.append(blob[pos + 4:pos + 4 + n].decode())
            pos += 4 + n
        (n,) = struct.unpack_from("<Q", blob, pos)
        yield fields[2], blob[pos + 8:pos + 8 + n]


def check_streams_stored_once(work):
    """Report each prog entry whose payload an earlier one holds;
    returns their count."""
    first = {}
    failures = 0
    entries = 0
    for key, payload in prog_entries(os.path.join(work, "cache")):
        entries += 1
        digest = hashlib.sha256(payload).digest()
        if digest in first:
            failures += 1
            print("one stream stored under two keys: %s and %s"
                  % (first[digest], key))
        else:
            first[digest] = key
    print("streams: %d prog entries, %d stored twice" % (entries, failures))
    return failures


def check_knobs(build, work, threads):
    """KNOB_RUNS against the last mode's warm cache; returns failures."""
    _, rel, args = next(g for g in GOLDEN if g[0] == KNOB_GOLDEN)
    with open(os.path.join(work, KNOB_GOLDEN)) as f:
        base = json.load(f)
    base.pop("manifest")
    want = json.dumps(base, indent=1, sort_keys=True) + "\n"
    failures = 0
    for var, value in KNOB_RUNS:
        env = mode_env(work, threads)
        env[var] = value
        doc = run(build, work, rel, args, env,
                  os.path.join(work, "knob_" + KNOB_GOLDEN))
        doc.pop("manifest")
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        knob = "%s=%s" % (var, value)
        leaked = [k for k in doc.get("metrics", {})
                  if k.startswith(("sched.", "fault."))]
        if var == "RTOC_FAULT" and leaked:
            failures += 1
            print("%s: leaked metrics %s" % (knob, leaked))
        if text != want:
            failures += 1
            print("%s: %s differs from the warm default payload"
                  % (knob, KNOB_GOLDEN))
            diff = difflib.unified_diff(
                want.splitlines(True), text.splitlines(True),
                "default/" + KNOB_GOLDEN, knob + "/" + KNOB_GOLDEN)
            sys.stdout.writelines(list(diff)[:60])
    print("knobs: %d %s runs checked" % (len(KNOB_RUNS), KNOB_GOLDEN))
    return failures


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
        if cold:
            failures += check_streams_stored_once(work)
    failures += check_knobs(build, work, MODES[-1][1])
    if failures:
        print("FAIL: %d golden check(s) failed" % failures)
        return 1
    print("all golden outputs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
