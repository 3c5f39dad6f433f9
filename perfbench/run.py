#!/usr/bin/env python3
"""rtoc host-performance benchmark.

Builds the rtocbench program from the checkout's sources (portable
Release build under .bench_build/), runs one workload and prints, as
the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Every run is isolated: all RTOC_*
knobs are cleared, the thread count is pinned, and each process gets a
fresh private disk cache under .bench_tmp/ (never ~/.cache/rtoc), so
set-up is always cold. See perfbench/README.md for what each metric
measures.

Usage:
    python3 perfbench/run.py --workload hil_f32 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload replay_dse --update-golden
"""

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("hil_f32", "hil_narrow", "replay_dse")

SETUP_SAMPLES = 6      # extra cold set-up processes (plus the run's own)
CHILD_TIMEOUT_S = 150  # hard cap on any one child process
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def threads():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(4, n))


def build():
    """Configure once, then (re)build rtocbench; returns its path."""
    generated = [os.path.join(BUILD_DIR, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.isfile(f) for f in generated):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "rtocbench",
                    "-j", str(threads())],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "rtocbench")


def run_rtocbench(exe, args, env):
    """Run rtocbench; return its last-line JSON report."""
    proc = subprocess.run([exe] + args, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError("rtocbench %s exited %d" %
                           (" ".join(args), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def span_sums(paths):
    """hil.tick time inside hil.episode spans, episode time (both us) and
    the episode count over trace files. Ticks of scheduler runs have no
    enclosing episode and are left out."""
    tick = episode = 0.0
    episodes = 0
    for path in paths:
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            events = [e for e in json.load(f)["traceEvents"]
                      if e.get("ph") == "X"]
        spans = {}
        for e in events:
            if e["name"] == "hil.episode":
                spans.setdefault(e["tid"], []).append(
                    (e["ts"], e["ts"] + e["dur"]))
                episode += e["dur"]
                episodes += 1
        for v in spans.values():
            v.sort()
        for e in events:
            if e["name"] != "hil.tick" or e["tid"] not in spans:
                continue
            eps = spans[e["tid"]]
            i = bisect.bisect_right(eps, (e["ts"], float("inf"))) - 1
            if i >= 0 and e["ts"] + e["dur"] <= eps[i][1]:
                tick += e["dur"]
    return tick, episode, episodes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--update-golden", action="store_true",
                    help="store this run's simulated-statistics digest as "
                         "the workload's golden")
    a = ap.parse_args()

    try:
        exe = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    tmp = os.path.join(TMP_ROOT, "run-%d-%d" % (os.getpid(), time.time_ns()))
    os.makedirs(tmp)
    env = {k: v for k, v in os.environ.items() if not k.startswith("RTOC_")}
    env["RTOC_THREADS"] = str(threads())
    try:
        setup = []
        for i in range(SETUP_SAMPLES):
            env["RTOC_CACHE_DIR"] = os.path.join(tmp, "setup-%d" % i)
            setup.append(run_rtocbench(exe, ["--workload=" + a.workload,
                                          "--phase=setup"], env)["setup_s"])
        env["RTOC_CACHE_DIR"] = os.path.join(tmp, "run")
        args = ["--workload=" + a.workload, "--phase=run",
                "--seed=%d" % a.seed, "--seconds=%g" % a.seconds,
                "--trace=%d" % a.trace]
        trace_file = os.path.join(tmp, "trace.json")
        if a.trace:
            os.makedirs(os.path.join(tmp, "probe"))
            args += ["--trace-file=" + trace_file,
                     "--probe-dir=" + os.path.join(tmp, "probe")]
        rep = run_rtocbench(exe, args, env)
        setup.append(rep["setup_s"])
        spans = span_sums([trace_file, trace_file + ".probe"]) \
            if a.trace else None
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log("perfbench: %s" % e)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    checks = [tuple(c) for c in rep["checks"]]
    golden = {}
    if os.path.isfile(GOLDEN):
        with open(GOLDEN) as f:
            golden = json.load(f)
    if a.update_golden:
        golden[a.workload] = rep["digest"]
        with open(GOLDEN, "w") as f:
            json.dump(golden, f, indent=2, sort_keys=True)
            f.write("\n")
    checks.append(("sim_digest_matches_golden",
                   golden.get(a.workload) == rep["digest"]))

    metrics = dict(rep["metrics"])
    if a.trace:
        tick_us, episode_us, episodes = spans
        metrics["hil.tick_share"] = tick_us / episode_us if episode_us else 0.0
        metrics["hil.episode_ms"] = \
            episode_us / episodes / 1e3 if episodes else 0.0
        rep["extras"].append(["hil.tick_share.base_episode_ms",
                              episode_us / 1e3, "ms"])
        rep["extras"].append(["hil.tick_share.base_episodes", episodes,
                              "count"])
        want = declared("per_layer")
    else:
        metrics["setup_s"] = statistics.median(setup)
        want = declared("end_to_end")

    failed = sum(1 for _, ok in checks if not ok)
    print("workload %s seed %d seconds %g trace %d" %
          (a.workload, a.seed, a.seconds, a.trace))
    print("config: " + ", ".join("%s=%s" % kv for kv in rep["config"].items()))
    print("setup_s samples: " + ", ".join("%.4f" % s for s in setup))
    for name, ok in checks:
        if not ok:
            print("CHECK FAILED: " + name)
    print("fail_frac %.4f ratio (%d failed / %d checks)" %
          (failed / len(checks), failed, len(checks)))
    for name, value, unit in rep["extras"]:
        print("  %s %.6g %s" % (name, value, unit))
    out = {}
    for name, unit in want:
        if name not in metrics:
            log("perfbench: metric %s missing" % name)
            return 4
        out[name] = {"value": metrics[name], "unit": unit}
        print("%s %.6g %s" % (name, metrics[name], unit))
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
