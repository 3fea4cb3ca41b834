"""Benchmark entry point: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It writes the workload's
inputs (from --seed), computes the reference values its checks need, then
runs rounds until --seconds have passed.  Each round is a fresh
interpreter (perfbench/child.py) that imports the program from ./src,
builds its smoothing tables and runs the workload's operations once.  It
then reads the child's peak resident set from its rusage, checks every
output, and prints one JSON line: medians over the rounds of the end-to-end
metrics (--trace 0) or of the per-layer metrics (--trace 1, where rounds
alternate untraced and traced so the tracing overhead can be measured).
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
DEADLINE_S = 170.0  # the whole run ends within 180 s
MIN_ROUNDS = 2  # a median of set-ups; with --trace 1, one untraced and one traced round
# Rounds run numpy's BLAS on one thread.  On a machine of a few shared cores,
# a BLAS thread pool waits on whichever core is busy elsewhere: beside one
# busy-looping process, the walks of `audit-walks` took twice their usual
# time on the default two-thread pool, and their usual time on one thread.
ROUND_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_round(wl, traced: bool, rundir: str, deadline: float) -> dict:
    """One child interpreter: set-up and every operation, then the checks."""
    out_root = os.path.join(rundir, "out")
    shutil.rmtree(out_root, ignore_errors=True)
    spec = {"src": SRC, "trace": traced, "setup_groups": wl.setup_groups,
            "profile": workloads.PROFILE, "ops": wl.ops,
            "spans_path": os.path.join(WORK, f"{wl.name}.spans.jsonl")}
    spec_path = os.path.join(rundir, "spec.json")
    result_path = os.path.join(rundir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
        stdout=sys.stderr, stderr=sys.stderr, cwd=rundir,
        env=dict(os.environ, **ROUND_ENV))
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no round running
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"round exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    result["traced"] = traced
    result["failed"] = 0
    for op, res in zip(wl.ops, result["ops"]):
        try:
            problems = ([f"exit code {res['exit']}"] if res["exit"] != 0
                        else wl.checks[op["name"]](op, res["value"]))
        except (OSError, ValueError, KeyError) as exc:  # missing or malformed artifact
            problems = [f"unreadable output: {exc!r}"]
        for msg in problems:
            print(f"check failed: {op['name']}: {msg}", file=sys.stderr)
        result["failed"] += bool(problems)
    print(f"round: setup_s={result['setup_s']:.3f} wall_s={result['wall_s']:.3f} "
          f"peak_rss_mb={result['peak_rss_mb']:.1f} traced={traced} | "
          + " ".join(f"{o['name']}={o['seconds']:.3f}" for o in result["ops"]),
          file=sys.stderr)
    return result


def layer_metrics(rounds) -> dict:
    """Median over traced rounds of each layer's calls, self time and work count."""
    out = {"cli.import_s": (statistics.median(r["import_s"] for r in rounds), "s"),
           "smoothing.tables_s": (statistics.median(r["tables_s"] for r in rounds), "s")}
    for layer, count in LAYERS.items():
        rows = [r["layers"][layer] for r in rounds]
        out[f"{layer}.calls"] = (statistics.median(x["calls"] for x in rows), "count")
        out[f"{layer}.s"] = (statistics.median(x["s"] for x in rows), "s")
        if count is not None:
            out[f"{layer}.{count[0]}"] = (statistics.median(x["work"] for x in rows), "count")
    return out


def summarize(rounds, trace: bool) -> dict:
    """name -> (value, unit): end-to-end metrics, or per-layer ones when traced."""
    plain = [r for r in rounds if not r["traced"]]
    if not trace:
        return {name: (statistics.median(r[name] for r in plain), unit)
                for name, unit in (("setup_s", "s"), ("wall_s", "s"),
                                   ("peak_rss_mb", "MB"))}
    traced = [r for r in rounds if r["traced"]]
    out = layer_metrics(traced)
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain), "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run raises here, so the round in flight is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    start = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "wgbound", "cli.py")):
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(SRC, "wgbound"), quiet=1)
    rundir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        wl = workloads.build(args.workload, args.seed, rundir)
        deadline = start + DEADLINE_S
        rounds, durations = [], []
        t0 = time.monotonic()
        # another round only if one more, as long as the median round so far,
        # still ends within --seconds: runs overshoot by no round
        while len(rounds) < MIN_ROUNDS or (
                time.monotonic() - t0 + statistics.median(durations) <= args.seconds):
            traced = bool(args.trace) and len(rounds) % 2 == 1
            r0 = time.monotonic()
            rounds.append(run_round(wl, traced, rundir, deadline))
            durations.append(time.monotonic() - r0)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = len(wl.ops) * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    metrics = summarize(rounds, bool(args.trace))
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        unaccounted = statistics.median(r["unaccounted_s"] for r in traced)
        print(f"{args.workload}: library self times leave {unaccounted:.3f} s ("
              f"{unaccounted / statistics.median(r['wall_s'] for r in traced):.1%}) "
              "of the traced wall_s unaccounted", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, "
          + ", ".join(f"{k}={v:.4g}" for k, (v, _) in metrics.items()
                      if not k.endswith(".calls")), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
