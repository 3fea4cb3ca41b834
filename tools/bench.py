"""Run the benchmark over several seeds, time the Tier-1 suite, write BENCH_<n>.json.

    python3 tools/bench.py [--out FILE]

Run from the root of a checkout.  For each workload of BENCHMARK.json it
runs perfbench/run.py untraced once per seed of SEEDS, for BENCHMARK.json's
run_seconds, then traced once (on the first seed); after that it times one
Tier-1 run (the ROADMAP command, one BLAS thread).  perfbench/run.py prints one line per round on stderr; the
end-to-end metrics are summarised over every untraced round of every seed:
median, quartiles and interquartile range, with a flag where the range
exceeds a third of the metric's bound in BENCHMARK.json (a bound is a
fraction of the median).  Each seed's run medians are kept too.  The
per-layer metrics are the traced run's medians.  The file also records
the commit, whether the measured code (src/, perfbench/, BENCHMARK.json)
had uncommitted changes, and the BLAS thread settings of the rounds and of
the Tier-1 run.  Without --out it writes the next free BENCH_<n>.json.
SEEDS is fixed so that successive files measure the same runs.

It compares no two files: two BENCH files are measured hours apart on a
shared machine, so the difference of their medians carries the machine's
load (one such comparison showed a paired 20.6% gain as 6%).  A speed
claim rests on alternating parent and change runs instead.

The script changes nothing under perfbench/: it only runs run.py and reads
its ROUND_ENV, without writing bytecode there.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUND_RE = re.compile(r"^round: setup_s=(\S+) wall_s=(\S+) peak_rss_mb=(\S+) traced=(\w+)")
SEEDS = (101, 102, 103, 104, 105)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def run_perfbench(workload: str, seed: int, seconds: float, trace: int):
    """One perfbench run: its JSON result and its untraced rounds."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench/run.py failed on {workload} seed {seed}")
    rounds = [dict(setup_s=float(m[1]), wall_s=float(m[2]), peak_rss_mb=float(m[3]))
              for m in map(ROUND_RE.match, proc.stderr.splitlines())
              if m and m[4] == "False"]
    return json.loads(proc.stdout.strip().splitlines()[-1]), rounds


def spread(values, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values),
            "iqr_over_third_of_bound": (q3 - q1) > bound * median / 3.0}


def tier1() -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True,
                          check=False)
    wall = time.monotonic() - t0
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|error)", proc.stdout)}
    acceptance = re.findall(r"^ACCEPTANCE (.*): (PASS|FAIL)$", proc.stdout, re.M)
    return {"wall_s": wall, "exit": proc.returncode, **counts,
            "acceptance_pass": sum(v == "PASS" for _, v in acceptance),
            "acceptance_lines": len(acceptance),
            "thread_env": {v: env[v] for v in THREAD_VARS}}


def bench_numbers() -> list:
    """The n of every BENCH_<n>.json in the checkout, ascending."""
    return sorted(int(m[1]) for p in glob.glob(os.path.join(ROOT, "BENCH_*.json"))
                  if (m := re.search(r"BENCH_(\d+)\.json$", p)))


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds, seconds = list(SEEDS), spec["run_seconds"]
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.dont_write_bytecode = True
    from run import ROUND_ENV  # noqa: E402  (perfbench/ is not a package)

    out = {"commit": git("rev-parse", "HEAD"),
           "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench",
                             "BENCHMARK.json")),
           "seeds": seeds, "seconds": seconds,
           "thread_env": {"rounds": ROUND_ENV, "this_process": {
               v: os.environ.get(v) for v in THREAD_VARS}},
           "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        rounds, runs, attempted, failed = [], [], 0, 0
        for seed in seeds:
            result, got = run_perfbench(wl, seed, seconds, 0)
            rounds += got
            runs.append({"seed": seed, "rounds": len(got),
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"{wl} seed {seed}: {len(got)} rounds, "
                  f"wall_s {result['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
        traced, _ = run_perfbench(wl, seeds[0], seconds, 1)
        out["workloads"][wl] = {
            "rounds": len(rounds), "runs": runs,
            "attempted": attempted + traced["attempted"],
            "failed": failed + traced["failed"],
            "end_to_end": {m["name"]: {"unit": m["unit"], "bound": m["bound"],
                                       **spread([r[m["name"]] for r in rounds], m["bound"])}
                           for m in spec["end_to_end"]},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
    out["tier1"] = tier1()
    print(f"tier-1: {out['tier1']}", file=sys.stderr)

    earlier = bench_numbers()
    path = args.out or os.path.join(ROOT, f"BENCH_{(earlier or [0])[-1] + 1}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
