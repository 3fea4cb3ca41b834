"""Run the benchmark over several seeds, time the Tier-1 suite, write BENCH_<n>.json.

    python3 tools/bench.py [--out FILE]
    python3 tools/bench.py --against REV --out FILE

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
claim rests on alternating parent and change runs instead, which
--against makes: it checks REV out into a git worktree under
.perfbench_run/ (removed at the end), then per workload runs perfbench on
REV (the parent) and on this checkout (the change) PAIRS times each, for
run_seconds per run, alternating which side runs first from pair to
pair, on one seed per pair.  The seeds come from the two commits' hashes,
so another comparison gets other seeds, and the file records them with
every run.  Per workload it writes each side's share of failed
operations, and per end-to-end metric each side's median and quartiles
over its runs, the change's wins, losses and ties, the parent's IQR and
two verdicts (paired()): "gain" by the rule a speed claim must meet (at
least 10 pairs, the change better in at least 9 of 10 of them, ties
counting for neither, the medians apart by more than the parent's IQR
and by more than a tenth of the metric's bound, and no larger share of
failed operations than the parent's), and
"within_bound" (the change's median no worse than the parent's by more
than the metric's bound).

The script changes nothing under perfbench/: it only runs run.py and reads
its ROUND_ENV, without writing bytecode there.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
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
# --against: pairs per workload, the least the 9-of-10 rule takes
PAIRS = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def run_perfbench(workload: str, seed: int, seconds: float, trace: int, root: str = ROOT):
    """One perfbench run of the checkout at root: its JSON result and its untraced rounds."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False)
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


def paired(parent, change, better: str, bound: float, failed: tuple) -> dict:
    """Statistics of one metric over runs paired by index, parent against change.

    A pair is a win when the change is better (lower or higher, as
    `better` says), a loss when it is worse, and a tie otherwise.  "gain"
    holds when there are at least PAIRS pairs, the change wins at least 9
    in 10 of them, its median is better than the parent's by more than
    the larger of the parent's IQR and a tenth of bound times the parent's
    median, and its share of failed operations, failed[1], is no larger
    than the parent's, failed[0]; "within_bound" when its median is no
    worse than the parent's by more than bound times the parent's median.
    The floor on the effect keeps a metric whose IQR is near zero, such
    as a peak RSS counted in pages, from reading a shift of a page or two
    as a gain.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("paired() needs two equal lists of at least 2 runs")
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    sides = {}
    for name, values in (("parent", parent), ("change", change)):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        sides[name] = {"median": median, "q1": q1, "q3": q3}
    wins = sum(g > 0 for g in gains)
    iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    ahead = sign * (sides["parent"]["median"] - sides["change"]["median"])
    return {**sides, "pairs": len(gains), "wins": wins,
            "losses": sum(g < 0 for g in gains), "ties": sum(g == 0 for g in gains),
            "parent_iqr": iqr,
            "median_change": -sign * ahead / sides["parent"]["median"],
            "gain": (len(gains) >= PAIRS and 10 * wins >= 9 * len(gains)
                     and ahead > max(iqr, 0.1 * bound * sides["parent"]["median"])
                     and failed[1] <= failed[0]),
            "within_bound": -ahead <= bound * sides["parent"]["median"]}


def pair_seeds(parent: str, change: str) -> list:
    """One seed per pair of PAIRS, from the two commits' hashes."""
    base = int(hashlib.sha256(f"{parent} {change}".encode()).hexdigest()[:6], 16)
    return [base + i for i in range(PAIRS)]


def failed_share(runs: list) -> float:
    """Failed operations over attempted ones, summed over runs."""
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def against(spec: dict, rev: str) -> dict:
    """Alternating perfbench runs of REV (checked out in a worktree) and this checkout."""
    parent = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    head = git("rev-parse", "HEAD")
    tree = os.path.join(ROOT, ".perfbench_run", f"against-{parent[:12]}")
    os.makedirs(os.path.dirname(tree), exist_ok=True)
    git("worktree", "add", "--detach", "--force", tree, parent)
    seeds = pair_seeds(parent, head)
    out = {"parent": parent, "change": head,
           "change_dirty": bool(git("status", "--porcelain", "--", "src", "perfbench",
                                    "BENCHMARK.json")),
           "seeds": seeds, "seconds": spec["run_seconds"], "workloads": {}}
    try:
        for wl in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change")[::1 - 2 * (i % 2)]
                for side in order:
                    result, _ = run_perfbench(wl, seed, spec["run_seconds"], 0,
                                              tree if side == "parent" else ROOT)
                    runs[side].append({"seed": seed, "first": side == order[0],
                                       "attempted": result["attempted"],
                                       "failed": result["failed"],
                                       **{k: v["value"] for k, v in result["metrics"].items()}})
                print(f"{wl} pair {i + 1}/{PAIRS} (seed {seed}): wall_s parent "
                      f"{runs['parent'][-1]['wall_s']:.3f} change "
                      f"{runs['change'][-1]['wall_s']:.3f}", file=sys.stderr)
            failed = (failed_share(runs["parent"]), failed_share(runs["change"]))
            out["workloads"][wl] = {
                "runs": runs,
                "failed_share": {"parent": failed[0], "change": failed[1]},
                "end_to_end": {m["name"]: {"unit": m["unit"], "bound": m["bound"],
                                           **paired([r[m["name"]] for r in runs["parent"]],
                                                    [r[m["name"]] for r in runs["change"]],
                                                    m["better"], m["bound"], failed)}
                               for m in spec["end_to_end"]}}
    finally:
        git("worktree", "remove", "--force", tree)
    return out


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
    ap.add_argument("--against", metavar="REV")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds, seconds = list(SEEDS), spec["run_seconds"]
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.dont_write_bytecode = True
    from run import ROUND_ENV  # noqa: E402  (perfbench/ is not a package)

    if args.against is not None:
        if not args.out:
            ap.error("--against needs --out")
        out = against(spec, args.against)
        out["thread_env"] = {"rounds": ROUND_ENV}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
        for wl, res in out["workloads"].items():
            print(f"{wl} failed share: parent {res['failed_share']['parent']:.3g} change "
                  f"{res['failed_share']['change']:.3g}", file=sys.stderr)
            for name, m in res["end_to_end"].items():
                print(f"{wl} {name}: parent {m['parent']['median']:.4g} change "
                      f"{m['change']['median']:.4g} ({m['median_change']:+.1%}), wins "
                      f"{m['wins']}/{m['pairs']}, parent IQR {m['parent_iqr']:.3g}, "
                      f"gain {m['gain']}, within bound {m['within_bound']}", file=sys.stderr)
        print(args.out)
        return 0

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
