"""Write a fixed set of wgbound artifacts, or diff two such sets.

    python tools/artifact_diff.py run OUTDIR [--src SRC]
    python tools/artifact_diff.py compare A B

``run`` writes its inputs under OUTDIR/inputs and runs each configuration
of configs() through ``wgbound.cli.run``, one artifact per OUTDIR/<name>.
Each configuration of failures() must fail: for it, OUTDIR/<name>/failure.txt
records the exit code and what ``run`` wrote to stderr.  It works inside
OUTDIR with relative paths, so the configuration (and with it the
artifact's file name and hash) is the same wherever OUTDIR is.  --src
names the source tree to import wgbound from (default: this checkout's
src), which lets one copy of this script run two commits.

``compare`` reports, per configuration, whether the artifacts are
byte-identical, failure records included.  Where artifacts differ it lists
JSON keys or CSV columns found on one side only, cells that changed and are
not numbers, and for every numeric field the largest move next to the B
artifact's own ``tolerances``.  List entries are folded into one field ([]
in the name); differing failure records are printed whole.

The script needs only the standard library and what wgbound needs; wgbound
does not import it.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys

import numpy as np

GROUPS = ("torus(1)", "torus(2)", "torus(3)", "su2", "so3")
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _points(group_id: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, n, GROUPS.index(group_id)])
    if group_id.startswith("torus"):
        return rng.random((n, int(group_id[6])))
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _write(path: str, group_id: str, pts) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# group={group_id}\n")
        for row in np.atleast_2d(pts):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def _inputs(src: str) -> dict:
    """Point and modulus files, relative to the working directory."""
    os.makedirs("inputs", exist_ok=True)
    f = {}
    for i, gid in enumerate(GROUPS):
        f[gid, "a"] = _write(f"inputs/{gid}_a.csv", gid, _points(gid, 24, 10 + i))
        f[gid, "b"] = _write(f"inputs/{gid}_b.csv", gid, _points(gid, 16, 20 + i))
        f[gid, "audit"] = _write(f"inputs/{gid}_audit.csv", gid,
                                 _points(gid, 32 if gid == "torus(3)" else 64, 30 + i))
        f[gid, "source"] = _write(f"inputs/{gid}_source.csv", gid,
                                  _points(gid, 32, 40 + i))
    # uniform pairs of divisible sizes (the assignment route), with
    # duplicates on su2, and pairs of sizes that do not divide
    f["t1_8"] = _write("inputs/t1_8.csv", "torus(1)", _points("torus(1)", 8, 50))
    f["t1_24"] = _write("inputs/t1_24.csv", "torus(1)", _points("torus(1)", 24, 51))
    su2_6 = _points("su2", 6, 52)
    f["su2_6"] = _write("inputs/su2_6.csv", "su2", su2_6)
    f["su2_12"] = _write("inputs/su2_12.csv", "su2",
                         np.concatenate([su2_6[:3], _points("su2", 9, 53)]))
    f["t1_10"] = _write("inputs/t1_10.csv", "torus(1)", _points("torus(1)", 10, 54))
    f["t1_7"] = _write("inputs/t1_7.csv", "torus(1)", _points("torus(1)", 7, 55))
    f["so3_9"] = _write("inputs/so3_9.csv", "so3", _points("so3", 9, 56))
    f["so3_5"] = _write("inputs/so3_5.csv", "so3", _points("so3", 5, 57))
    f["su2_walk"] = _write("inputs/su2_walk.csv", "su2", _points("su2", 6, 58))
    f["so3_walk"] = _write("inputs/so3_walk.csv", "so3", _points("so3", 3, 59))
    f["golden"] = _write("inputs/golden.csv", "torus(1)", [[0.0], [GOLDEN]])
    f["lps5"] = "inputs/lps_p5_so3.csv"
    shutil.copyfile(os.path.join(src, "wgbound", "data", "lps_p5_so3.csv"), f["lps5"])
    f["table"] = "inputs/sqrt_table.csv"
    with open(f["table"], "w", encoding="utf-8") as fh:
        for t in np.linspace(0.25, 4.0, 16):
            fh.write(f"{float(t)!r},{math.sqrt(t)!r}\n")
    return f


def configs(f: dict) -> dict:
    """Name -> RunConfig fields, 57 configurations that succeed."""
    c = {}
    for gid in GROUPS:
        pair = (f[gid, "a"], f[gid, "b"])
        c[f"kernel-{gid}"] = dict(command="kernel", group=gid, M=6.0)
        c[f"bound-M-{gid}"] = dict(command="bound", group=gid, points=pair, M=10.0)
        c[f"bound-grid-{gid}"] = dict(command="bound", group=gid, points=pair)
        c[f"oracle-{gid}"] = dict(command="oracle", group=gid, points=pair)
        c[f"audit-{gid}"] = dict(command="audit", group=gid,
                                 points=(f[gid, "audit"],),
                                 verify=gid == "torus(1)")
    for gid in ("su2", "so3", "torus(3)"):
        c[f"bound-haar-{gid}"] = dict(command="bound", group=gid,
                                      points=(f[gid, "a"],), M_grid="2:40:12")
    for gid in ("torus(1)", "torus(2)", "su2", "so3"):
        c[f"bound-verify-{gid}"] = dict(command="bound", group=gid, M=12.0,
                                        points=(f[gid, "a"], f[gid, "b"]),
                                        verify=True)
    for gid in ("su2", "torus(1)"):
        c[f"bound-p05-{gid}"] = dict(command="bound", group=gid, g="power:0.5",
                                     points=(f[gid, "a"], f[gid, "b"]))
    c["bound-plateau-su2"] = dict(command="bound", group="su2", profile="plateau",
                                  points=(f["su2", "a"], f["su2", "b"]), M=10.0)
    c["bound-table-torus(1)"] = dict(command="bound", group="torus(1)",
                                     g="table:" + f["table"], M=10.0,
                                     points=(f["torus(1)", "a"], f["torus(1)", "b"]))
    c["bound-identical-so3"] = dict(command="bound", group="so3", M=10.0,
                                    points=(f["so3", "a"], f["so3", "a"]))
    c["oracle-uniform-torus(1)-8x24"] = dict(command="oracle", group="torus(1)",
                                             points=(f["t1_8"], f["t1_24"]))
    c["oracle-uniform-su2-6x12"] = dict(command="oracle", group="su2", g="power:0.5",
                                        points=(f["su2_6"], f["su2_12"]))
    c["oracle-torus(1)-10x7"] = dict(command="oracle", group="torus(1)",
                                     points=(f["t1_10"], f["t1_7"]))
    c["oracle-so3-9x5"] = dict(command="oracle", group="so3",
                               points=(f["so3_9"], f["so3_5"]))
    c["walk-lps5"] = dict(command="walk", group="so3", points=(f["lps5"],),
                          M=25.5, reps=20, verify=True)
    c["walk-lps5-gap"] = dict(command="walk", group="so3", points=(f["lps5"],),
                              M=25.5, reps=20, gap_hint=math.sqrt(5.0) / 3.0)
    # gap-relaxed sweeps on the gap grid (bound._GAP_GRID_CAPS) of every group
    for gid, step, M in (("torus(1)", f["golden"], 140.0),
                         ("torus(2)", f["torus(2)", "b"], 10.0),
                         ("torus(3)", f["torus(3)", "b"], 8.0),
                         ("su2", f["su2_walk"], 8.0)):
        c[f"walk-{gid}-gap"] = dict(command="walk", group=gid, points=(step,),
                                    M=M, reps=8, gap_hint=0.8)
    # at step 16, q^16 ~ 0.028: the relaxed cut reaches the top of the gap grid
    for gid, M in (("torus(2)", 10.0), ("torus(3)", 8.0)):
        c[f"walk-{gid}-gap-deep"] = dict(command="walk", group=gid,
                                         points=(f[gid, "b"],), M=M, reps=16,
                                         gap_hint=0.8)
    c["walk-golden"] = dict(command="walk", group="torus(1)", points=(f["golden"],),
                            M=140.0, reps=16)
    c["walk-su2"] = dict(command="walk", group="su2", points=(f["su2_walk"],),
                         M=8.0, reps=10)
    # walk --verify on the half-integer spins of su2 and on the torus
    c["walk-su2-verify"] = dict(command="walk", group="su2", points=(f["su2_walk"],),
                                M=8.0, reps=10, verify=True)
    c["walk-golden-verify"] = dict(command="walk", group="torus(1)",
                                   points=(f["golden"],), M=140.0, reps=16, verify=True)
    # a non-symmetric so3 step set: its blocks take the powering route
    c["walk-so3-verify"] = dict(command="walk", group="so3", points=(f["so3_walk"],),
                                M=10.5, reps=16, verify=True)
    c["empirical-su2"] = dict(command="empirical", group="su2", n_list="8,16",
                              reps=4, points=(f["su2", "source"],), verify=True)
    c["empirical-so3-haar"] = dict(command="empirical", group="so3",
                                   n_list="16,32", reps=3, M=30.0)
    c["empirical-torus(2)"] = dict(command="empirical", group="torus(2)",
                                   n_list="8,16", reps=3, verify=True,
                                   points=(f["torus(2)", "source"],))
    return c


def failures(f: dict) -> dict:
    """Name -> RunConfig fields, 7 configurations that exit 2: an input
    error per command, and audit given --M, which it does not read."""
    t1 = f["torus(1)", "a"]
    return {
        "fail-oracle-unknown-group": dict(command="oracle", group="su3",
                                          points=(t1, f["torus(1)", "b"])),
        "fail-kernel-below-threshold": dict(command="kernel", group="torus(1)",
                                            M=1.0),
        "fail-bound-M1-torus(1)": dict(command="bound", group="torus(1)",
                                       points=(t1,), M=1.0),
        "fail-walk-no-irreps-torus(1)": dict(command="walk", group="torus(1)",
                                             points=(f["golden"],), M=4.0),
        "fail-audit-header-group": dict(command="audit", group="torus(1)",
                                        points=(f["su2", "a"],)),
        "fail-empirical-descending": dict(command="empirical", group="torus(1)",
                                          n_list="4,2"),
        "fail-audit-unread-M": dict(command="audit", group="torus(1)",
                                    points=(f["torus(1)", "audit"],), M=30.0),
    }


def run(outdir: str, src: str) -> int:
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    from wgbound import cli

    f = _inputs(src)
    failed = 0
    for expect_failure, cases in ((False, configs(f)), (True, failures(f))):
        for name, fields in cases.items():
            if os.path.isdir(name):
                shutil.rmtree(name)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.run(cli.RunConfig(out=name, seed=7, **fields))
            print(f"{name}: exit {code}", file=sys.stderr)
            if expect_failure and code != 0:
                os.makedirs(name)
                with open(os.path.join(name, "failure.txt"), "w",
                          encoding="utf-8") as fh:
                    fh.write(f"exit {code}\n{err.getvalue()}")
            else:
                sys.stderr.write(err.getvalue())
                failed += expect_failure or code != 0
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# compare


def _artifact(root: str, name: str):
    d = os.path.join(root, name)
    found = sorted(os.listdir(d)) if os.path.isdir(d) else []
    return os.path.join(d, found[0]) if len(found) == 1 else None


def _flatten(obj, prefix: str, out: dict):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else k, out)
    elif isinstance(obj, list):
        for v in obj:
            _flatten(v, prefix + "[]", out)
    else:
        out.setdefault(prefix, []).append(obj)


def _read(path: str):
    """(fields: name -> list of values, tolerances) of one artifact."""
    fields: dict = {}
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        _flatten(payload, "", fields)
        return fields, payload.get("tolerances", {})
    tolerances = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for ln in lines:
        if ln.startswith("# tolerances="):
            tolerances = json.loads(ln.split("=", 1)[1])
    for row in csv.DictReader(ln for ln in lines if not ln.startswith("#")):
        for k, v in row.items():
            fields.setdefault(k, []).append(v)
    _flatten({"tolerances": tolerances}, "", fields)
    return fields, tolerances


def _number(v):
    if isinstance(v, bool):
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _compare_one(pa: str, pb: str) -> list:
    if pa.endswith(".txt"):  # failure records
        lines = []
        for side, path in (("A", pa), ("B", pb)):
            with open(path, encoding="utf-8") as fh:
                lines.append(f"  {side}: {fh.read()!r}")
        return lines
    fa, _ = _read(pa)
    fb, tol = _read(pb)
    lines = []
    for k in sorted(set(fa) - set(fb)):
        lines.append(f"  only in A: {k}")
    for k in sorted(set(fb) - set(fa)):
        lines.append(f"  only in B: {k}")
    for k in sorted(set(fa) & set(fb)):
        va, vb = fa[k], fb[k]
        if va == vb:
            continue
        if len(va) != len(vb):
            lines.append(f"  {k}: {len(va)} values in A, {len(vb)} in B")
            continue
        moves = []
        for x, y in zip(va, vb):
            nx, ny = _number(x), _number(y)
            if nx is None or ny is None:
                if x != y:
                    moves = None
                    break
            elif nx != ny:
                moves.append((abs(nx - ny), abs(nx - ny) / max(abs(nx), abs(ny))))
        if moves is None:
            lines.append(f"  {k}: non-numeric values differ")
        else:
            moved = max(moves)
            lines.append(f"  {k}: {len(moves)} of {len(va)} moved, largest "
                         f"{moved[0]:.3e} ({moved[1]:.2e} relative)")
    if tol:
        lines.append("  B tolerances: " + ", ".join(
            f"{k}={v:.3e}" for k, v in sorted(tol.items())))
    return lines


def compare(a: str, b: str) -> int:
    names = sorted({n for root in (a, b) for n in os.listdir(root)
                    if n != "inputs" and os.path.isdir(os.path.join(root, n))})
    same = 0
    for name in names:
        pa, pb = _artifact(a, name), _artifact(b, name)
        if pa is None or pb is None:
            print(f"{name}: missing in {'A' if pa is None else 'B'}")
            continue
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() == fb.read():
                same += 1
                continue
        print(f"{name}: differs")
        for ln in _compare_one(pa, pb):
            print(ln)
    print(f"{same} of {len(names)} artifacts byte-identical")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("outdir")
    r.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        return run(args.outdir, args.src)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
