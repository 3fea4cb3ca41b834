"""Command-line harness: seeded, deterministic JSON/CSV artifact emission.

Every artifact embeds the configuration echo, its hash, the module
versions, and the numeric tolerances the computation consumed.  Identical
config and seed reproduce identical bytes; no timestamps are written.

_TABLE declares each command: its runner, how many --points files it
takes, the options it needs and the others it reads (all read --group,
--seed and --out).  run refuses, with exit 2, a config that sets any other
option away from its default; click registers only the options read.

Exit codes: 0 success, 2 configuration or input parse error, 3 file I/O
error, 4 solver failure, 5 certified-dominance violation.  Only `run` maps
a command's exceptions to exit codes; a library ValueError exits 2 as it
is, so commands raise ConfigError only with a message of their own.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import click
import numpy as np
import scipy

from . import __version__, bound, fourier, groups, smoothing, transport, walks
from ._util import (DominanceError, SolverError, U, config_hash, json_default,
                    tolerance_union)

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SOLVER = 4
EXIT_DOMINANCE = 5

_PROFILES = {"paper": "paper_bump", "plateau": "plateau"}
_AUDIT_PROXY_N = 1 << 14  # lattice stand-in for Haar in circle verification
# atoms of nu*nu that walk --verify transforms at once
_CONV_CHUNK_ATOMS = 4096
# entrywise accuracy of irrep matrices and of pi(xy) = pi(x) pi(y), as the
# tests of fourier.irrep_matrices pin it
_IRREP_TOL = 1e-12


class ConfigError(ValueError):
    """Invalid configuration value or unparsable input content."""


@dataclass(frozen=True)
class RunConfig:
    """Fully serializable description of one harness invocation.

    Defaults: g=power:1, profile=paper, seed=0, reps=16; M/M_grid absent
    means the per-group default cutoff grid; out is the current directory.
    """

    command: str
    group: str
    g: str = "power:1"
    M: Optional[float] = None
    M_grid: Optional[str] = None
    profile: str = "paper"
    seed: int = 0
    reps: int = 16
    points: Tuple[str, ...] = ()
    n_list: str = ""
    gap_hint: Optional[float] = None
    out: str = "."
    verify: bool = False

    def __post_init__(self):
        if self.command not in _TABLE:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.profile not in _PROFILES:
            raise ConfigError(
                f"profile must be one of {sorted(_PROFILES)}, got {self.profile!r}")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.M is not None and self.M_grid is not None:
            raise ConfigError("give --M or --M-grid, not both")
        if self.M is not None and not math.isfinite(self.M):
            raise ConfigError(f"M must be finite, got {self.M}")
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        object.__setattr__(self, "points", tuple(self.points))

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - names)
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def as_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["points"] = list(self.points)
        return d

    @property
    def hash(self) -> str:
        return config_hash(self.as_json_dict())


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)
             if f.default is not dataclasses.MISSING}


def _flag(field: str) -> str:
    return "--" + field.replace("_", "-")


# ---------------------------------------------------------------------------
# input parsing


def parse_modulus(spec: str) -> bound.ModulusOfContinuity:
    """Modulus spec: power:<p> with p in (0, 1], or table:<csv file>."""
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ConfigError("modulus spec must be power:<p> or table:<file>")
    if kind == "power":
        try:
            args = (float(arg),)
        except ValueError:
            raise ConfigError(f"bad power exponent {arg!r}") from None
        make = bound.ModulusOfContinuity.power
    elif kind == "table":
        args, make = _read_table(arg), bound.ModulusOfContinuity.table
    else:
        raise ConfigError(f"unknown modulus kind {kind!r}")
    try:
        return make(*args)
    except ValueError as exc:  # a parser's contract: every bad spec is ConfigError
        raise ConfigError(str(exc)) from None


def _read_table(path: str):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln_no, raw in enumerate(fh, 1):
            ln = raw.strip()
            if not ln or ln.startswith("#"):
                continue
            parts = ln.split(",")
            if len(parts) != 2:
                raise ConfigError(f"{path}:{ln_no}: expected 'knot,value'")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ConfigError(f"{path}:{ln_no}: non-numeric entry") from None
    if not rows:
        raise ConfigError(f"{path}: empty modulus table")
    arr = np.asarray(rows, dtype=float)
    return arr[:, 0], arr[:, 1]


def parse_m_grid(spec: str, G: groups.GroupDescriptor) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError("M grid spec is start:stop:points")
    try:
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"bad M grid spec {spec!r}") from None
    if not (0.0 < start <= stop) or n < 1:
        raise ConfigError("M grid needs 0 < start <= stop and points >= 1")
    grid = np.geomspace(start, stop, n)
    grid = grid[grid >= G.admissibility_threshold]
    if grid.size == 0:
        raise ConfigError(
            f"no grid point reaches the admissibility threshold "
            f"{G.admissibility_threshold:g}")
    return grid


def _load_measure(path: str, G: groups.GroupDescriptor) -> fourier.DiscreteMeasure:
    _, pts = groups.load_points(path, expect_group=G.group_id)
    return fourier.DiscreteMeasure.uniform(G, pts)


# ---------------------------------------------------------------------------
# artifact emission


def _versions() -> dict:
    return {"wgbound": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


def _encode(obj, what: str, **kwargs) -> str:
    """Sorted-key JSON of obj; a non-finite number is a SolverError."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False,
                          default=json_default, **kwargs)
    except ValueError as exc:
        raise SolverError(f"non-finite value in the {what}: {exc}") from None


def _write(cfg: RunConfig, suffix: str, text: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, f"{cfg.command}_{cfg.hash}.{suffix}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def write_json_artifact(cfg: RunConfig, result: dict, tolerances: dict) -> str:
    payload = {
        "config": cfg.as_json_dict(),
        "config_hash": cfg.hash,
        "versions": _versions(),
        "tolerances": tolerances,
        "result": result,
    }
    return _write(cfg, "json", _encode(payload, "result", indent=2) + "\n")


def write_csv_artifact(cfg: RunConfig, header, rows, tolerances: dict) -> str:
    buf = io.StringIO()
    buf.write(f"# config_hash={cfg.hash}\n")
    buf.write(f"# versions={_encode(_versions(), 'versions')}\n")
    buf.write(f"# tolerances={_encode(tolerances, 'tolerances')}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if any(isinstance(v, float) and not math.isfinite(v) for v in row):
            raise SolverError(f"non-finite value in the result row {row!r}")
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return _write(cfg, "csv", buf.getvalue())


# ---------------------------------------------------------------------------
# commands


def _cmd_kernel(cfg: RunConfig, G: groups.GroupDescriptor) -> str:
    kc = smoothing.kernel_coefficients(G, cfg.M, profile=_PROFILES[cfg.profile])
    return write_json_artifact(cfg, kc.as_json_dict(), {})


def _cmd_oracle(cfg: RunConfig, G: groups.GroupDescriptor) -> str:
    g = parse_modulus(cfg.g)
    nu1 = _load_measure(cfg.points[0], G)
    nu2 = _load_measure(cfg.points[1], G)
    plan = transport.exact_wasserstein(G, g, nu1, nu2)
    result = plan.as_json_dict()
    if G.group_id == "torus(1)" and g.descriptor() == "power:1":
        w1 = transport.circle_w1(nu1, nu2)
        result["circle_w1"] = w1
        result["circle_agreement"] = abs(w1 - plan.cost)
    tolerances = {"duality_gap": transport.GAP_TOL,
                  "marginal": transport.MARGINAL_TOL}
    click.echo(f"cost={plan.cost:.12g} status={plan.status}")
    return write_json_artifact(cfg, result, tolerances)


def _cmd_bound(cfg: RunConfig, G: groups.GroupDescriptor) -> str:
    g = parse_modulus(cfg.g)
    nu1 = _load_measure(cfg.points[0], G)
    nu2 = _load_measure(cfg.points[1], G) if len(cfg.points) == 2 else None
    profile_id = _PROFILES[cfg.profile]
    oracle_cost = None
    if cfg.verify:
        if nu2 is None:
            raise ConfigError(
                "--verify needs two --points files (discrete transport oracle)")
        oracle_cost = transport.exact_wasserstein(G, g, nu1, nu2).cost
    if cfg.M is not None:
        rep = bound.wg_bound(G, g, nu1, nu2, cfg.M, profile_id)
        result = rep.as_json_dict()
        if oracle_cost is not None:
            bound.check_dominance([rep], oracle_cost, transport.GAP_TOL)
            result["oracle_cost"] = oracle_cost
        click.echo(f"total={rep.total:.9g} (psi={rep.psi:.9g})")
        return write_json_artifact(cfg, result, rep.tolerances)
    sweep = bound.CutoffSweep(
        G, g, profile_id, parse_m_grid(cfg.M_grid, G) if cfg.M_grid else None)
    fs = sweep.fourier_sums(nu1, nu2)
    reports = [sweep.report(i, None if fs is None else fs[i])
               for i in range(sweep.grid.size)]
    tolerances = tolerance_union(reports)
    if oracle_cost is not None:
        bound.check_dominance(reports, oracle_cost, transport.GAP_TOL)
        tolerances["oracle_duality_gap"] = transport.GAP_TOL
    best_m, best = sweep.best(fs)
    click.echo(f"best M={best_m:g} total={best.total:.9g}")
    return write_csv_artifact(cfg, bound.CSV_HEADER,
                              [r.csv_row(cfg.seed) for r in reports], tolerances)


def _cmd_audit(cfg: RunConfig, G: groups.GroupDescriptor) -> str:
    g = parse_modulus(cfg.g)
    grid = parse_m_grid(cfg.M_grid, G) if cfg.M_grid else None
    if cfg.verify and (G.group_id != "torus(1)" or g.descriptor() != "power:1"):
        raise ConfigError(
            "--verify for audit needs torus(1) with --g power:1 "
            "(circle closed form)")
    # one read; --verify takes the array as loaded
    _, pts = groups.load_points(cfg.points[0], expect_group=G.group_id)
    rep = walks.equidistribution_audit(G, pts, g, M_grid=grid,
                                       profile=_PROFILES[cfg.profile])
    result = rep.as_json_dict()
    tolerances = dict(rep.report.tolerances)
    if cfg.verify:
        nu = fourier.DiscreteMeasure.uniform(G, pts)
        lattice = fourier.DiscreteMeasure.uniform(
            G, np.arange(_AUDIT_PROXY_N)[:, None] / _AUDIT_PROXY_N)
        w1 = transport.circle_w1(nu, lattice)
        # proxy lattice sits 1/(4n) from Haar, so dominance keeps that slack
        slack = 1.0 / (4.0 * _AUDIT_PROXY_N)
        bound.check_dominance([rep.report], w1, slack)
        result["oracle"] = {"circle_w1_vs_lattice": w1,
                            "lattice_n": _AUDIT_PROXY_N, "haar_slack": slack}
        tolerances["haar_lattice_slack"] = slack
    click.echo(f"total={rep.report.total:.9g} gap={rep.gap_estimate:.12g}")
    return write_json_artifact(cfg, result, tolerances)


def _cmd_walk(cfg: RunConfig, G: groups.GroupDescriptor) -> str:
    g = parse_modulus(cfg.g)
    nu = _load_measure(cfg.points[0], G)
    states = walks.walk_evolve(G, nu, cfg.reps, cfg.M, g=g,
                               profile=_PROFILES[cfg.profile],
                               q_hint=cfg.gap_hint)
    if cfg.verify:
        _verify_walk_convolution(G, nu, cfg.M)
    click.echo(f"final q_hat={states[-1].q_hat:.6g} "
               f"exact_total={states[-1].exact_total:.6g}")
    header = walks.WALK_CSV_HEADER
    return write_csv_artifact(cfg, header,
                              [walks.csv_row(s, header) for s in states],
                              tolerance_union(states))


def _verify_walk_convolution(G, nu, M: float):
    """Exact check of the identity walk_evolve powers: nu*nu has blocks b @ b.

    b = measure_transforms(nu) on the irreps below min(M, 4 * admissibility
    threshold).  nu*nu comes from fourier.product_measure, one chunk of the
    first factor at a time (renormalised, then weighted back by its mass),
    so no chunk holds more than about _CONV_CHUNK_ATOMS atoms.  Two steps
    are the identity each powering step applies; more add only rounding.

    Tolerance per entry, for n atoms, largest dimension d and u = 2^-53,
    with e(N) = fourier.transform_error(N, d), which bounds a transform of
    N atoms against sum_k w_k pi(x_k)^*, pi = irrep_matrices.  The tests
    pin pi(xy) against pi(x) pi(y), xy the rounded product, to _IRREP_TOL.

    - The nu*nu block c is within e(n^2) + 6u (3 roundings of the chunk
      weights) of the sum of w_k w_l pi(x_k x_l)^*, which is within
      _IRREP_TOL of B B for B = sum_k w_k pi(x_k)^*, as the weights sum to 1.
    - b is within e(n) of B, entrywise, and rows and columns of b and B
      have norm <= 1, so b @ b is within 2 sqrt(d) e(n) of B B, plus 3 d u
      for its own rounding.
    """
    labels = groups.spectral_data(G, min(M, 4.0 * G.admissibility_threshold))["label"]
    blocks = fourier.measure_transforms(G, nu, labels)
    conv = [np.zeros_like(b) for b in blocks]
    n = nu.size
    step = max(1, _CONV_CHUNK_ATOMS // n)
    for lo in range(0, n, step):
        w = nu.weights[lo:lo + step]
        mass = float(w.sum())
        chunk = fourier.DiscreteMeasure(G.group_id, nu.atoms[lo:lo + step],
                                        w / mass)
        part = fourier.product_measure(G, chunk, nu)
        for c, b in zip(conv, fourier.measure_transforms(G, part, labels)):
            c += mass * b
    d = max(b.shape[0] for b in blocks)
    tol = (_IRREP_TOL + fourier.transform_error(n * n, d) + 6.0 * U
           + 2.0 * math.sqrt(d) * fourier.transform_error(n, d) + 3.0 * d * U)
    for label, b, c in zip(labels.tolist(), blocks, conv):
        dev = float(np.max(np.abs(c - b @ b)))
        if dev > tol:
            raise SolverError(
                f"two-step walk block deviates {dev:.3e} from b @ b "
                f"(tolerance {tol:.3e}) on irrep {tuple(label)}")


def _cmd_empirical(cfg: RunConfig, G: groups.GroupDescriptor) -> str:
    g = parse_modulus(cfg.g)
    try:
        Ns = [int(tok) for tok in cfg.n_list.split(",")]
    except ValueError:
        raise ConfigError(f"--n-list entries must be integers: {cfg.n_list!r}") \
            from None
    if cfg.verify and not cfg.points:
        raise ConfigError("--verify needs a discrete source (give --points)")
    source = _load_measure(cfg.points[0], G) if cfg.points else "haar"
    rows = walks.empirical_experiment(
        G, source, Ns, cfg.reps, g, cfg.seed,
        profile=_PROFILES[cfg.profile], m_cap=cfg.M,
        with_oracle=cfg.verify)
    tolerances = {**tolerance_union(rows),
                  "variance_budget_factor": 1.0 + 3.0 / math.sqrt(cfg.reps)}
    click.echo(f"N={rows[-1].N} bound_mean={rows[-1].bound_mean:.6g}")
    header = walks.EMPIRICAL_CSV_HEADER
    return write_csv_artifact(cfg, header,
                              [walks.csv_row(r, header) for r in rows],
                              tolerances)


class _Command(NamedTuple):
    """A command's runner and summary, the number of --points files it takes
    (lo, hi), the options it needs and the others it reads."""

    runner: Callable[[RunConfig, groups.GroupDescriptor], str]
    summary: str
    points: Tuple[int, int]
    needs: Tuple[str, ...]
    reads: Tuple[str, ...]

    def read_fields(self) -> set:
        return {"group", "seed", "out", *self.needs, *self.reads,
                *(("points",) if self.points[1] else ())}


_TABLE = {
    "kernel": _Command(_cmd_kernel, "Smoothing-kernel coefficients at a cutoff.",
                       (0, 0), ("M",), ("profile",)),
    "oracle": _Command(_cmd_oracle, "Exact transport oracle for two point sets.",
                       (2, 2), (), ("g",)),
    "bound": _Command(_cmd_bound, "Bound the distance between measures (or to Haar).",
                      (1, 2), (), ("g", "M", "M_grid", "profile", "verify")),
    "audit": _Command(_cmd_audit, "Equidistribution audit of a point set against Haar.",
                      (1, 1), (), ("g", "M_grid", "profile", "verify")),
    "walk": _Command(_cmd_walk, "Exact Fourier-side random-walk bounds per step.",
                     (1, 1), ("M",), ("g", "profile", "reps", "gap_hint", "verify")),
    "empirical": _Command(_cmd_empirical, "Empirical-measure sweeps with variance checks.",
                          (0, 1), ("n_list",), ("g", "M", "profile", "reps", "verify")),
}


def _check_options(cfg: RunConfig) -> None:
    """Refuse a config its command would not honour in full (see _TABLE)."""
    cmd = _TABLE[cfg.command]
    read = cmd.read_fields()
    for name, default in _DEFAULTS.items():
        if name not in read and getattr(cfg, name) != default:
            raise ConfigError(f"{cfg.command} does not read {_flag(name)}")
    lo, hi = cmd.points
    if not lo <= len(cfg.points) <= hi:
        want = f"{lo}" if lo == hi else f"{lo} to {hi}"
        raise ConfigError(f"{cfg.command} takes {want} --points "
                          f"file{'s' if hi > 1 else ''}, got {len(cfg.points)}")
    for name in cmd.needs:
        if getattr(cfg, name) == _DEFAULTS[name]:
            raise ConfigError(f"{cfg.command} needs {_flag(name)}")


def run(cfg: RunConfig) -> int:
    """Execute one config; writes artifacts and returns the exit code."""
    try:
        _check_options(cfg)
        path = _TABLE[cfg.command].runner(cfg, groups.descriptor(cfg.group))
    except ValueError as exc:  # ConfigError included
        click.echo(f"config error: {exc}", err=True)
        return EXIT_CONFIG
    except OSError as exc:
        click.echo(f"io error: {exc}", err=True)
        return EXIT_IO
    except DominanceError as exc:
        click.echo(f"dominance violation: {exc}", err=True)
        return EXIT_DOMINANCE
    except SolverError as exc:
        click.echo(f"solver failure: {exc}", err=True)
        return EXIT_SOLVER
    click.echo(path)
    return 0


# ---------------------------------------------------------------------------
# click wiring

# RunConfig field -> click.option arguments besides its flag and default
_OPTIONS = {
    "group": dict(required=True, help="torus(1), torus(2), torus(3), su2 or so3"),
    "points": dict(multiple=True,
                   help="point-set CSV (repeat for a second measure)"),
    "g": dict(show_default=True,
              help="modulus of continuity: power:<p> or table:<file>"),
    "M": dict(type=float, help="single cutoff (empirical: cap on the grid)"),
    "M_grid": dict(help="geometric cutoff grid start:stop:points"),
    "n_list": dict(help="empirical sample sizes, e.g. 8,16,32"),
    "profile": dict(show_default=True, help="smoothing bump: paper or plateau"),
    "reps": dict(type=int, show_default=True,
                 help="repetitions (walk: number of steps)"),
    "gap_hint": dict(type=float,
                     help="add gap-relaxed totals under gap <= hint^k"),
    "verify": dict(is_flag=True, help="cross-check with an independent "
                                      "oracle and fail on a violation"),
    "seed": dict(type=click.IntRange(0, 2 ** 64 - 1), show_default=True),
    "out": dict(show_default=True, help="artifact output directory"),
}


@click.group()
@click.version_option(version=__version__)
def main():
    """Certified Wasserstein bounds with machine-checked oracles."""


def _register(name: str, cmd: _Command):
    def _run(**kwargs):
        try:
            cfg = RunConfig.from_dict({"command": name, **kwargs})
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        sys.exit(run(cfg))

    for field in reversed([f for f in _OPTIONS if f in cmd.read_fields()]):
        _run = click.option(_flag(field), field, default=_DEFAULTS.get(field),
                            **_OPTIONS[field])(_run)
    main.command(name=name, help=cmd.summary, short_help=cmd.summary)(_run)


for _name, _cmd in _TABLE.items():
    _register(_name, _cmd)


if __name__ == "__main__":
    main()
