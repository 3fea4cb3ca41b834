"""Harness behavior: config validation, artifacts, exit codes, verification."""
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from wgbound import bound, cli, fourier, groups, transport, walks
from wgbound._util import SolverError

from conftest import GROUP_IDS

G_T1 = groups.descriptor("torus(1)")


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def circle_pair(tmp_path):
    rng = np.random.default_rng(7)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    groups.save_points(a, "torus(1)", rng.random((6, 1)))
    groups.save_points(b, "torus(1)", rng.random((5, 1)))
    return str(a), str(b)


def read_artifact(output: str) -> str:
    # the artifact path is the last stdout line
    return output.strip().splitlines()[-1]


class TestRunConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown config fields"):
            cli.RunConfig.from_dict({"command": "kernel", "group": "su2",
                                     "cutoff": 5.0})

    def test_m_and_grid_conflict(self):
        with pytest.raises(cli.ConfigError, match="not both"):
            cli.RunConfig(command="bound", group="su2", M=5.0,
                          M_grid="2:20:5")

    @pytest.mark.parametrize("field,value", [
        ("command", "solve"), ("profile", "gauss"), ("seed", -1),
        ("seed", 2 ** 64), ("reps", 0), ("M", math.inf), ("M", -math.inf),
        ("M", math.nan)])
    def test_invalid_values(self, field, value):
        payload = {"command": "kernel", "group": "su2", field: value}
        with pytest.raises(cli.ConfigError):
            cli.RunConfig.from_dict(payload)

    def test_hash_ignores_key_order(self):
        c1 = cli.RunConfig(command="kernel", group="su2", M=5.0)
        c2 = cli.RunConfig(M=5.0, group="su2", command="kernel")
        assert c1.hash == c2.hash
        c3 = cli.RunConfig(command="kernel", group="su2", M=6.0)
        assert c3.hash != c1.hash

    def test_points_normalized_to_tuple(self):
        cfg = cli.RunConfig(command="bound", group="su2", points=["x.csv"])
        assert cfg.points == ("x.csv",)


class TestParsers:
    def test_power_modulus(self):
        g = cli.parse_modulus("power:0.5")
        assert g.descriptor() == "power:0.5"

    @pytest.mark.parametrize("spec", ["power", "power:two", "power:0",
                                      "power:1.5", "gauss:1"])
    def test_bad_modulus_specs(self, spec):
        with pytest.raises(cli.ConfigError):
            cli.parse_modulus(spec)

    def test_table_modulus(self, tmp_path):
        p = tmp_path / "mod.csv"
        p.write_text("# comment\n0.5,0.3\n1.0,0.5\n")
        g = cli.parse_modulus(f"table:{p}")
        assert float(g(0.5)) == pytest.approx(0.3)

    def test_table_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,0.3,9\n")
        with pytest.raises(cli.ConfigError, match="knot,value"):
            cli.parse_modulus(f"table:{bad}")
        bad.write_text("a,b\n")
        with pytest.raises(cli.ConfigError, match="non-numeric"):
            cli.parse_modulus(f"table:{bad}")
        bad.write_text("# only comments\n")
        with pytest.raises(cli.ConfigError, match="empty"):
            cli.parse_modulus(f"table:{bad}")

    def test_missing_table_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            cli.parse_modulus(f"table:{tmp_path}/absent.csv")

    def test_m_grid(self):
        grid = cli.parse_m_grid("2:32:5", groups.descriptor("su2"))
        assert grid[0] >= 1.5 and grid[-1] == pytest.approx(32.0)
        assert np.all(np.diff(grid) > 0)

    def test_m_grid_errors(self):
        G = groups.descriptor("torus(1)")
        with pytest.raises(cli.ConfigError, match="start:stop:points"):
            cli.parse_m_grid("2:32", G)
        with pytest.raises(cli.ConfigError, match="threshold"):
            cli.parse_m_grid("0.5:1.0:3", G)
        with pytest.raises(cli.ConfigError):
            cli.parse_m_grid("8:2:3", G)


class TestKernelCommand:
    def test_json_artifact_structure(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["kernel", "--group", "su2", "--M",
                                       "6", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        path = read_artifact(res.output)
        assert os.path.basename(path).startswith("kernel_")
        payload = json.loads(open(path).read())
        assert set(payload) == {"config", "config_hash", "versions",
                                "tolerances", "result"}
        assert payload["config"]["group"] == "su2"
        assert payload["versions"]["wgbound"]
        assert payload["result"]["entries"]
        assert payload["config_hash"] in path

    def test_requires_m(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["kernel", "--group", "su2",
                                       "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_CONFIG
        assert "needs --M" in res.output

    def test_below_threshold_is_config_error(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["kernel", "--group", "su2", "--M",
                                       "0.5", "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_CONFIG


class TestBoundCommand:
    def test_two_measure_sweep_with_verify(self, runner, tmp_path,
                                           circle_pair):
        a, b = circle_pair
        res = runner.invoke(cli.main, [
            "bound", "--group", "torus(1)", "--points", a, "--points", b,
            "--M-grid", "4:64:6", "--verify", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "best M=" in res.output
        path = read_artifact(res.output)
        lines = open(path).read().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[3].split(",") == list(bound.CSV_HEADER)
        assert len(lines) == 4 + 6

    @pytest.mark.parametrize("second", [1, 0], ids=["pair", "identical"])
    def test_best_is_the_sweeps_argmin(self, runner, tmp_path, circle_pair, second):
        # the rows carry the sweep's totals and the echoed best M is their argmin
        paths = [circle_pair[0], circle_pair[second]]
        res = runner.invoke(cli.main, [
            "bound", "--group", "torus(1)", "--points", paths[0], "--points",
            paths[1], "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = open(read_artifact(res.output)).read().splitlines()
        rows = [dict(zip(lines[3].split(","), ln.split(","))) for ln in lines[4:]]
        nu1, nu2 = (fourier.DiscreteMeasure.uniform(
            G_T1, groups.load_points(p)[1]) for p in paths)
        sweep = bound.CutoffSweep(G_T1, bound.ModulusOfContinuity.power(1.0))
        fs = sweep.fourier_sums(nu1, nu2)
        totals, best = sweep.totals(0.0 if fs is None else fs)
        assert [float(r["total"]) for r in rows] == totals.tolist()
        assert f"best M={sweep.grid[best]:g} total={totals[best]:.9g}" in res.output

    def test_single_m_json(self, runner, tmp_path, circle_pair):
        a, _ = circle_pair
        res = runner.invoke(cli.main, [
            "bound", "--group", "torus(1)", "--points", a, "--M", "40",
            "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = json.loads(open(read_artifact(res.output)).read())
        assert payload["result"]["total"] > 0
        assert "total=" in res.output

    def test_identical_measures_reduce_to_psi(self, runner, tmp_path,
                                              circle_pair):
        a, _ = circle_pair
        res = runner.invoke(cli.main, [
            "bound", "--group", "torus(1)", "--points", a, "--points", a,
            "--M", "40", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = json.loads(open(read_artifact(res.output)).read())
        assert payload["result"]["fourier_sum"] == 0.0
        assert payload["result"]["total"] == payload["result"]["psi"]

    def test_verify_needs_second_measure(self, runner, tmp_path, circle_pair):
        a, _ = circle_pair
        res = runner.invoke(cli.main, [
            "bound", "--group", "torus(1)", "--points", a, "--M", "40",
            "--verify", "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_CONFIG

    def test_dominance_violation_exit(self, runner, tmp_path, circle_pair,
                                      monkeypatch):
        a, b = circle_pair
        real = transport.exact_wasserstein

        def inflated(G, g, nu1, nu2, **kw):
            plan = real(G, g, nu1, nu2, **kw)
            object.__setattr__(plan, "cost", plan.cost + 10.0)
            return plan

        monkeypatch.setattr(cli.transport, "exact_wasserstein", inflated)
        res = runner.invoke(cli.main, [
            "bound", "--group", "torus(1)", "--points", a, "--points", b,
            "--M", "40", "--verify", "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_DOMINANCE
        assert "dominance" in res.output

    def test_torus3_cutoff_above_size_guard(self, runner, tmp_path):
        # the size guard stops an exact torus(3) sweep before it enumerates
        # millions of irreps
        rng = np.random.default_rng(3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        groups.save_points(a, "torus(3)", rng.random((3, 3)))
        groups.save_points(b, "torus(3)", rng.random((3, 3)))
        out = tmp_path / "art"
        res = runner.invoke(cli.main, [
            "bound", "--group", "torus(3)", "--points", str(a), "--points",
            str(b), "--M", "800", "--out", str(out)])
        assert res.exit_code == cli.EXIT_CONFIG, res.output
        assert "too large" in res.output
        assert not out.exists()


class TestAuditCommand:
    def test_circle_lattice_with_verify(self, runner, tmp_path):
        pts = tmp_path / "lat.csv"
        groups.save_points(pts, "torus(1)", np.arange(16)[:, None] / 16)
        res = runner.invoke(cli.main, [
            "audit", "--group", "torus(1)", "--points", str(pts),
            "--verify", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = json.loads(open(read_artifact(res.output)).read())
        assert payload["result"]["oracle"]["lattice_n"] == 2 ** 14
        assert payload["result"]["bound"]["total"] <= 4 / 64
        assert "haar_lattice_slack" in payload["tolerances"]

    def test_verify_rejected_off_circle(self, runner, tmp_path):
        pts = tmp_path / "p.csv"
        groups.save_points(pts, "su2", groups.haar_sample(
            groups.descriptor("su2"), 1, 8))
        res = runner.invoke(cli.main, [
            "audit", "--group", "su2", "--points", str(pts), "--verify",
            "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_CONFIG
        assert "circle" in res.output

    def test_verify_rejected_before_the_audit(self, runner, tmp_path, monkeypatch):
        # the precondition is checked first: the audit never runs, and the
        # verify message wins over a points file that would also fail
        def no_audit(*args, **kwargs):
            raise AssertionError("audit ran before the --verify check")

        monkeypatch.setattr(walks, "equidistribution_audit", no_audit)
        pts = tmp_path / "p.csv"
        groups.save_points(pts, "torus(2)", groups.haar_sample(
            groups.descriptor("torus(2)"), 1, 8))
        for group in ("torus(2)", "torus(1)"):
            res = runner.invoke(cli.main, [
                "audit", "--group", group, "--points", str(pts), "--verify",
                "--g", "power:0.5", "--out", str(tmp_path)])
            assert res.exit_code == cli.EXIT_CONFIG
            assert "circle" in res.output

    def test_verify_reads_points_once(self, runner, tmp_path, monkeypatch):
        pts = tmp_path / "lat.csv"
        groups.save_points(pts, "torus(1)", np.arange(16)[:, None] / 16)
        reads = []
        real = groups.load_points

        def counted(*args, **kwargs):
            reads.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(groups, "load_points", counted)
        res = runner.invoke(cli.main, [
            "audit", "--group", "torus(1)", "--points", str(pts),
            "--verify", "--out", str(tmp_path / "art")])
        assert res.exit_code == 0, res.output
        assert reads == [str(pts)]

    def test_gap_echo(self, runner, tmp_path):
        pts = tmp_path / "p5.csv"
        groups.save_points(pts, "so3", walks.lps_generators(5).rotations)
        res = runner.invoke(cli.main, [
            "audit", "--group", "so3", "--points", str(pts),
            "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "gap=0.723406401366" in res.output


class TestWalkCommand:
    def test_walk_csv_with_gap_hint(self, runner, tmp_path):
        pts = tmp_path / "p5.csv"
        groups.save_points(pts, "so3", walks.lps_generators(5).rotations)
        res = runner.invoke(cli.main, [
            "walk", "--group", "so3", "--points", str(pts), "--M", "10.5",
            "--reps", "4", "--gap-hint", str(math.sqrt(5) / 3),
            "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = open(read_artifact(res.output)).read().splitlines()
        header = lines[3].split(",")
        assert header == list(walks.WALK_CSV_HEADER)
        first = dict(zip(header, lines[4].split(",")))
        assert first["relaxed_total"] != ""
        assert len(lines) == 4 + 4

    def test_walk_tolerance_keys(self, runner, tmp_path):
        pts = tmp_path / "p5.csv"
        groups.save_points(pts, "so3", walks.lps_generators(5).rotations)
        res = runner.invoke(cli.main, [
            "walk", "--group", "so3", "--points", str(pts), "--M", "10.5",
            "--reps", "9", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        header = open(read_artifact(res.output)).read().splitlines()[2]
        tol = json.loads(header.split("=", 1)[1])
        assert set(tol) == {"power_recheck", "gap_submultiplicative",
                            "walk_spectral", "psi_quadrature", "float_slack"}
        # every block of the symmetric set is diagonalised, with a bound
        # far below the recheck tolerance
        assert 0.0 < tol["walk_spectral"] < tol["power_recheck"]

    def test_walk_tolerances_of_totals(self, runner, tmp_path):
        # the maxima over steps of what a bound artifact reports at each
        # step's best cutoff and total
        pts = tmp_path / "p5.csv"
        groups.save_points(pts, "so3", walks.lps_generators(5).rotations)
        res = runner.invoke(cli.main, [
            "walk", "--group", "so3", "--points", str(pts), "--M", "25.5",
            "--reps", "12", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = open(read_artifact(res.output)).read().splitlines()
        tol = json.loads(lines[2].split("=", 1)[1])
        rows = [dict(zip(lines[3].split(","), ln.split(","))) for ln in lines[4:]]
        ms = [float(r["exact_m"]) for r in rows]
        totals = [float(r["exact_total"]) for r in rows]
        assert len(set(ms)) > 1
        G = groups.descriptor("so3")
        g = bound.ModulusOfContinuity.power(1.0)
        assert tol["psi_quadrature"] == max(
            bound.psi_detailed(G, g, m)["quad_error"] for m in ms)
        assert tol["float_slack"] == max(1e-11 * max(1.0, t) for t in totals)

    @given(token=st.sampled_from(("nan", "inf", "-inf")),
           reps=st.integers(1, 400))
    @settings(max_examples=12, deadline=None)
    def test_non_finite_gap_hint(self, token, reps):
        # a nan hint used to give exit 0 and nan relaxed totals
        self._assert_gap_hint_rejected(token, reps)

    @given(hint=st.one_of(
        st.floats(max_value=0.0, exclude_max=True, allow_nan=False,
                  allow_infinity=False),
        st.floats(min_value=1.0, exclude_min=True, allow_nan=False,
                  allow_infinity=False)),
        reps=st.integers(1, 400))
    @settings(max_examples=25, deadline=None)
    def test_gap_hint_outside_unit_interval(self, hint, reps):
        # hint 10 over 400 steps used to overflow in hint ** k (exit 1)
        self._assert_gap_hint_rejected(repr(hint), reps)

    @staticmethod
    def _assert_gap_hint_rejected(hint: str, reps: int):
        with tempfile.TemporaryDirectory() as tmp:
            pts = os.path.join(tmp, "p5.csv")
            groups.save_points(pts, "so3", walks.lps_generators(5).rotations)
            out = os.path.join(tmp, "art")
            res = CliRunner().invoke(cli.main, [
                "walk", "--group", "so3", "--points", pts, "--M", "5.5",
                "--reps", str(reps), "--gap-hint", hint, "--out", out])
            assert res.exit_code == cli.EXIT_CONFIG, res.output
            assert "gap hint" in res.output
            assert not os.path.exists(out)

    def test_walk_requires_m(self, runner, tmp_path):
        pts = tmp_path / "p5.csv"
        groups.save_points(pts, "so3", walks.lps_generators(5).rotations)
        res = runner.invoke(cli.main, [
            "walk", "--group", "so3", "--points", str(pts),
            "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_CONFIG

    def test_convolution_check_failure_exit(self, runner, tmp_path,
                                            monkeypatch):
        # one entry of the step measure's l = 1 block moved by 1e-9: b @ b
        # then misses the nu*nu block by 1.3e-10, 119 times the check's
        # tolerance (1.12e-12 at n = 6, d = 11)
        rot = walks.lps_generators(5).rotations
        pts = tmp_path / "p5.csv"
        groups.save_points(pts, "so3", rot)
        real, shifted_labels = fourier.measure_transforms, []

        def shifted(G, nu, labels):
            blocks = real(G, nu, labels)
            if nu.size != len(rot):
                return blocks
            for i, label in enumerate(map(tuple, labels.tolist())):
                if label == (1,):
                    blocks[i] = blocks[i].copy()
                    blocks[i][0, 0] += 1e-9
                    shifted_labels.append(label)
            return blocks

        monkeypatch.setattr(fourier, "measure_transforms", shifted)
        res = runner.invoke(cli.main, [
            "walk", "--group", "so3", "--points", str(pts), "--M", "6.5",
            "--reps", "2", "--verify", "--out", str(tmp_path / "art")])
        # the walk's blocks and the check's b both carry the shift
        assert shifted_labels == [(1,), (1,)]
        assert res.exit_code == cli.EXIT_SOLVER, res.output
        assert "solver failure" in res.output and "b @ b" in res.output
        assert not (tmp_path / "art").exists()

    def test_walk_verify_passes_honest_sampling(self, runner, tmp_path,
                                                monkeypatch):
        # the check is exact: no random numbers, so no dependence on --seed
        pts = tmp_path / "p5.csv"
        groups.save_points(pts, "so3", walks.lps_generators(5).rotations)

        def no_rng(*args, **kwargs):
            raise AssertionError("walk --verify drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        rows = []
        for seed in ("3", "12345"):
            res = runner.invoke(cli.main, [
                "walk", "--group", "so3", "--points", str(pts), "--M", "6.5",
                "--reps", "2", "--verify", "--seed", seed,
                "--out", str(tmp_path / seed)])
            assert res.exit_code == 0, res.output
            with open(read_artifact(res.output)) as fh:
                rows.append([ln for ln in fh if not ln.startswith("#")])
        assert rows[0] == rows[1]


class TestEmpiricalCommand:
    def test_haar_sweep_csv(self, runner, tmp_path):
        res = runner.invoke(cli.main, [
            "empirical", "--group", "torus(1)", "--n-list", "8,16",
            "--reps", "3", "--M", "30", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = open(read_artifact(res.output)).read().splitlines()
        assert lines[3].split(",") == list(walks.EMPIRICAL_CSV_HEADER)
        assert len(lines) == 4 + 2

    def test_requires_n_list(self, runner, tmp_path):
        res = runner.invoke(cli.main, [
            "empirical", "--group", "torus(1)", "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_CONFIG
        assert "--n-list" in res.output

    def test_haar_verify_rejected(self, runner, tmp_path):
        res = runner.invoke(cli.main, [
            "empirical", "--group", "torus(1)", "--n-list", "8",
            "--verify", "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_CONFIG
        assert "discrete source" in res.output

    def test_discrete_source_verify(self, runner, tmp_path, circle_pair):
        a, _ = circle_pair
        res = runner.invoke(cli.main, [
            "empirical", "--group", "torus(1)", "--n-list", "8,16",
            "--reps", "2", "--points", a, "--M", "30", "--verify",
            "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = open(read_artifact(res.output)).read().splitlines()
        row = dict(zip(lines[3].split(","), lines[4].split(",")))
        assert row["oracle_mean"] != ""

    @pytest.mark.parametrize("discrete", [True, False], ids=["points", "haar"])
    def test_tolerances_of_bounds(self, runner, tmp_path, circle_pair,
                                  discrete):
        # the header carries the tolerance union of the bound reports
        # behind bound_min/mean/max, beside the variance budget factor
        args = ["empirical", "--group", "torus(1)", "--n-list", "8,16",
                "--reps", "3", "--M", "30", "--out", str(tmp_path)]
        res = runner.invoke(cli.main, args + (
            ["--points", circle_pair[0]] if discrete else []))
        assert res.exit_code == 0, res.output
        lines = open(read_artifact(res.output)).read().splitlines()
        tol = json.loads(lines[2].split("=", 1)[1])
        parts = ("psi_quadrature", "float_slack", "fourier_roundoff")
        assert set(tol) == {"variance_budget_factor", "total", *parts}
        assert tol["variance_budget_factor"] == 1.0 + 3.0 / math.sqrt(3)
        rows = [dict(zip(lines[3].split(","), ln.split(",")))
                for ln in lines[4:]]
        assert tol["float_slack"] == max(
            1e-11 * max(1.0, float(r["bound_max"])) for r in rows)
        assert max(tol[k] for k in parts) <= tol["total"] <= sum(
            tol[k] for k in parts)

    @pytest.mark.parametrize("excess,code", [(0.5, 0), (2.0, cli.EXIT_DOMINANCE)])
    def test_verify_allows_the_lp_gap(self, runner, tmp_path, circle_pair,
                                      monkeypatch, excess, code):
        # an LP cost above a draw's total + tolerance by less than GAP_TOL is
        # within the LP's own certificate, as bound --verify allows
        a, _ = circle_pair
        report, reports = bound.CutoffSweep.report, []
        real = transport.exact_wasserstein

        def recorded(self, *args, **kw):
            reports.append(report(self, *args, **kw))
            return reports[-1]

        def above(G, g, nu1, nu2, **kw):
            plan = real(G, g, nu1, nu2, **kw)
            rep = reports[-1]
            object.__setattr__(plan, "cost", rep.total + rep.tolerance
                               + excess * transport.GAP_TOL)
            return plan

        monkeypatch.setattr(bound.CutoffSweep, "report", recorded)
        monkeypatch.setattr(transport, "exact_wasserstein", above)
        res = runner.invoke(cli.main, [
            "empirical", "--group", "torus(1)", "--points", a, "--n-list", "4,8",
            "--reps", "2", "--verify", "--out", str(tmp_path)])
        assert res.exit_code == code, res.output
        # every draw is checked; the first one above the slack stops the run
        assert len(reports) == (4 if code == 0 else 1)


class TestOracleCommand:
    def test_circle_cross_check(self, runner, tmp_path, circle_pair):
        a, b = circle_pair
        res = runner.invoke(cli.main, [
            "oracle", "--group", "torus(1)", "--points", a, "--points", b,
            "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = json.loads(open(read_artifact(res.output)).read())
        assert payload["result"]["circle_agreement"] <= 1e-10
        assert payload["tolerances"]["duality_gap"] == transport.GAP_TOL
        assert "cost=" in res.output

    def test_needs_two_point_sets(self, runner, tmp_path, circle_pair):
        a, _ = circle_pair
        res = runner.invoke(cli.main, [
            "oracle", "--group", "torus(1)", "--points", a,
            "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_CONFIG


def test_numeric_path_builds_no_irrep(tmp_path, monkeypatch):
    # bound, empirical, audit, walk and kernel read the spectrum as the
    # label rows of groups.spectral_data
    built, init = [], groups.Irrep.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.Irrep, "__init__", counted)
    files = {}
    for name, gid, n in (("t2a", "torus(2)", 8), ("t2b", "torus(2)", 6),
                         ("su2", "su2", 6), ("so3", "so3", 12)):
        files[name] = str(tmp_path / f"{name}.csv")
        groups.save_points(files[name], gid,
                           groups.haar_sample(groups.descriptor(gid), 60 + n, n))
    files["lps5"] = str(tmp_path / "lps5.csv")
    groups.save_points(files["lps5"], "so3", walks.lps_generators(5).rotations)
    configs = [
        dict(command="bound", group="torus(2)", points=(files["t2a"], files["t2b"]),
             verify=True),
        dict(command="empirical", group="su2", points=(files["su2"],), n_list="4,8",
             reps=2, verify=True),
        dict(command="audit", group="so3", points=(files["so3"],)),
        dict(command="walk", group="so3", points=(files["lps5"],), M=6.5, reps=2,
             verify=True),
        dict(command="kernel", group="su2", M=4.0),
        dict(command="kernel", group="torus(3)", M=20.0)]
    for i, fields in enumerate(configs):
        assert cli.run(cli.RunConfig(out=str(tmp_path / str(i)), **fields)) == 0
    assert built == []


class TestExitPaths:
    def test_malformed_points_header(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("group torus(1)\n0.25\n")
        res = runner.invoke(cli.main, [
            "bound", "--group", "torus(1)", "--points", str(bad),
            "--M", "40", "--out", str(tmp_path / "art")])
        assert res.exit_code == cli.EXIT_CONFIG
        assert not os.path.exists(tmp_path / "art")

    def test_missing_points_file(self, runner, tmp_path):
        res = runner.invoke(cli.main, [
            "bound", "--group", "torus(1)", "--points",
            str(tmp_path / "absent.csv"), "--M", "40",
            "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_IO

    def test_wrong_group_in_points(self, runner, tmp_path):
        pts = tmp_path / "p.csv"
        groups.save_points(pts, "su2", [[1.0, 0.0, 0.0, 0.0]])
        res = runner.invoke(cli.main, [
            "bound", "--group", "torus(1)", "--points", str(pts),
            "--M", "40", "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_CONFIG

    @given(group=st.sampled_from(GROUP_IDS),
           token=st.sampled_from(("nan", "inf", "-inf")),
           n_rows=st.integers(1, 4), data=st.data(), bad_first=st.booleans(),
           single_m=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_non_finite_coordinate(self, group, token, n_rows, data,
                                   bad_first, single_m):
        # a point file with a non-finite coordinate is an input error: exit
        # 2 and no artifact, never a bound of nan
        dim = groups.descriptor(group).dim
        row = data.draw(st.integers(0, n_rows - 1))
        col = data.draw(st.integers(0, dim - 1))
        cells = [["0.5"] * dim for _ in range(n_rows)]
        cells[row][col] = token
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "bad.csv")
            good = os.path.join(tmp, "good.csv")
            with open(bad, "w") as fh:
                fh.write(f"# group={group}\n")
                fh.writelines(",".join(r) + "\n" for r in cells)
            groups.save_points(good, group, np.full((2, dim), 0.5))
            paths = [bad, good] if bad_first else [good, bad]
            out = os.path.join(tmp, "art")
            args = ["bound", "--group", group, "--points", paths[0],
                    "--points", paths[1], "--out", out]
            if single_m:
                args += ["--M", "20"]
            res = CliRunner().invoke(cli.main, args)
            assert res.exit_code == cli.EXIT_CONFIG, res.output
            assert "non-finite" in res.output
            assert not os.path.exists(out)

    def test_non_finite_modulus_table(self, runner, tmp_path, circle_pair):
        # nan passes every order check of the table; it must not reach the
        # tail majorants (an uncaught RuntimeError, exit 1)
        table = tmp_path / "mod.csv"
        table.write_text("0.5,0.3\n1.0,nan\n")
        out = tmp_path / "art"
        res = runner.invoke(cli.main, [
            "bound", "--group", "torus(1)", "--points", circle_pair[0],
            "--points", circle_pair[1], "--g", f"table:{table}", "--M", "40",
            "--out", str(out)])
        assert res.exit_code == cli.EXIT_CONFIG, res.output
        assert "finite" in res.output
        assert not os.path.exists(out)

    def test_non_subadditive_modulus_table(self, runner, tmp_path,
                                           circle_pair):
        # g(2e-3) = 0.03 > 2 g(1e-3): not a modulus of continuity, so no
        # bound may be certified under it
        table = tmp_path / "mod.csv"
        table.write_text("0.001,0.01\n0.002,0.03\n1.0,1.0\n")
        out = tmp_path / "art"
        res = runner.invoke(cli.main, [
            "bound", "--group", "torus(1)", "--points", circle_pair[0],
            "--points", circle_pair[1], "--g", f"table:{table}", "--M", "40",
            "--out", str(out)])
        assert res.exit_code == cli.EXIT_CONFIG, res.output
        assert "subadditive" in res.output
        assert not os.path.exists(out)

    @pytest.mark.parametrize("args", [
        ["kernel", "--group", "su2"],
        ["empirical", "--group", "su2", "--n-list", "4,8", "--reps", "1"]])
    def test_non_finite_cutoff(self, runner, tmp_path, args):
        # an infinite cutoff must stop at the config check, before
        # int(floor(M)) can raise OverflowError (exit 1)
        out = tmp_path / "art"
        res = runner.invoke(cli.main, args + ["--M", "inf", "--out", str(out)])
        assert res.exit_code == cli.EXIT_CONFIG, res.output
        assert "finite" in res.output
        assert not os.path.exists(out)

    def test_unknown_group(self, runner, tmp_path):
        res = runner.invoke(cli.main, [
            "kernel", "--group", "su3", "--M", "5", "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("args,line", [
        (["oracle", "--group", "su3", "--points", "{t1}", "--points", "{t1}"],
         "unknown group id: 'su3'"),
        (["kernel", "--group", "torus(1)", "--M", "1"],
         "M=1.0 below admissibility threshold 3.141592653589793 for torus(1)"),
        (["bound", "--group", "torus(1)", "--points", "{t1}", "--M", "1"],
         "M=1.0 below admissibility threshold 3.141592653589793"),
        (["walk", "--group", "torus(1)", "--points", "{t1}", "--M", "4"],
         "no irreps below M=4.0; raise the cutoff"),
        (["audit", "--group", "torus(1)", "--points", "{su2}"],
         "{su2}: header group 'su2' does not match requested 'torus(1)'"),
        (["empirical", "--group", "torus(1)", "--n-list", "4,2"],
         "N_list must be strictly ascending"),
    ], ids=["oracle", "kernel", "bound", "walk", "audit", "empirical"])
    def test_library_value_error_line(self, runner, tmp_path, args, line):
        # a ValueError raised in the library reaches the user as one
        # "config error" line and exit 2, with no artifact written
        files = {"t1": str(tmp_path / "t1.csv"), "su2": str(tmp_path / "s.csv")}
        groups.save_points(files["t1"], "torus(1)", np.arange(8)[:, None] / 8)
        groups.save_points(files["su2"], "su2",
                           groups.haar_sample(groups.descriptor("su2"), 1, 8))
        out = tmp_path / "art"
        res = runner.invoke(cli.main, [a.format(**files) for a in args]
                            + ["--out", str(out)])
        assert res.exit_code == cli.EXIT_CONFIG
        assert res.stderr == f"config error: {line.format(**files)}\n"
        assert res.stdout == ""
        assert not out.exists()


# The option matrix of the README, written out here rather than read from
# cli: per command the --points files it takes, the options it needs and the
# others it reads.  Every command also reads --group, --seed and --out.
COMMAND_TABLE = {
    "kernel": ((0, 0), {"--M"}, {"--profile"}),
    "oracle": ((2, 2), set(), {"--g"}),
    "bound": ((1, 2), set(), {"--g", "--M", "--M-grid", "--profile", "--verify"}),
    "audit": ((1, 1), set(), {"--g", "--M-grid", "--profile", "--verify"}),
    "walk": ((1, 1), {"--M"},
             {"--g", "--profile", "--reps", "--gap-hint", "--verify"}),
    "empirical": ((0, 1), {"--n-list"},
                  {"--g", "--M", "--profile", "--reps", "--verify"}),
}
ALWAYS = {"--group", "--seed", "--out"}
# flag -> (RunConfig field, a value away from its default); points name files
OPTION_VALUES = {
    "--points": ("points", ("a",)), "--g": ("g", "power:0.5"),
    "--M": ("M", 30.0), "--M-grid": ("M_grid", "4:64:6"),
    "--n-list": ("n_list", "4,8"), "--profile": ("profile", "plateau"),
    "--reps": ("reps", 2), "--gap-hint": ("gap_hint", 0.5),
    "--verify": ("verify", True), "--seed": ("seed", 5),
}
# a run on torus(1) that succeeds with every option the command reads
TABLE_BASE = {
    "kernel": {"--M": 30.0},
    "oracle": {"--points": ("a", "b")},
    "bound": {"--points": ("a", "b")},
    "audit": {"--points": ("lattice",)},
    "walk": {"--points": ("golden",), "--M": 30.0},
    "empirical": {"--points": ("a",), "--n-list": "4,8"},
}


def _reads(cmd: str) -> set:
    (_, hi), needs, also = COMMAND_TABLE[cmd]
    return needs | also | ALWAYS | ({"--points"} if hi else set())


def _pairs(read: bool) -> list:
    return [(cmd, flag) for cmd in COMMAND_TABLE for flag in sorted(OPTION_VALUES)
            if (flag in _reads(cmd)) == read]


class TestCommandTable:
    @pytest.fixture
    def files(self, tmp_path, circle_pair):
        lattice, golden = tmp_path / "lattice.csv", tmp_path / "golden.csv"
        groups.save_points(lattice, "torus(1)", np.arange(16)[:, None] / 16)
        groups.save_points(golden, "torus(1)", [[0.0], [(math.sqrt(5) - 1) / 2]])
        return {"a": circle_pair[0], "b": circle_pair[1],
                "lattice": str(lattice), "golden": str(golden)}

    @staticmethod
    def _options(cmd: str, flag: str) -> dict:
        options = {flag: OPTION_VALUES[flag][1], **TABLE_BASE[cmd]}
        if flag == "--M-grid":
            options.pop("--M", None)  # RunConfig refuses both at once
        return options

    @staticmethod
    def _cli_args(cmd, options, files, out) -> list:
        args = [cmd, "--group", "torus(1)", "--out", str(out)]
        for flag, value in options.items():
            if flag == "--points":
                for key in value:
                    args += [flag, files[key]]
            else:
                args += [flag] if value is True else [flag, str(value)]
        return args

    @staticmethod
    def _config(cmd, options, files, out) -> cli.RunConfig:
        fields = {OPTION_VALUES[flag][0]: value for flag, value in options.items()}
        if "points" in fields:
            fields["points"] = tuple(files[key] for key in fields["points"])
        return cli.RunConfig(command=cmd, group="torus(1)", out=str(out), **fields)

    @pytest.mark.parametrize("cmd,flag", _pairs(read=False))
    def test_unread_option_exits_2(self, runner, tmp_path, files, capsys,
                                   cmd, flag):
        # these used to be dropped silently, with exit 0 and the unread
        # value recorded in the artifact's config echo
        options, out = self._options(cmd, flag), tmp_path / "art"
        res = runner.invoke(cli.main, self._cli_args(cmd, options, files, out))
        assert res.exit_code == cli.EXIT_CONFIG, res.output
        assert f"No such option '{flag}'" in res.output
        capsys.readouterr()
        assert cli.run(self._config(cmd, options, files, out)) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: {cmd} does not read {flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cmd,flag", _pairs(read=True))
    def test_read_option_runs(self, runner, tmp_path, files, cmd, flag):
        options = self._options(cmd, flag)
        res = runner.invoke(cli.main, self._cli_args(cmd, options, files,
                                                     tmp_path / "art"))
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("cmd,n", [
        (cmd, n) for cmd, ((lo, hi), _, _) in COMMAND_TABLE.items()
        for n in range(4) if hi and not lo <= n <= hi])
    def test_points_count(self, tmp_path, capsys, cmd, n):
        options = {**TABLE_BASE[cmd], "--points": ("a",) * n}
        cfg = self._config(cmd, options, {"a": "absent.csv"}, tmp_path)
        assert cli.run(cfg) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cmd} takes ") and "--points" in err

    @pytest.mark.parametrize("cmd,flag", [
        (cmd, flag) for cmd, (_, needs, _) in COMMAND_TABLE.items()
        for flag in sorted(needs)])
    def test_missing_need(self, tmp_path, capsys, files, cmd, flag):
        options = {k: v for k, v in TABLE_BASE[cmd].items() if k != flag}
        assert cli.run(self._config(cmd, options, files, tmp_path)) == \
            cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {cmd} needs {flag}\n"

    @pytest.mark.parametrize("cmd", sorted(COMMAND_TABLE))
    def test_help_lists_exactly_read_options(self, runner, cmd):
        res = runner.invoke(cli.main, [cmd, "--help"])
        assert res.exit_code == 0, res.output
        listed = set(re.findall(r"^  (--[\w-]+)", res.output, re.M))
        assert listed == _reads(cmd) | {"--help"}


class TestReproducibility:
    def test_byte_identical_rerun(self, runner, tmp_path, circle_pair):
        a, b = circle_pair
        args = ["bound", "--group", "torus(1)", "--points", a, "--points",
                b, "--M-grid", "4:64:5", "--seed", "11",
                "--out", str(tmp_path)]
        r1 = runner.invoke(cli.main, args)
        path = read_artifact(r1.output)
        first = open(path, "rb").read()
        r2 = runner.invoke(cli.main, args)
        assert read_artifact(r2.output) == path
        assert open(path, "rb").read() == first

    def test_json_artifact_has_no_timestamp(self, runner, tmp_path):
        res = runner.invoke(cli.main, ["kernel", "--group", "torus(1)",
                                       "--M", "7", "--out", str(tmp_path)])
        payload = json.loads(open(read_artifact(res.output)).read())

        def keys(node):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield k
                    yield from keys(v)
            elif isinstance(node, list):
                for v in node:
                    yield from keys(v)

        for key in keys(payload):
            assert "time" not in key and "date" not in key

    def test_seed_changes_hash_only(self, runner, tmp_path):
        paths = []
        for seed in ("1", "2"):
            res = runner.invoke(cli.main, [
                "kernel", "--group", "su2", "--M", "6", "--seed", seed,
                "--out", str(tmp_path)])
            paths.append(read_artifact(res.output))
        assert paths[0] != paths[1]
        r0 = json.loads(open(paths[0]).read())["result"]
        r1 = json.loads(open(paths[1]).read())["result"]
        assert r0 == r1  # kernel output is seed-independent

    def test_run_function_direct(self, tmp_path):
        cfg = cli.RunConfig(command="kernel", group="su2", M=6.0,
                            out=str(tmp_path))
        assert cli.run(cfg) == 0
        # a non-finite result is a solver failure (exit 4), never bare NaN
        with pytest.raises(SolverError, match="non-finite"):
            cli.write_json_artifact(cfg, {"total": math.nan}, {})
        assert len(os.listdir(tmp_path)) == 1

    @pytest.mark.parametrize("row,tolerances", [
        ([1, math.nan], {}), ([1, 0.5], {"t": math.inf}),
        ([1, np.float64(-math.inf)], {})])
    def test_csv_artifact_refuses_non_finite(self, tmp_path, row, tolerances):
        cfg = cli.RunConfig(command="walk", group="su2", out=str(tmp_path))
        with pytest.raises(SolverError, match="non-finite"):
            cli.write_csv_artifact(cfg, ("step", "x"), [[0, 0.25], row],
                                   tolerances)
        assert os.listdir(tmp_path) == []
