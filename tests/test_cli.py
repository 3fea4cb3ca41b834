"""Harness behavior: config validation, artifacts, exit codes, verification."""
import json
import math
import os
import tempfile

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from wgbound import bound, cli, groups, transport, walks
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
        ("seed", 2 ** 64), ("reps", 0)])
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

    def test_walk_requires_m(self, runner, tmp_path):
        pts = tmp_path / "p5.csv"
        groups.save_points(pts, "so3", walks.lps_generators(5).rotations)
        res = runner.invoke(cli.main, [
            "walk", "--group", "so3", "--points", str(pts),
            "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_CONFIG

    def test_sampling_check_failure_exit(self, runner, tmp_path,
                                         monkeypatch):
        pts = tmp_path / "p5.csv"
        groups.save_points(pts, "so3", walks.lps_generators(5).rotations)

        def corrupted(G, nu, k, n_paths, seed, irreps):
            return [np.eye(p.dim, dtype=complex) for p in irreps]

        monkeypatch.setattr(cli.walks, "sampled_walk_blocks", corrupted)
        res = runner.invoke(cli.main, [
            "walk", "--group", "so3", "--points", str(pts), "--M", "6.5",
            "--reps", "2", "--verify", "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_SOLVER
        assert "solver failure" in res.output

    def test_walk_verify_passes_honest_sampling(self, runner, tmp_path):
        pts = tmp_path / "p5.csv"
        groups.save_points(pts, "so3", walks.lps_generators(5).rotations)
        res = runner.invoke(cli.main, [
            "walk", "--group", "so3", "--points", str(pts), "--M", "6.5",
            "--reps", "2", "--verify", "--seed", "3",
            "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output


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

    def test_unknown_group(self, runner, tmp_path):
        res = runner.invoke(cli.main, [
            "kernel", "--group", "su3", "--M", "5", "--out", str(tmp_path)])
        assert res.exit_code == cli.EXIT_CONFIG


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
