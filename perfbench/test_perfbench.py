"""Quick tests of the benchmark's inputs, reference values and checks.

Run with: python3 -m pytest perfbench -q

Each kind of check is shown to reproduce a case with a known answer and to
fail on a corrupted value.  None of these tests imports the program.
"""
import json
import math
import os

import numpy as np
import pytest

import inputs
import oracles
import run
import workloads
from tracer import LAYERS, Tracer


def test_binary_icosahedral_is_a_group_of_60_rotations():
    B = inputs.binary_icosahedral()
    assert B.shape == (120, 4)
    products = inputs.quat_mul(B[:, None, :], B[None, :, :]).reshape(-1, 4)
    gaps = np.abs(products[:, None, :] - B[None, :, :]).max(axis=2).min(axis=1)
    assert gaps.max() < 1e-12
    assert inputs.rotations(B).shape == (60, 4)


@pytest.mark.parametrize("seed", [0, 7])
def test_icosahedral_energies_are_molien_coefficients(seed):
    rot = inputs.rotations(inputs.conjugate(seed, inputs.binary_icosahedral()))
    energies = oracles.so3_energies(rot, np.full(60, 1 / 60), range(26))
    molien = oracles.molien_icosahedral(25)
    assert molien[[0, 6, 10, 12, 15, 16, 25]].tolist() == [1, 1, 1, 1, 1, 1, 1]
    assert molien[[1, 2, 3, 4, 5, 7]].sum() == 0
    assert np.max(np.abs(energies - molien)) < 1e-12


def test_energy_check_fails_on_a_perturbed_energy():
    molien = oracles.molien_icosahedral(25)[1:]
    result = {"character_profile": [{"hs_sq": float(a)} for a in molien],
              "gap_estimate": 1.0}
    assert workloads.check_audit_energies(result, molien, 1e-9) == []
    result["character_profile"][5]["hs_sq"] += 1e-8
    assert workloads.check_audit_energies(result, molien, 1e-9)
    assert workloads.check_gap_at_most_one(result) == []
    result["gap_estimate"] = 1.0 + 1e-6
    assert workloads.check_gap_at_most_one(result)


def test_character_sum_of_two_rotations():
    # nu = (delta_e + delta_r)/2 with r a rotation by t: energy (d + chi(t)) / 2
    t = 1.3
    quats = np.array([[1.0, 0, 0, 0], [math.cos(t / 2), 0, 0, math.sin(t / 2)]])
    levels = np.arange(1, 6)
    d = 2 * levels + 1
    expected = (d + np.sin(d * t / 2) / np.sin(t / 2)) / 2
    got = oracles.so3_energies(quats, np.array([0.5, 0.5]), levels)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_haar_mean_angle_matches_sampling():
    x = inputs.haar_quaternions(3, 200000)
    angles = oracles.distance_matrix("so3", x, np.array([[1.0, 0, 0, 0]]))[:, 0]
    sigma = angles.std() / math.sqrt(angles.size)
    assert abs(angles.mean() - oracles.haar_mean_angle()) < 4 * sigma


def test_assignment_cost_known_cases():
    a = np.array([[0.1], [0.5]])
    b = np.array([[0.6], [0.2]])
    assert oracles.assignment_cost("torus(1)", a, b) == pytest.approx(0.1, abs=1e-15)
    wrap = oracles.assignment_cost("torus(2)", np.array([[0.95, 0.0]]), np.array([[0.05, 0.0]]))
    assert wrap == pytest.approx(0.1, abs=1e-15)
    q = inputs.haar_quaternions(1, 3)
    assert oracles.assignment_cost("su2", q, q) < 1e-7
    assert oracles.assignment_cost("su2", q[:1], -q[:1]) == pytest.approx(2 * math.pi)
    assert oracles.assignment_cost("so3", q, -q) < 1e-7


def test_bound_check_fails_below_the_transport_cost():
    rows = [{"M": "3.0", "total": "0.5", "tolerance": "1e-10"},
            {"M": "4.0", "total": "0.4", "tolerance": "1e-10"}]
    assert workloads.check_bound_csv(rows, 0.3) == []
    rows[1]["total"] = "0.29"
    assert workloads.check_bound_csv(rows, 0.3)


def test_sinkhorn_check_window():
    assert workloads.check_sinkhorn(1.005, 1.0) == []
    assert workloads.check_sinkhorn(0.999, 1.0)
    assert workloads.check_sinkhorn(1.02, 1.0)


def test_empirical_check_fails_when_a_bound_undercuts_the_oracle():
    row = {"N": "16", "bound_min": "0.9", "bound_mean": "1.0", "bound_max": "1.1",
           "oracle_min": "0.3", "oracle_mean": "0.4", "oracle_max": "0.5"}
    assert workloads.check_empirical_csv([row], [16]) == []
    assert workloads.check_empirical_csv([row], [16, 32])
    row["bound_min"] = "0.2"
    assert workloads.check_empirical_csv([row], [16])


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_lps_sets(p):
    q = inputs.lps_quaternions(p)
    assert q.shape == (p + 1, 4)
    assert np.allclose(np.linalg.norm(q, axis=1), 1.0)
    # symmetric: every inverse rotation is in the set
    inv = oracles.half_angles(inputs.quat_conj(q), q, so3=True)
    assert np.all(inv.min(axis=1) < 1e-7)


def test_walk_sums_known_cases():
    levels = np.arange(1, 6)
    identity = np.array([[1.0, 0, 0, 0]])
    expected = float(np.sum((2 * levels + 1) ** 2 / (levels * (levels + 1.0))))
    assert oracles.so3_walk_sum(identity, 2, 5) == pytest.approx(expected, rel=1e-13)
    # shift 1/2: cos^2(pi m / 2) is 0 for odd m and 1 for even m
    sums = oracles.torus_walk_sums(0.5, 3, 7.5)
    even = 2 * sum(1 / (4 * math.pi ** 2 * m * m) for m in (2, 4, 6))
    assert np.allclose(sums, even, rtol=1e-13)


def _walk_rows(q, fs):
    return [{"step": str(k), "q_hat": repr(a), "fourier_sum": repr(b)}
            for k, (a, b) in enumerate(zip(q, fs), start=1)]


def test_walk_check_fails_on_a_raised_q_hat():
    q1 = 0.7
    q = [q1 ** k for k in range(1, 6)]
    fs = [2.0 * q1 ** (2 * k) for k in range(1, 6)]
    lps = 2 * math.sqrt(5) / 6
    assert workloads.check_walk_csv(_walk_rows(q, fs), lps, fs[:2], 5) == []
    raised = [lps + 1e-9] + q[1:]
    assert workloads.check_walk_csv(_walk_rows(raised, fs), lps, fs[:2], 5)
    q[3] *= 1.01
    assert workloads.check_walk_csv(_walk_rows(q, fs), lps, fs[:2], 5)
    q[3] /= 1.01
    fs[3] = fs[2] * 1.001
    assert workloads.check_walk_csv(_walk_rows(q, fs), lps, fs[:2], 5)
    assert workloads.check_walk_csv(_walk_rows(q, fs), lps, [fs[0] * 1.01], 5)


def test_self_time_subtracts_wrapped_children():
    tr = Tracer()
    tr.spans = [["bound.optimize_M", 0.0, 10.0, -1, 0],
                ["bound.psi_detailed", 1.0, 3.0, 0, 0],
                ["bound.phi", 4.0, 5.0, 0, 0],
                ["bound.psi_detailed", 11.0, 12.0, -1, 0]]
    out = tr.summary()
    assert out["bound.optimize_M"] == {"calls": 1, "s": 7.0, "work": 0}
    assert out["bound.psi_detailed"] == {"calls": 2, "s": 3.0, "work": 0}
    assert out["transport.sinkhorn"]["calls"] == 0


def test_printed_metrics_are_the_declared_ones():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    layers = {layer: {"calls": 1, "s": 0.5, "work": 2} for layer in LAYERS}
    rounds = [{"traced": t, "setup_s": 1.0, "wall_s": 2.0, "peak_rss_mb": 3.0,
               "import_s": 0.5, "tables_s": 0.5, "layers": layers} for t in (False, True)]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        printed = run.summarize(rounds, trace)
        assert [(m["name"], m["unit"]) for m in declared[key]] == \
            [(name, unit) for name, (_, unit) in printed.items()]
