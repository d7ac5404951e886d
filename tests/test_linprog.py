from __future__ import annotations

import numpy as np
import pytest

import genquot as gq
from genquot.linprog import LPProblem, solve_lp

from conftest import enumerate_lp


def lp(a, b, c):
    return LPProblem(np.asarray(a, float), np.asarray(b, float), np.asarray(c, float))


class TestBasicVerdicts:
    def test_simple_optimal(self):
        sol = solve_lp(lp([[1.0, 1.0]], [1.0], [1.0, 1.0]))
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 1.0) <= 1e-9

    def test_infeasible_negative_rhs(self):
        sol = solve_lp(lp([[1.0]], [-1.0], [0.0]))
        assert sol.status == "infeasible"
        # Farkas certificate: y.b > 0 while A^T y <= 0
        y = sol.dual_point
        assert float(y @ [-1.0]) > 0
        assert float((np.asarray([[1.0]]).T @ y)[0]) <= 1e-9

    def test_enumerable_instance(self):
        sol = solve_lp(lp([[1, 0, 1], [0, 1, 1]], [1, 1], [1, 1, 1]))
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 1.0) <= 1e-9
        assert np.allclose(sol.point, [0.0, 0.0, 1.0], atol=1e-9)

    def test_unbounded(self):
        # x1 - x2 = 0, minimize -x1: push both to infinity
        sol = solve_lp(lp([[1.0, -1.0]], [0.0], [-1.0, 0.0]))
        assert sol.status == "unbounded"

    def test_nonfinite_rejected(self):
        with pytest.raises(gq.NumericError):
            lp([[np.inf, 1.0]], [1.0], [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(gq.UsageError):
            lp([[1.0, 1.0]], [1.0, 2.0], [1.0, 1.0])

    def test_iteration_cap_stalls(self):
        with pytest.raises(gq.SolverStall):
            solve_lp(lp([[1, 0, 1], [0, 1, 1]], [1, 1], [1, 1, 1]), max_iter=1)

    def test_redundant_row(self):
        # duplicated consistent constraint
        sol = solve_lp(lp([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0], [2.0, 1.0]))
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 1.0) <= 1e-9
        # inconsistent duplicate
        sol = solve_lp(lp([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], [2.0, 1.0]))
        assert sol.status == "infeasible"


class TestCertificates:
    def test_optimality_certificates_random(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m, v = rng.integers(1, 5), rng.integers(2, 9)
            a = rng.normal(size=(m, v))
            x0 = np.abs(rng.normal(size=v))
            b = a @ x0
            c = np.abs(rng.normal(size=v))
            sol = solve_lp(lp(a, b, c))
            assert sol.status == "optimal"
            # primal feasibility
            assert np.max(np.abs(a @ sol.point - b)) <= 1e-9 * (1 + np.max(np.abs(b)))
            assert np.min(sol.point) >= -1e-12
            # weak duality and gap
            dual_obj = float(b @ sol.dual_point)
            assert dual_obj <= sol.objective_value + 1e-8
            assert abs(dual_obj - sol.objective_value) <= 1e-8 * (1 + abs(sol.objective_value))
            # dual feasibility
            assert np.max(a.T @ sol.dual_point - c) <= 1e-8

    def test_agrees_with_enumeration(self):
        rng = np.random.default_rng(11)
        optimal_seen = infeasible_seen = 0
        for trial in range(60):
            m = int(rng.integers(1, 5))
            v = int(rng.integers(m, 9))
            a = rng.normal(size=(m, v))
            c = np.abs(rng.normal(size=v))
            if trial % 3 == 0:
                b = rng.normal(size=m) * 2.0  # may or may not be reachable
            else:
                b = a @ np.abs(rng.normal(size=v))
            status, value = enumerate_lp(a, b, c)
            sol = solve_lp(lp(a, b, c))
            assert sol.status == status
            if status == "optimal":
                optimal_seen += 1
                assert abs(sol.objective_value - value) <= 1e-7 * (1 + abs(value))
            else:
                infeasible_seen += 1
        assert optimal_seen >= 20 and infeasible_seen >= 5

    def test_scaling_covariance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 6))
        x0 = np.abs(rng.normal(size=6))
        b = a @ x0
        c = np.abs(rng.normal(size=6))
        base = solve_lp(lp(a, b, c)).objective_value
        for s in (0.25, 3.0, 1e3):
            scaled = solve_lp(lp(a, s * b, c)).objective_value
            assert abs(scaled - s * base) <= 1e-9 * (1 + abs(s * base))

    def test_deterministic_resolve(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(4, 10))
        b = a @ np.abs(rng.normal(size=10))
        c = np.abs(rng.normal(size=10))
        s1 = solve_lp(lp(a, b, c))
        s2 = solve_lp(lp(a, b, c))
        assert s1.point.tobytes() == s2.point.tobytes()
        assert s1.objective_value == s2.objective_value
        assert s1.iterations == s2.iterations

    def test_warm_start_matches_cold(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(4, 12))
        b = a @ np.abs(rng.normal(size=12))
        c = np.abs(rng.normal(size=12))
        cold = solve_lp(lp(a, b, c))
        warm = solve_lp(lp(a, b, c), start_basis=cold.basis)
        assert warm.status == "optimal"
        assert abs(warm.objective_value - cold.objective_value) <= 1e-10 * (1 + abs(cold.objective_value))
        # a nonsense start falls back to phase 1 and still solves
        junk = solve_lp(lp(a, b, c), start_basis=np.array([0, 0, 0, 0]))
        assert abs(junk.objective_value - cold.objective_value) <= 1e-10 * (1 + abs(cold.objective_value))


def test_dump_and_load_problem(tmp_path):
    rng = np.random.default_rng(31)
    p = lp(rng.normal(size=(3, 5)), rng.normal(size=3), rng.normal(size=5))
    path = tmp_path / "problem.lp"
    gq.dump_problem(p, path)
    q = gq.load_problem(path)
    assert q.constraint_matrix.tobytes() == p.constraint_matrix.tobytes()
    assert q.rhs.tobytes() == p.rhs.tobytes()
    assert q.objective.tobytes() == p.objective.tobytes()
    with pytest.raises(gq.IoError):
        gq.load_problem(tmp_path / "missing.lp")


@pytest.mark.parametrize("text, detail", [
    ("1 2\n1 0\nrhs x\nobjective 1 1\n", "rhs record has a non-numeric entry"),
    ("1 2\n1 y\nrhs 1\nobjective 1 1\n", "row 0 has a non-numeric entry"),
], ids=["bad-rhs", "bad-matrix-row"])
def test_load_problem_bad_entry_is_io_error_naming_file(tmp_path, text, detail):
    path = tmp_path / "bad.lp"
    path.write_text(text)
    with pytest.raises(gq.IoError) as err:
        gq.load_problem(path)
    assert err.value.path == str(path)
    assert detail in err.value.message
