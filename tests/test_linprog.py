from __future__ import annotations

from functools import partial

import numpy as np
import pytest

import genquot as gq
from genquot import linprog
from genquot.linprog import LPProblem, solve_l1, solve_lp

from conftest import enumerate_lp, highs_gauges


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

    def test_iteration_cap_stalls(self, monkeypatch):
        problem = lp([[1, 0, 1], [0, 1, 1]], [1, 1], [1, 1, 1])
        basis = solve_lp(problem).basis
        monkeypatch.setattr(linprog, "_ITER_CAP", 0)  # the cap is _ITER_CAP * (m + v) pivots
        with pytest.raises(gq.SolverStall, match="phase-1 iteration cap 0"):
            solve_lp(problem)
        with pytest.raises(gq.SolverStall, match="^iteration cap 0"):  # phase 2, from a warm start
            solve_lp(problem, start_basis=basis)

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


# Golden pivot paths. The pivot loop must choose the same entering and leaving
# columns and report the same floats on fixed inputs, whatever its numpy
# calls look like. Each case drives one branch of the loop: Dantzig pricing
# (cold and warm), the switch to Bland's rule, phase 1 with a redundant row,
# the unbounded and infeasible exits, and a gauge LP from its crash basis.

def _gauge_problem(g: np.ndarray, x: np.ndarray) -> LPProblem:
    return LPProblem(np.hstack([g, -g]), x, np.ones(2 * g.shape[1]))


def _golden_gauge_lp(n: int, big_n: int, seed: int, warm: bool):
    """Gamma, the right-hand side and the start basis (None when cold)."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, big_n)) / np.sqrt(n)
    x0, x1 = rng.normal(size=(2, n))
    if not warm:
        return g, x1, None
    # sign-flipped optimal column set of x0: a primal-feasible basis for x1
    cols = np.sort(solve_lp(_gauge_problem(g, x0)).basis % big_n)
    coef = np.linalg.solve(g[:, cols], x1)
    return g, x1, np.where(coef >= 0, cols, cols + big_n)


def _golden_gauge(n: int, big_n: int, seed: int, warm: bool = False, cutoff=None):
    g, x, start = _golden_gauge_lp(n, big_n, seed, warm)
    return solve_lp(_gauge_problem(g, x), start_basis=start, cutoff=cutoff)


def _golden_bland():
    # b = 0 and a large scale: every step stays below 1e-12
    g = np.random.default_rng(41).normal(size=(20, 60)) * 1e3
    return solve_lp(_gauge_problem(g, np.zeros(20)))


def _golden_redundant_row():
    rng = np.random.default_rng(43)
    a = rng.normal(size=(6, 14))
    a[5] = a[0] + a[1]
    return solve_lp(lp(a, a @ np.abs(rng.normal(size=14)), np.abs(rng.normal(size=14))))


def _golden_unbounded():
    rng = np.random.default_rng(47)
    g = rng.normal(size=(4, 8))
    c = np.ones(16)
    c[3] = -1.5  # columns 3 and 11 sum to zero at cost -0.5
    return solve_lp(LPProblem(np.hstack([g, -g]), rng.normal(size=4), c))


def _golden_infeasible():
    rng = np.random.default_rng(53)
    g = rng.normal(size=(6, 4)) @ rng.normal(size=(4, 20))  # rank 4 < 6 rows
    return solve_lp(_gauge_problem(g, rng.normal(size=6)))


def _golden_crash_start():
    body = gq.make_body(24, 576, gq.SeedSpec(7, 3))
    return solve_l1(body.plus_minus, np.random.default_rng(59).normal(size=(1, 24)))[0]


GOLDEN_CASES = {
    "dantzig-8x64-cold": lambda: _golden_gauge(8, 32, 61),
    "dantzig-8x64-warm": lambda: _golden_gauge(8, 32, 61, warm=True),
    "dantzig-16x256-cold": lambda: _golden_gauge(16, 128, 67),
    "dantzig-16x256-warm": lambda: _golden_gauge(16, 128, 67, warm=True),
    "bland-20x120": _golden_bland,
    "phase1-redundant-row": _golden_redundant_row,
    "unbounded": _golden_unbounded,
    "infeasible": _golden_infeasible,
    "crash-24x576": _golden_crash_start,
}


def _fingerprint(sol) -> tuple:
    hexes = lambda v: None if v is None else tuple(float(t).hex() for t in v)  # noqa: E731
    return (sol.status, sol.iterations,
            None if sol.basis is None else tuple(int(j) for j in sol.basis),
            None if sol.objective_value is None else float(sol.objective_value).hex(),
            hexes(sol.dual_point))


# (status, iterations, basis, objective, duals) per case, recorded before the
# pivot loop was rewritten for fewer numpy calls per pivot
GOLDEN_PATHS = {"bland-20x120": ("optimal", 88,
                  (6, 19, 35, 38, 39, 55, 60, 62, 65, 73, 82, 84, 85, 92, 93, 100, 105, 107,
                   113, 119),
                  "0x0.0p+0",
                  ("-0x1.f842fadbc5ad0p-14", "0x1.f0de71002b150p-16", "-0x1.d3c02e61c5b90p-16",
                   "0x1.4678e10c734c0p-13", "0x1.0f141c2160610p-12", "0x1.bc29b157bec68p-13",
                   "0x1.45e0bcaf8e096p-12", "0x1.6a9feb3269cb4p-12", "0x1.4ec7df1992013p-12",
                   "0x1.1f6a999436ef0p-15", "0x1.05570cfb670c0p-12", "-0x1.71252de6a8b00p-14",
                   "0x1.53ad6fa22449ap-13", "0x1.8acf46b3b0a33p-12", "0x1.0f081e1f4a256p-12",
                   "0x1.68dd4a1574faep-13", "0x1.72fc1575bba1dp-12", "0x1.2621ceda904ccp-12",
                   "0x1.844d397beb1d6p-12", "0x1.7ff34125da108p-14")),
 "crash-24x576": ("optimal", 50,
                   (3, 70, 84, 143, 150, 220, 259, 282, 354, 358, 422, 508, 512, 525, 592, 689,
                    722, 753, 762, 778, 836, 1011, 1018, 1082),
                   "0x1.49091a2b4428ep+3",
                   ("-0x1.762e825095318p-2", "0x1.34dd4e752b0cap-1", "0x1.6dc5f84366e84p-1",
                    "-0x1.13144949664c4p-3", "-0x1.c47661cbed808p-2", "0x1.bd8fe7660dc40p-6",
                    "0x1.41428d25702e0p-4", "-0x1.59967fa9152b0p-2", "0x1.10181f0363193p+0",
                    "-0x1.489cfbd69ed84p-2", "0x1.3298dc55a89b2p-1", "0x1.1771cd9901880p-1",
                    "0x1.fdcf5f96346dcp-3", "-0x1.4dfb74dbe2804p-4", "0x1.8d763ffcbbc40p-5",
                    "0x1.c9d480b3f5835p-2", "-0x1.2a3f5ad948a5ep-2", "0x1.208afd8a0fa10p-4",
                    "0x1.1608d0d1fdcd8p-1", "-0x1.98e835e696fa8p-2", "-0x1.d6ee3636fefe0p-1",
                    "0x1.2002176d6d8fap-1", "-0x1.da6f9eb785868p-3", "-0x1.bc73e0481c780p-4")),
 "dantzig-16x256-cold": ("optimal", 41,
                         (15, 19, 26, 38, 51, 56, 80, 133, 155, 161, 164, 214, 217, 224, 234,
                          250),
                         "0x1.eb8e5be5dc55ap+2",
                         ("-0x1.86660a574807cp-3", "-0x1.bb9dbb4931f2bp-1",
                          "-0x1.767614b81b180p-3", "0x1.da0c2a42ff340p-3",
                          "0x1.aab8e0e27e7c8p-3", "-0x1.9f4d9c18c00d0p-3",
                          "0x1.0ce4fbd45f62ap+0", "-0x1.24d41df840bb4p+0",
                          "0x1.cf4b65ea2c4f0p-1", "-0x1.ebfed05d4f8a0p-3",
                          "0x1.f691e9de7a17cp-2", "-0x1.37950ce653230p-4",
                          "-0x1.880a60817a9f4p-2", "0x1.a1dd2e33b183dp-1",
                          "0x1.918dc83f77e28p-4", "0x1.4017e955de652p+0")),
 "dantzig-16x256-warm": ("optimal", 39,
                         (15, 19, 26, 38, 51, 56, 80, 133, 155, 161, 164, 214, 217, 224, 234,
                          250),
                         "0x1.eb8e5be5dc55ap+2",
                         ("-0x1.86660a574807cp-3", "-0x1.bb9dbb4931f2bp-1",
                          "-0x1.767614b81b180p-3", "0x1.da0c2a42ff340p-3",
                          "0x1.aab8e0e27e7c8p-3", "-0x1.9f4d9c18c00d0p-3",
                          "0x1.0ce4fbd45f62ap+0", "-0x1.24d41df840bb4p+0",
                          "0x1.cf4b65ea2c4f0p-1", "-0x1.ebfed05d4f8a0p-3",
                          "0x1.f691e9de7a17cp-2", "-0x1.37950ce653230p-4",
                          "-0x1.880a60817a9f4p-2", "0x1.a1dd2e33b183dp-1",
                          "0x1.918dc83f77e28p-4", "0x1.4017e955de652p+0")),
 "dantzig-8x64-cold": ("optimal", 19, (7, 10, 17, 25, 26, 27, 41, 61), "0x1.6d3e57e1da74fp+2",
                       ("-0x1.7eed398c404fcp-1", "-0x1.8d3fe199ea1b2p+0",
                        "0x1.761b620e253b4p-2", "0x1.4aa3bcea67d66p-1", "-0x1.3f883754a129ap+0",
                        "-0x1.5b82e8bd8180ap-1", "-0x1.5db5ac7efed62p+0",
                        "-0x1.b83e0bb0ccbb4p-1")),
 "dantzig-8x64-warm": ("optimal", 11, (7, 10, 17, 25, 26, 27, 41, 61), "0x1.6d3e57e1da74fp+2",
                       ("-0x1.7eed398c404fcp-1", "-0x1.8d3fe199ea1b2p+0",
                        "0x1.761b620e253b4p-2", "0x1.4aa3bcea67d66p-1", "-0x1.3f883754a129ap+0",
                        "-0x1.5b82e8bd8180ap-1", "-0x1.5db5ac7efed62p+0",
                        "-0x1.b83e0bb0ccbb4p-1")),
 "infeasible": ("infeasible", 6, None, None,
                ("0x1.82409d39e7878p-2", "0x1.97ddb87bc07a8p-2", "0x1.0000000000000p+0",
                 "0x1.0000000000000p+0", "-0x1.85702aece47cep-3", "-0x1.a85ac99ad316ap-1")),
 "phase1-redundant-row": ("optimal", 10, (0, 4, 7, 10, 13), "0x1.97a36dfc686fep+2",
                          ("0x0.0p+0", "-0x1.1b0aa6220c0b6p-3", "-0x1.c2561015c3298p-2",
                           "0x1.c3bc8439bb2eap-3", "0x1.7819804c0e562p-3",
                           "-0x1.76a10851a9e15p-4")),
 "unbounded": ("unbounded", 8, None, None, None)}


@pytest.mark.parametrize("name", list(GOLDEN_CASES))
def test_golden_pivot_path(name, monkeypatch):
    from genquot import linprog

    bland_flags = []
    price = linprog._Simplex._price

    def recording_price(self):
        bland_flags.append(self.bland)
        return price(self)

    monkeypatch.setattr(linprog._Simplex, "_price", recording_price)
    assert _fingerprint(GOLDEN_CASES[name]()) == GOLDEN_PATHS[name]
    assert any(bland_flags) == (name == "bland-20x120")


def test_certificate_checks_dual_feasibility():
    # a gauge LP's crash basis is primal feasible but not optimal: its duals
    # leave a negative reduced cost, which the closing certificate rejects
    g, x, _ = _golden_gauge_lp(8, 32, 61, warm=False)
    a, c, sign, keep = np.hstack([g, -g]), np.ones(64), np.where(x < 0, -1.0, 1.0), np.arange(8)
    labels, _, basic, _, usable = linprog._crash_bases(g, x[None])
    assert usable[0] and basic.min() >= 0
    with pytest.raises(gq.NumericError, match="not dual feasible"):
        linprog._certified(a, x, sign, c, labels[0], keep, 0)
    opt = solve_lp(_gauge_problem(g, x))
    assert linprog._certified(a, x, sign, c, opt.basis, keep, 0).objective_value == \
        opt.objective_value


def test_wide_gauge_lp_matches_highs():
    # 1280 columns in phase 2 and 1288 in phase 1, wider than any suite LP
    g, x, _ = _golden_gauge_lp(8, 640, 71, warm=False)
    sol = solve_lp(_gauge_problem(g, x))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(highs_gauges(g, x[None, :])[0], rel=1e-9)


# Objective cutoff. A cutoff only lets phase 2 stop early: it never changes a
# pivot, so an LP whose optimum lies above the cutoff solves exactly as without
# one, and a cut solve ends at a feasible basis of objective <= cutoff.

def _golden_objective(name: str) -> float:
    objective = GOLDEN_PATHS[name][3]
    return 0.0 if objective is None else float.fromhex(objective)


@pytest.mark.parametrize("name", ["dantzig-8x64-cold", "dantzig-8x64-warm",
                                  "dantzig-16x256-cold", "dantzig-16x256-warm",
                                  "bland-20x120", "phase1-redundant-row", "infeasible"])
def test_cutoff_below_optimum_changes_nothing(name, monkeypatch):
    opt = _golden_objective(name)
    cutoff = opt - 1e-9 * (1.0 + abs(opt))
    if name.endswith("warm"):  # the cutoff goes to the warm solve, not to the one before it
        n, big_n, sd = (8, 32, 61) if "8x64" in name else (16, 128, 67)
        sol = _golden_gauge(n, big_n, sd, warm=True, cutoff=cutoff)
    else:
        # every solve_lp call of these cases is the one pinned in GOLDEN_PATHS
        monkeypatch.setitem(globals(), "solve_lp", partial(solve_lp, cutoff=cutoff))
        sol = GOLDEN_CASES[name]()
    assert _fingerprint(sol) == GOLDEN_PATHS[name]


def test_warm_gauge_cut_above_optimum():
    n, big_n = 16, 128
    g, x, start = _golden_gauge_lp(n, big_n, 67, warm=True)
    problem = _gauge_problem(g, x)
    opt = _golden_objective("dantzig-16x256-warm")
    cutoff = 1.05 * opt
    sol = solve_lp(problem, start_basis=start, cutoff=cutoff)
    assert sol.status == "cutoff"
    assert sol.point is None and sol.dual_point is None and sol.objective_value is None
    assert 0 < sol.iterations < GOLDEN_PATHS["dantzig-16x256-warm"][1]
    basis_matrix = problem.constraint_matrix[:, sol.basis]
    assert np.linalg.matrix_rank(basis_matrix) == n
    assert np.linalg.solve(basis_matrix, x).min() >= -1e-9  # primal feasible
    assert np.abs(np.linalg.solve(g[:, sol.basis % big_n], x)).sum() <= cutoff
    # a start basis already at or below the cutoff is returned as it is
    start_objective = np.abs(np.linalg.solve(g[:, start % big_n], x)).sum()
    assert start_objective > cutoff
    at_start = solve_lp(problem, start_basis=start, cutoff=1.01 * start_objective)
    assert at_start.status == "cutoff" and at_start.iterations == 0
    assert at_start.basis.tobytes() == start.tobytes()


def test_cold_start_with_cutoff_runs_phase_one_to_the_end(monkeypatch):
    from genquot import linprog

    runs = []
    run = linprog._Simplex.run

    def recording_run(self, *args):
        status = run(self, *args)
        runs.append((args[0] if args else None, status, self.iterations))
        return status

    monkeypatch.setattr(linprog._Simplex, "run", recording_run)
    plain = _golden_gauge(8, 32, 61)
    phase1_iterations = runs[0][2]
    assert [r[:2] for r in runs] == [(None, "optimal"), (-np.inf, "optimal")]
    runs.clear()
    sol = _golden_gauge(8, 32, 61, cutoff=np.inf)
    # phase 1 ran to its end unchanged; phase 2 stopped at its first basis
    assert runs == [(None, "optimal", phase1_iterations), (np.inf, "cutoff", phase1_iterations)]
    assert sol.status == "cutoff" and sol.iterations == phase1_iterations < plain.iterations
    assert np.all(sol.basis < 64)  # no artificial column
