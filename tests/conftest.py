"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the code paths they check: operator norms
are brute-forced over angular nets with the polar-facet gauge or recomputed
with scipy's HiGHS, LP optima are recomputed by enumerating basic solutions, and Euclidean Gelfand numbers are
minimized over dense sphere nets of subspaces.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import genquot as gq

MASTER_SEED = 20260810
THRESHOLDS_PATH = "genquot-thresholds.json"


@pytest.fixture(scope="session")
def thresholds():
    return gq.read_thresholds(THRESHOLDS_PATH)


@pytest.fixture()
def no_radii(monkeypatch):
    """Make the inradius search raise wherever it can be reached from."""
    import genquot.body
    import genquot.cli
    import genquot.experiments

    def fail(*args, **kwargs):
        raise AssertionError("the inradius search ran")

    for module in (gq, genquot.body, genquot.cli, genquot.experiments):
        monkeypatch.setattr(module, "radii", fail)
    monkeypatch.setattr(genquot.body, "_walked_inradius", fail)


@pytest.fixture()
def svd_fails_on_square(monkeypatch):
    """np.linalg.svd raises LAPACK's LinAlgError on square matrices (and stacks
    of them), as on non-convergence; body matrices (n < N) still decompose."""
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        if np.shape(a)[-1] == np.shape(a)[-2]:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)


@pytest.fixture()
def svd_always_fails(monkeypatch):
    """np.linalg.svd raises LAPACK's LinAlgError on every input, body matrices included."""

    def svd(a, *args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", svd)


@pytest.fixture()
def cross2():
    return gq.body_from_matrix(np.eye(2))


@pytest.fixture()
def cross3():
    return gq.body_from_matrix(np.eye(3))


def angular_net_gauge_ratio(body, t, points: int = 10_000) -> float:
    """Brute-force operator norm on a 2-d body: max ||Tx||_B / ||x||_B over an
    angular net, with gauges evaluated through the polar facets (not the LP)."""
    thetas = np.linspace(0.0, np.pi, points, endpoint=False)
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    num = gq.body_norm_many(body, dirs @ np.asarray(t).T)
    den = gq.body_norm_many(body, dirs)
    return float(np.max(num / den))


def highs_gauges(gamma: np.ndarray, points: np.ndarray) -> np.ndarray:
    """min ||t||_1 s.t. gamma t = x for each row x of points, by HiGHS."""
    from scipy.optimize import linprog

    a = np.hstack([gamma, -gamma])
    cost = np.ones(a.shape[1])
    gauges = []
    for x in points:
        res = linprog(cost, A_eq=a, b_eq=x, bounds=(0, None), method="highs",
                      options={"presolve": False})  # presolve only slows these
        assert res.status == 0, res.message
        gauges.append(float(res.fun))
    return np.array(gauges)


def highs_max_gauge(gamma: np.ndarray, points: np.ndarray) -> float:
    """max over the rows x of points of min ||t||_1 s.t. gamma t = x, by HiGHS."""
    return float(max(highs_gauges(gamma, points), default=0.0))


def enumerate_lp(a: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float = 1e-9):
    """Exhaustive basic-solution oracle for small equality-form LPs.

    Returns ("optimal", value) or ("infeasible", None). Assumes the instance
    is bounded (use c >= 0) and A has full row rank.
    """
    m, v = a.shape
    best = None
    for cols in itertools.combinations(range(v), m):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_b = np.linalg.solve(sub, b)
        if np.any(x_b < -tol):
            continue
        val = float(c[list(cols)] @ x_b)
        if best is None or val < best:
            best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def fibonacci_sphere(points: int) -> np.ndarray:
    """Quasi-uniform net on S^2."""
    i = np.arange(points)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / points
    r = np.sqrt(1.0 - z * z)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def net_gelfand_3d(t: np.ndarray, k: int, points: int = 10_000) -> float:
    """Euclidean Gelfand number c_k of a 3x3 matrix by brute force over a net
    of codim-(k-1) subspaces (planes indexed by normals, lines by directions)."""
    t = np.asarray(t, dtype=float)
    if k == 1:
        return float(np.linalg.svd(t, compute_uv=False)[0])
    net = fibonacci_sphere(points)
    best = np.inf
    if k == 2:
        for w in net:
            basis = np.linalg.svd(np.eye(3) - np.outer(w, w))[0][:, :2]
            val = np.linalg.svd(t @ basis, compute_uv=False)[0]
            best = min(best, float(val))
    elif k == 3:
        norms = np.linalg.norm(net @ t.T, axis=1)
        best = float(norms.min())
    else:
        raise ValueError("k must be 1..3 in dimension 3")
    return best
