from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import genquot as gq

from genquot.body import (_column_gauge, _gauges, _inradius_descent, _polar_walk,
                          _proven_below, _unit_sphere, _walked_inradius)
from genquot import body as body_module, linprog
from genquot.errors import NumericError
from genquot.linprog import _perturbed, solve_l1
from genquot.sampler import generator

from conftest import angular_net_gauge_ratio, highs_gauges, highs_max_gauge


def seed(i, j=0):
    return gq.SeedSpec(i, j)


class TestMakeBody:
    def test_deterministic(self):
        a = gq.make_body(4, 8, seed(31))
        b = gq.make_body(4, 8, seed(31))
        assert a.gamma.tobytes() == b.gamma.tobytes()

    def test_column_norms_consistent(self):
        body = gq.make_body(6, 20, seed(32))
        assert np.max(np.abs(body.column_norms - np.linalg.norm(body.gamma, axis=0))) <= 1e-12

    def test_segment_body(self):
        body = gq.make_body(1, 1, seed(33))
        g = float(body.gamma[0, 0])
        assert gq.body_norm(body, [g]) == pytest.approx(1.0, abs=1e-9)
        assert gq.body_norm(body, [2 * g]) == pytest.approx(2.0, abs=1e-9)

    def test_bad_dims(self):
        with pytest.raises(gq.UsageError):
            gq.make_body(5, 4, seed(1))

    def test_rank_deficient_rejected(self):
        m = np.ones((3, 4))
        with pytest.raises(gq.NumericError):
            gq.body_from_matrix(m)

    def test_zero_column_rejected(self):
        # full rank, but a zero column is no vertex of B and has no column gauge
        with pytest.raises(gq.UsageError, match="column 3 "):
            gq.body_from_matrix(np.hstack([np.eye(3), np.zeros((3, 1))]))

    def test_column_norm_concentration(self):
        # columns land in [1/2, 2] for nearly every body at (n, N) = (50, 100)
        good = 0
        for i in range(200):
            body = gq.make_body(50, 100, seed(900, i))
            if body.column_norms.min() >= 0.5 and body.column_norms.max() <= 2.0:
                good += 1
        assert good / 200 >= 0.99


class TestBodyNorm:
    def test_cross_polytope_l1(self, cross3):
        assert gq.body_norm(cross3, [1.0, -2.0, 3.0]) == pytest.approx(6.0, abs=1e-9)

    def test_vertices_inside(self):
        body = gq.make_body(5, 12, seed(34))
        for j in range(body.N):
            assert gq.body_norm(body, body.gamma[:, j]) <= 1.0 + 1e-8

    def test_zero_vector(self, cross2):
        assert gq.body_norm(cross2, [0.0, 0.0]) == 0.0

    def test_homogeneous(self):
        body = gq.make_body(4, 9, seed(35))
        x = gq.gaussian_matrix(4, 1, 1.0, seed(35, 7))[:, 0]
        base = gq.body_norm(body, x)
        assert gq.body_norm(body, -2.5 * x) == pytest.approx(2.5 * base, rel=1e-8)

    def test_homogeneous_at_small_scales(self):
        # the RHS perturbation is relative to max|x|, so it never swamps a small x
        body = gq.make_body(8, 64, seed(1, 0))
        t = gq.gaussian_matrix(8, 8, 1.0, seed(2, 0))
        images = (t @ body.gamma).T
        gauges = np.array([gq.body_norm(body, x) for x in images])
        norm = gq.operator_norm(body, t)
        for s in (1e-9, 1e-11, 1e-12, 2.0 ** -40):
            scaled = np.array([gq.body_norm(body, s * x) for x in images]) / s
            assert scaled == pytest.approx(gauges, rel=1e-12, abs=0), s
            assert gq.operator_norm(body, s * t) / s == pytest.approx(norm, rel=1e-12, abs=0), s
        # a power of two scales the perturbed LP exactly: the same pivots and bytes
        assert scaled.tobytes() == gauges.tobytes()
        assert gq.operator_norm(body, s * t) / s == norm

    def test_triangle_inequality(self):
        body = gq.make_body(4, 10, seed(36))
        rng = gq.generator(seed(36, 1))
        for _ in range(100):
            x, y = rng.normal(size=4), rng.normal(size=4)
            assert (gq.body_norm(body, x + y)
                    <= gq.body_norm(body, x) + gq.body_norm(body, y) + 1e-8)

    def test_scaled_duplicate_columns_closed_form(self):
        # columns {e_i * s_ij}: gauge is sum_i |x_i| / max_j s_ij
        scales = [(1.0, 0.5), (2.0, 0.25), (0.75, 3.0)]
        cols = []
        for i, pair in enumerate(scales):
            for s in pair:
                col = np.zeros(3)
                col[i] = s
                cols.append(col)
        body = gq.body_from_matrix(np.column_stack(cols))
        rng = gq.generator(seed(37))
        for _ in range(50):
            x = rng.normal(size=3)
            expected = sum(abs(x[i]) / max(scales[i]) for i in range(3))
            assert gq.body_norm(body, x) == pytest.approx(expected, abs=1e-8)

    def test_lower_bound_from_circumradius(self):
        body = gq.make_body(5, 15, seed(38))
        rng = gq.generator(seed(38, 1))
        for _ in range(50):
            x = rng.normal(size=5)
            assert gq.body_norm(body, x) >= np.linalg.norm(x) / body.circumradius - 1e-8

    def test_batch_hull_agrees_with_lp(self):
        for n, big_n, s in ((2, 6, 40), (3, 20, 41), (4, 32, 42), (5, 40, 43)):
            body = gq.make_body(n, big_n, seed(s))
            rng = gq.generator(seed(s, 1))
            pts = rng.normal(size=(25, n))
            hull_vals = gq.body_norm_many(body, pts)
            lp_vals = np.array([gq.body_norm(body, p) for p in pts])
            assert np.max(np.abs(hull_vals - lp_vals)) <= 1e-7 * (1 + np.max(lp_vals))


class TestDualNorm:
    def test_linf_on_cross_polytope(self, cross2):
        assert gq.dual_norm(cross2, [3.0, -4.0]) == 4.0

    def test_zero(self, cross2):
        assert gq.dual_norm(cross2, [0.0, 0.0]) == 0.0

    def test_duality_pairing(self):
        body = gq.make_body(4, 12, seed(44))
        rng = gq.generator(seed(44, 1))
        for _ in range(100):
            x, u = rng.normal(size=4), rng.normal(size=4)
            assert x @ u <= gq.body_norm(body, x) * gq.dual_norm(body, u) + 1e-8

    def test_many_has_the_bytes_of_the_abs_max(self):
        body = gq.make_body(24, 576, seed(46))
        us = np.vstack([np.zeros(24), _unit_sphere(generator(seed(46, 1)), 2000, 24)])
        want = np.max(np.abs(us @ body.gamma), axis=1)
        assert gq.dual_norm_many(body, us).tobytes() == want.tobytes()

    def test_many_rejects_wrong_dimension(self, cross2):
        with pytest.raises(gq.UsageError):
            gq.dual_norm_many(cross2, np.ones((4, 3)))

    def test_lp_dual_witness_achieves_equality(self):
        body = gq.make_body(4, 12, seed(45))
        rng = gq.generator(seed(45, 1))
        for _ in range(20):
            x = rng.normal(size=4)
            val, y = gq.body_norm_with_dual(body, x)
            assert gq.dual_norm(body, y) <= 1.0 + 1e-7
            assert x @ y >= val * gq.dual_norm(body, y) - 1e-6


class TestOperatorNorm:
    def test_identity(self):
        body = gq.make_body(3, 9, seed(46))
        assert gq.operator_norm(body, np.eye(3)) == pytest.approx(1.0, abs=1e-8)

    def test_homogeneity(self):
        body = gq.make_body(3, 9, seed(46))
        assert gq.operator_norm(body, 2 * np.eye(3)) == pytest.approx(2.0, abs=1e-8)

    def test_against_angular_net(self):
        body = gq.make_body(2, 4, seed(7))
        t = gq.gaussian_matrix(2, 2, 1.0, seed(7, 1))
        net = angular_net_gauge_ratio(body, t, points=10_000)
        assert gq.operator_norm(body, t) == pytest.approx(net, abs=1e-3 * (1 + net))

    def test_extreme_point_attainment(self):
        body = gq.make_body(3, 8, seed(47))
        t = gq.gaussian_matrix(3, 3, 1.0, seed(47, 1))
        q = gq.operator_norm(body, t)
        vals = [gq.body_norm(body, t @ body.gamma[:, j]) for j in range(body.N)]
        assert all(q >= v - 1e-8 for v in vals)
        assert q == pytest.approx(max(vals), abs=1e-10)


def _operators(n: int, s: int) -> dict[str, np.ndarray]:
    gauss = gq.gaussian_matrix(n, n, 1.0, seed(s, 1))
    zero_col = gauss.copy()
    zero_col[:, 0] = 0.0
    return {
        "gaussian": gauss,
        "orthogonal": gq.haar_subspace(n, n, seed(s, 2)).basis,
        "rank1": np.outer(gq.gaussian_matrix(n, 1, 1.0, seed(s, 3))[:, 0],
                          gq.gaussian_matrix(n, 1, 1.0, seed(s, 4))[:, 0]),
        "zero_column": zero_col,
        "zero": np.zeros((n, n)),
    }


def _prunes_nothing(body, pts, best):
    return np.zeros(pts.shape[0], dtype=bool)


def _spy_solve_lp_starts(monkeypatch) -> list:
    """Record the start basis (None for phase 1) of every solve_lp call."""
    starts = []
    solve = linprog.solve_lp

    def spy(p, start_basis=None, cutoff=None):
        starts.append(start_basis)
        return solve(p, start_basis, cutoff)

    monkeypatch.setattr(linprog, "solve_lp", spy)
    return starts


def _start_on(monkeypatch, cols: np.ndarray) -> None:
    """Start row i of every solve_l1 call from the column set cols[i]: the
    crash start of row i over Gamma's columns cols[i] alone (whose crash
    basis is the whole set, signed to be primal feasible), with its labels
    mapped back to [Gamma, -Gamma]. A singular set is an unusable start."""
    crash = linprog._crash_bases

    def start(g, xs):
        n, big_n = g.shape
        parts = [crash(g[:, s], x[None]) for s, x in zip(cols, xs)]
        labels = [s[p[0][0] % n] + big_n * (p[0][0] >= n) for s, p in zip(cols, parts)]
        return (np.array(labels), *(np.concatenate(f) for f in list(zip(*parts))[1:]))

    monkeypatch.setattr(linprog, "_crash_bases", start)


def _refuse_batch_certificates(monkeypatch, refused: list, which) -> list:
    """Fail the k-th certificate of a lock-step row (one not inside solve_lp)
    when which(k), appending the row's RHS bytes to refused. Returns the list
    of the RHS bytes of every solve_lp call, filled as they are made."""
    scalar: list[bytes] = []
    inside = []
    solve, certified = linprog.solve_lp, linprog._certified
    batch_rows = itertools.count()

    def solve_spy(p, start_basis=None, cutoff=None):
        scalar.append(p.rhs.tobytes())
        inside.append(1)
        try:
            return solve(p, start_basis, cutoff)
        finally:
            inside.pop()

    def certified_spy(a, b, *args):
        if not inside and which(next(batch_rows)):
            refused.append(b.tobytes())
            raise NumericError("refused")
        return certified(a, b, *args)

    monkeypatch.setattr(linprog, "solve_lp", solve_spy)
    monkeypatch.setattr(linprog, "_certified", certified_spy)
    return scalar


class TestMaxGaugeKernel:
    """operator_norm prunes and cuts solves short; its value must be the cold maximum."""

    @pytest.mark.parametrize("n,big_n", [(8, 16), (8, 64), (16, 32), (16, 128), (16, 256),
                                         (24, 576)])
    def test_bit_identical_to_cold_maximum(self, n, big_n, monkeypatch):
        body = gq.make_body(n, big_n, seed(150, n * big_n))
        operators = _operators(n, 151 + big_n)
        if big_n == 576:  # the widest LPs: two operators keep the cold maxima short
            operators = {k: operators[k] for k in ("gaussian", "orthogonal")}
        scalar_solves = []
        solve = linprog.solve_lp

        def spy(*args, **kwargs):
            scalar_solves.append(1)
            return solve(*args, **kwargs)

        for kind, t in operators.items():
            cold = max(gq.body_norm(body, x) for x in (t @ body.gamma).T)
            scalar_solves.clear()
            with monkeypatch.context() as m:
                m.setattr(linprog, "solve_lp", spy)
                assert gq.operator_norm(body, t) == cold, kind
            if big_n == 576:
                # the lock-step batches take all but the first image and any fallbacks
                assert 1 <= len(scalar_solves) < 0.05 * big_n, kind

    @pytest.mark.parametrize("n,big_n", [(8, 64), (16, 256), (24, 576)])
    def test_forced_cuts_keep_the_cold_maximum(self, n, big_n, monkeypatch):
        # cutoff=inf stops every cut-eligible solve at its start basis, scalar or
        # in a batch, so every solve after the first goes through the
        # prune-or-re-solve fallback
        body = gq.make_body(n, big_n, seed(155, n * big_n))
        t = _operators(n, 156 + big_n)["gaussian"]
        cold = max(gq.body_norm(body, x) for x in (t @ body.gamma).T)
        solves: dict[bytes, int] = {}
        cuts = {"scalar": [], "batch": []}
        best, above_best = 0.0, set()

        def forced(b, pts, cutoff=None):
            nonlocal best
            sols = _gauges(b, pts, np.where(np.asarray(cutoff) > -np.inf, np.inf, -np.inf))
            best = max([best] + [sol.objective_value for sol in sols if sol.status == "optimal"])
            for x, sol in zip(pts, sols):
                solves[x.tobytes()] = solves.get(x.tobytes(), 0) + 1
                cuts["scalar" if len(pts) == 1 else "batch"].append(sol.status == "cutoff")
                # the l1 cost of the cut basis on the exact x, against best after the call
                if sol.status == "cutoff" and np.abs(
                        np.linalg.solve(b.gamma[:, sol.basis % b.N], x)).sum() > best:
                    above_best.add(x.tobytes())
            return sols

        monkeypatch.setattr(body_module, "_gauges", forced)
        monkeypatch.setattr(body_module, "_proven_below", _prunes_nothing)  # keep the batches
        assert gq.operator_norm(body, t) == cold
        assert any(cuts["batch"]) and max(solves.values()) == 2
        # a cut image is solved again exactly when its cut basis costs more than best
        assert above_best and {x for x, k in solves.items() if k == 2} == above_best

    def test_cut_images_are_settled_by_their_own_basis(self, monkeypatch):
        # with no certificate pass the batches cut images; the l1 cost of its own cut
        # basis proves each one below the best gauge, so none is solved twice, and the
        # maximum has the bytes of a run with no cutoff at all
        body = gq.make_body(24, 576, seed(159))
        t = _operators(24, 159)["gaussian"]
        monkeypatch.setattr(body_module, "_proven_below", _prunes_nothing)
        solves: dict[bytes, int] = {}
        statuses = []

        def spy(b, pts, cutoff=None):
            sols = _gauges(b, pts, cutoff)
            for x, sol in zip(pts, sols):
                solves[x.tobytes()] = solves.get(x.tobytes(), 0) + 1
                statuses.append(sol.status)
            return sols

        with monkeypatch.context() as m:
            m.setattr(body_module, "_gauges", spy)
            value = gq.operator_norm(body, t)
        assert statuses.count("cutoff") > len(statuses) // 2 and max(solves.values()) == 1
        with monkeypatch.context() as m:
            m.setattr(body_module, "_gauges", lambda b, pts, cutoff=None: _gauges(b, pts))
            assert gq.operator_norm(body, t) == value

    @pytest.mark.parametrize("n,big_n", [(8, 64), (16, 256)])
    def test_rows_a_batch_leaves_go_to_the_scalar_lp(self, n, big_n, monkeypatch):
        body = gq.make_body(n, big_n, seed(157, n * big_n))
        t = _operators(n, 158 + big_n)["gaussian"]
        cold = max(gq.body_norm(body, x) for x in (t @ body.gamma).T)
        left: list[bytes] = []
        lone_or_left: list[bytes] = []
        crash_bases = linprog._crash_bases

        def every_other_start_unusable(g, pts):
            *start, usable = crash_bases(g, pts)
            if len(pts) > 1:
                usable[1::2] = False
                left.extend(x.tobytes() for x in pts[1::2])
            lone_or_left.extend(x.tobytes() for x in pts[~usable | (len(pts) == 1)])
            return (*start, usable)

        monkeypatch.setattr(linprog, "_crash_bases", every_other_start_unusable)
        scalar = _refuse_batch_certificates(monkeypatch, [], lambda k: False)
        monkeypatch.setattr(body_module, "_proven_below", _prunes_nothing)  # keep the batches
        assert gq.operator_norm(body, t) == cold
        # a lone image (the first, or a batch of one) is solve_lp from its start; of
        # the batches of two or more, exactly the rows left
        assert left and scalar == lone_or_left

    def test_identity_ties_within_roundoff(self):
        # every g_j has gauge exactly 1: the maximum is decided by roundoff
        body = gq.make_body(16, 128, seed(152))
        assert gq.operator_norm(body, np.eye(16)) == pytest.approx(1.0, rel=1e-13)

    def test_wide_operator_norm_against_highs(self):
        body = gq.make_body(24, 576, seed(153))  # 2N = 1152 columns
        t = gq.gaussian_matrix(24, 24, 1.0, seed(153, 1))
        ref = highs_max_gauge(body.gamma, (t @ body.gamma).T)
        assert gq.operator_norm(body, t) == pytest.approx(ref, rel=1e-9)

    def test_duplicated_column_falls_back_to_phase_one(self, monkeypatch):
        g = gq.gaussian_matrix(4, 10, 0.25, seed(154))
        body = gq.body_from_matrix(np.hstack([g, g[:, :1]]))  # column 10 == column 0
        x = gq.gaussian_matrix(4, 1, 1.0, seed(154, 1))[:, 0]
        verdicts = []
        warm_basis = linprog._warm_basis

        def spy(*args):
            verdicts.append(warm_basis(*args))
            return verdicts[-1]

        starts = _spy_solve_lp_starts(monkeypatch)
        monkeypatch.setattr(linprog, "_warm_basis", spy)
        # a start on columns {0, 10, 1, 2} has a singular Gamma_S: solve_l1 does not
        # use it, and solve_lp given it as a basis rejects it; both run phase 1
        with monkeypatch.context() as m:
            _start_on(m, np.array([[0, 10, 1, 2]]))
            sol = _gauges(body, x[None])[0]
        assert starts == [None] and verdicts == []
        direct = linprog.solve_lp(linprog.LPProblem(body.plus_minus, x, np.ones(22)),
                                  start_basis=np.array([0, 10, 1, 2]))
        assert verdicts == [None]
        assert sol.objective_value == direct.objective_value == gq.body_norm(body, x)
        t = gq.gaussian_matrix(4, 4, 1.0, seed(154, 2))
        images = (t @ body.gamma).T
        q = gq.operator_norm(body, t)
        assert q == pytest.approx(max(gq.body_norm(body, x) for x in images), rel=1e-13)
        assert q == pytest.approx(highs_max_gauge(body.gamma, images), rel=1e-9)


def _body_with_copied_column(kind: str):
    # the column-gauge test's 0.3 g_0 copy and the phase-one tests' duplicated column
    if kind == "scaled-36x1297":
        g = gq.make_body(36, 1296, seed(173)).gamma
        return gq.body_from_matrix(np.hstack([g, 0.3 * g[:, :1]]))
    n, big_n, s = {"duplicated-4x11": (4, 10, 154), "duplicated-8x41": (8, 40, 176)}[kind]
    g = gq.gaussian_matrix(n, big_n, 1.0 / n, seed(s))
    return gq.body_from_matrix(np.hstack([g, g[:, :1]]))


class TestProvenBelow:
    """_max_gauge's certificate pass: l1 bounds from reweighted least squares."""

    @staticmethod
    def _points(body, count, s):
        # random points and operator images, where the certificate runs in _max_gauge
        t = gq.gaussian_matrix(body.n, body.n, 1.0, seed(s, 1))
        pts = np.vstack([gq.gaussian_matrix(count, body.n, 1.0, seed(s, 2)),
                         (t @ body.gamma[:, :count]).T])
        return pts, highs_gauges(body.gamma, pts)

    @pytest.mark.parametrize("n,big_n", [(8, 64), (16, 256), (24, 576)])
    def test_bound_is_at_least_the_gauge(self, n, big_n):
        body = gq.make_body(n, big_n, seed(180, n))
        pts, gauges = self._points(body, 24, 181 + n)
        # best = the gauge itself: every iterate's bound is checked and none may prove it
        assert not _proven_below(body, pts, gauges).any()
        assert not _proven_below(body, pts, gauges * (1 - 1e-10)).any()
        # the bound is not vacuous: most points are proven below 1.25 times their gauge
        assert _proven_below(body, pts, 1.25 * gauges).mean() >= 0.75

    @pytest.mark.parametrize("kind", ["scaled-36x1297", "duplicated-4x11", "duplicated-8x41"])
    def test_bound_on_scaled_and_duplicated_columns(self, kind):
        body = _body_with_copied_column(kind)
        pts, gauges = self._points(body, 12, 182)
        pts = np.vstack([pts, body.gamma[:, -1], body.gamma[:, 0]])  # the copy and its original
        gauges = np.append(gauges, highs_gauges(body.gamma, pts[-2:]))
        assert not _proven_below(body, pts, gauges).any()

    def test_exact_power_of_two_scaling(self):
        # rows are scaled to max |x_i| in [1/2, 1) first: no overflow at 2^1000, and the
        # same verdicts at every scale
        body = gq.make_body(16, 256, seed(183))
        pts, gauges = self._points(body, 16, 184)
        best = 1.1 * np.median(gauges)
        proven = _proven_below(body, pts, best)
        assert proven.any() and not proven.all()
        assert not (proven & (gauges > best)).any()
        for k in (-1000, -500, 500, 1000):
            scaled = _proven_below(body, np.ldexp(pts, k), np.ldexp(best, k))
            assert scaled.tolist() == proven.tolist(), k

    def test_most_images_never_reach_an_lp(self, monkeypatch):
        body = gq.make_body(16, 256, seed(185))
        t = _operators(16, 186)["gaussian"]
        images = (t @ body.gamma).T
        cold = max(gq.body_norm(body, x) for x in images)
        lp_rows: set[bytes] = set()

        def gauges_spy(b, pts, cutoff=None):
            lp_rows.update(x.tobytes() for x in pts)
            return _gauges(b, pts, cutoff)

        monkeypatch.setattr(body_module, "_gauges", gauges_spy)
        assert gq.operator_norm(body, t) == cold
        assert 1 <= len(lp_rows) <= body.N // 4


def _section_directions(n: int, count: int, s: int) -> np.ndarray:
    # unit directions in a Haar section of codimension n/4, as section_distortion draws them
    sub = gq.haar_subspace(n, n - n // 4, seed(s, 1))
    return _unit_sphere(generator(seed(s, 2)), count, sub.dim) @ sub.basis.T


class TestLockstepGauges:
    """solve_l1 runs two or more gauge LPs in lock-step; body_norm_many above
    the hull cap is one such batch."""

    @pytest.mark.parametrize("n,big_n", [(8, 64), (16, 256), (24, 576), (36, 1296)])
    def test_full_lp_path_bit_identical_to_body_norm(self, n, big_n, monkeypatch):
        # body_norm solves the same full LP and certifies its optimal basis the same way
        body = gq.make_body(n, big_n, seed(160, n))
        dirs = _section_directions(n, 64 if n <= 16 else 32, 161 + n)
        certified = []
        certify = linprog._certified

        def spy(*args):
            certified.append(1)
            return certify(*args)

        with monkeypatch.context() as m:
            m.setattr(linprog, "_certified", spy)
            starts = _spy_solve_lp_starts(m)
            sols = solve_l1(body.plus_minus, dirs)
        assert all(sol.status == "optimal" for sol in sols)
        assert len(certified) == len(dirs) and starts == []  # every row certified in the batch
        assert min(sol.iterations for sol in sols) >= 1
        got = gq.body_norm_many(body, dirs)
        assert got.tobytes() == np.array([gq.body_norm(body, x) for x in dirs]).tobytes()
        if n > 16:
            assert got[:8] == pytest.approx(highs_gauges(body.gamma, dirs[:8]), rel=1e-9)

    @pytest.mark.parametrize("n,big_n", [(16, 256), (24, 576)])
    def test_bytes_do_not_depend_on_order_or_batch(self, n, big_n):
        body = gq.make_body(n, big_n, seed(164, n))
        dirs = _section_directions(n, 48, 165 + n)
        got = gq.body_norm_many(body, dirs)
        perm = generator(seed(164, 1)).permutation(len(dirs))
        assert gq.body_norm_many(body, dirs[perm]).tobytes() == got[perm].tobytes()
        assert gq.body_norm_many(body, dirs[5:12]).tobytes() == got[5:12].tobytes()
        others = gq.gaussian_matrix(20, n, 1.0, seed(164, 2))
        mixed = gq.body_norm_many(body, np.vstack([others, dirs[:6]]))
        assert mixed[20:].tobytes() == got[:6].tobytes()

    @pytest.mark.parametrize("n,big_n", [(8, 64), (16, 256), (24, 576)])
    def test_warm_labels_and_cutoff(self, n, big_n):
        # every row starts from its crash basis; a third run without a cutoff, the
        # rest with one, and the labels of a cut basis are a feasible basis
        body = gq.make_body(n, big_n, seed(174, n))
        dirs = _section_directions(n, 24, 175 + n)
        gauges = np.array([gq.body_norm(body, x) for x in dirs])
        cutoff = np.where(np.arange(len(dirs)) % 3 == 0, -np.inf, np.median(gauges))
        sols = solve_l1(body.plus_minus, dirs, cutoff)
        statuses = [sol.status for sol in sols]
        assert "optimal" in statuses and "cutoff" in statuses
        for x, sol, limit, gauge in zip(dirs, sols, cutoff, gauges):
            if sol.status == "optimal":
                assert sol.objective_value.hex() == gauge.hex()
                assert gauge > limit * (1 - 1e-9)  # never at most the cutoff
                assert sol.iterations >= 1
                continue
            assert sol.status == "cutoff" and limit > -np.inf
            sign = np.where(x < 0, -1.0, 1.0)
            basic = np.linalg.solve(body.plus_minus[:, sol.basis], sign * _perturbed(x * sign))
            assert basic.min() >= -1e-9  # a feasible basis of the perturbed LP
            assert basic.sum() <= limit * (1 + 1e-12)

    def test_unusable_start_goes_to_scalar_path(self, monkeypatch):
        g = gq.gaussian_matrix(8, 40, 0.125, seed(176))
        body = gq.body_from_matrix(np.hstack([g, g[:, :1]]))  # column 40 == column 0
        dirs = _section_directions(8, 3, 177)
        cols = np.tile(np.arange(1, 9), (3, 1))
        cols[1, :2] = [0, 40]  # a singular Gamma_S
        _start_on(monkeypatch, cols)
        starts = _spy_solve_lp_starts(monkeypatch)
        # a cutoff of inf ends every row at its first feasible basis
        sols = solve_l1(body.plus_minus, dirs, np.inf)
        assert starts == [None]  # row 1 only, by solve_lp from phase 1
        assert sols[1].status == "cutoff" and sols[1].iterations > 0
        for sol in (sols[0], sols[2]):
            assert sol.status == "cutoff" and np.sort(sol.basis % 41).tolist() == list(range(1, 9))
            assert sol.iterations == 0

    def test_zero_rows_give_zero(self):
        body = gq.make_body(8, 64, seed(166))
        dirs = _section_directions(8, 6, 167)
        pts = np.insert(dirs, [0, 3, 6], 0.0, axis=0)
        got = gq.body_norm_many(body, pts)
        assert got[[0, 4, 8]].tolist() == [0.0, 0.0, 0.0]
        assert np.delete(got, [0, 4, 8]).tobytes() == gq.body_norm_many(body, dirs).tobytes()
        assert gq.body_norm_many(body, np.zeros((3, 8))).tolist() == [0.0, 0.0, 0.0]

    def test_singular_crash_basis_goes_to_scalar_path(self, monkeypatch):
        g = gq.gaussian_matrix(8, 40, 0.125, seed(168))
        body = gq.body_from_matrix(np.hstack([g, g[:, :1]]))  # column 40 == column 0
        # x close to g_0: columns 0 and 40 lead the crash ranking, so its Gamma_S is singular
        x = g[:, 0] + 1e-3 * gq.gaussian_matrix(8, 1, 1.0, seed(168, 1))[:, 0]
        pts = np.vstack([x, _section_directions(8, 5, 169)])
        crash_usable = []
        inverses = linprog._inverses

        def inverses_spy(mats):
            inv, usable = inverses(mats)
            crash_usable.append(usable)
            return inv, usable

        monkeypatch.setattr(linprog, "_inverses", inverses_spy)
        scalar = _refuse_batch_certificates(monkeypatch, [], lambda k: False)
        got = gq.body_norm_many(body, pts)
        assert not crash_usable[0][0]
        # the rows of singular starts, x first, by solve_lp from phase 1
        assert scalar == [v.tobytes() for v in pts[~crash_usable[0]]]
        assert got.tobytes() == np.array([gq.body_norm(body, v) for v in pts]).tobytes()
        assert got == pytest.approx(highs_gauges(body.gamma, pts), rel=1e-9)

    def test_forced_fallback_gives_scalar_values(self, monkeypatch):
        # every lock-step certificate fails: each row goes to solve_lp from its start
        body = gq.make_body(16, 256, seed(170))
        pts = np.vstack([_section_directions(16, 8, 171), np.zeros(16)])
        refused: list[bytes] = []
        scalar = _refuse_batch_certificates(monkeypatch, refused, lambda k: True)
        got = gq.body_norm_many(body, pts)
        assert len(refused) == 8 and scalar == refused
        assert got.tobytes() == np.array([gq.body_norm(body, x) for x in pts]).tobytes()

    @pytest.mark.parametrize("n,big_n", [(8, 64), (16, 256), (24, 576)])
    def test_lone_row_continues_in_the_scalar_loop(self, n, big_n, monkeypatch):
        # the first row starts at its optimal basis and leaves after one pass; the
        # second, started from the same column set, finishes alone in _Simplex
        # from the basis and inverse it reached in the batch
        body = gq.make_body(n, big_n, seed(178, n))
        dirs = _section_directions(n, 2, 179 + n)
        cols = np.sort(_gauges(body, dirs[:1])[0].basis % big_n)
        runs = []
        run = linprog._Simplex.run

        def run_spy(sim, *args):
            runs.append(sim.iterations)
            return run(sim, *args)

        monkeypatch.setattr(linprog._Simplex, "run", run_spy)
        _start_on(monkeypatch, np.tile(cols, (2, 1)))
        starts = _spy_solve_lp_starts(monkeypatch)
        sols = solve_l1(body.plus_minus, dirs)
        assert runs == [1] and starts == []
        assert sols[0].iterations == 1 and sols[1].iterations > 1  # the tail's passes count
        values = np.array([sol.objective_value for sol in sols])
        assert values.tobytes() == np.array([gq.body_norm(body, x) for x in dirs]).tobytes()

    @pytest.mark.parametrize("n,big_n", [(8, 64), (16, 256)])
    def test_degenerate_rows_continue_with_bland(self, n, big_n, monkeypatch):
        # at |x| ~ 2^-36 many steps are below the 1e-12 degeneracy threshold, so
        # with _DEGEN_STREAK = 0 a row leaves the batch after its first degenerate
        # pivot and finishes alone with Bland's rule, as body_norm's solve_lp does
        monkeypatch.setattr(linprog, "_DEGEN_STREAK", 0)
        body = gq.make_body(n, big_n, seed(186, n))
        dirs = np.ldexp(_section_directions(n, 6, 187 + n), -36)
        bland = []
        price = linprog._Simplex._price

        def price_spy(sim):
            bland.append(sim.bland)
            return price(sim)

        monkeypatch.setattr(linprog._Simplex, "_price", price_spy)
        starts = _spy_solve_lp_starts(monkeypatch)
        sols = solve_l1(body.plus_minus, dirs)
        assert sum(bland) >= len(dirs) and starts == []
        values = np.array([sol.objective_value for sol in sols])
        assert values.tobytes() == np.array([gq.body_norm(body, x) for x in dirs]).tobytes()
        assert np.ldexp(values, 36) == pytest.approx(highs_gauges(body.gamma, np.ldexp(dirs, 36)),
                                                     rel=1e-9)


class TestColumnGauge:
    def test_self_supporting_columns_are_exactly_one(self, monkeypatch):
        body = gq.make_body(36, 1296, seed(172))
        g = body.gamma
        cols = [j for j in range(8) if np.abs(g[:, j] @ g).max() <= (1 + 1e-12) * (g[:, j] @ g[:, j])]
        assert cols  # max_i |<g_i, g_j>| <= |g_j|^2: g_j supports B at itself
        lps = []
        monkeypatch.setattr(body_module, "_gauges", lambda *args: lps.append(args))
        assert [_column_gauge(body, j) for j in cols] == [1.0] * len(cols)
        assert not lps
        assert highs_gauges(g, g[:, cols].T) == pytest.approx(1.0, rel=1e-9)

    def test_scaled_copy_fails_the_certificate_and_solves_its_lp(self, monkeypatch):
        g = gq.make_body(36, 1296, seed(173)).gamma
        body = gq.body_from_matrix(np.hstack([g, 0.3 * g[:, :1]]))  # column 1296 = 0.3 g_0
        x = body.gamma[:, 1296]
        assert np.abs((x / (x @ x)) @ body.gamma).max() > 3.0  # <g_0, y> = 1 / 0.3
        solved = []

        def gauges_spy(b, pts, cutoff=None):
            solved.append(pts.tobytes())
            return _gauges(b, pts, cutoff)

        monkeypatch.setattr(body_module, "_gauges", gauges_spy)
        value = _column_gauge(body, 1296)
        assert solved == [x.tobytes()]
        assert value == pytest.approx(0.3, rel=1e-12)
        assert value == pytest.approx(highs_gauges(body.gamma, x[None])[0], rel=1e-9)


class TestRadii:
    def test_cross_polytope_2d(self, cross2):
        est = gq.radii(cross2)
        assert est.circumradius == 1.0
        assert est.inradius_estimate == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-4)
        assert est.inradius_estimate == pytest.approx(
            gq.dual_norm(cross2, est.certificate_direction), abs=1e-10)

    @pytest.mark.parametrize("n,big_n", [(2, 3), (2, 8), (2, 64), (2, 1000), (1, 5)])
    def test_low_dimension_exact_from_hull(self, n, big_n):
        body = gq.make_body(n, big_n, seed(61, big_n))
        est = gq.radii(body)
        assert est.inradius_estimate == gq.dual_norm(body, est.certificate_direction)
        if n == 1:  # the segment [-R, R]: direction 1 and the largest |g_j|, bit for bit
            assert est.certificate_direction.tobytes() == np.array([1.0]).tobytes()
            assert est.inradius_estimate == float(np.max(np.abs(body.gamma)))
        else:
            hull_inradius = float(np.min(-body.hull.equations[:, -1]))
            assert est.inradius_estimate == pytest.approx(hull_inradius, rel=1e-12)

    def test_cross_polytope_3d(self, cross3):
        est = gq.radii(cross3, seed=seed(48))
        assert est.inradius_estimate == pytest.approx(1.0 / np.sqrt(3.0), abs=2e-3)

    def test_ordering(self):
        for i in range(5):
            body = gq.make_body(6, 14, seed(49, i))
            est = gq.radii(body, seed=seed(49, 100 + i))
            assert est.inradius_estimate <= est.circumradius

    def test_inradius_floor_across_seeds(self):
        # B contains c k^(-1/2) D with c >= 0.2 for nearly every seed at (25, 50)
        n = 25
        hits = 0
        for i in range(100):
            body = gq.make_body(n, 2 * n, seed(950, i))
            est = gq.radii(body, seed=seed(951, i))
            if est.inradius_estimate >= 0.2 / np.sqrt(n):
                hits += 1
        assert hits >= 95

    def test_seed_required_above_2d(self):
        body = gq.make_body(3, 6, seed(50))
        with pytest.raises(gq.UsageError):
            gq.radii(body)

    @pytest.mark.parametrize("n,big_n", [(3, 6), (3, 48), (4, 64), (5, 80), (6, 14), (6, 40)])
    def test_floor_hull_walk_descent_order(self, n, big_n):
        # sigma_min / sqrt(N) <= exact r (hull) <= walked estimate <= 64x500 descent
        for i in range(2):
            body = gq.make_body(n, big_n, seed(62, 10 * big_n + i))
            sd = seed(63, 10 * big_n + i)
            r_hull = float(np.min(-body.hull.equations[:, -1]))
            est = gq.radii(body, seed=sd)
            assert est.inradius_estimate == pytest.approx(r_hull, rel=1e-12)
            assert est.inradius_estimate == gq.dual_norm(body, est.certificate_direction)
            walked, direction = _walked_inradius(body, 64, sd)
            assert walked == gq.dual_norm(body, direction)
            descent = _inradius_descent(body, 64, sd, steps=500)[0]
            assert body.inradius_floor <= r_hull * (1 + 1e-12)
            assert r_hull <= walked * (1 + 1e-12)
            assert walked <= descent

    @pytest.mark.parametrize("n,big_n", [(36, 72), (36, 266)])
    def test_walk_never_above_full_descent(self, n, big_n):
        for i in range(2):
            body = gq.make_body(n, big_n, seed(64, 10 * big_n + i))
            sd = seed(65, 10 * big_n + i)
            est = gq.radii(body, seed=sd)
            assert est.inradius_estimate == gq.dual_norm(body, est.certificate_direction)
            assert body.inradius_floor <= est.inradius_estimate
            assert est.inradius_estimate <= _inradius_descent(body, 64, sd, steps=500)[0]

    def test_floor_is_smallest_singular_value_over_sqrt_n(self):
        body = gq.make_body(5, 30, seed(66))
        smin = np.linalg.svd(body.gamma, compute_uv=False)[-1]
        assert body.inradius_floor == pytest.approx(smin / np.sqrt(30), rel=1e-12)

    @pytest.mark.parametrize("n,big_n", [(16, 32), (25, 50), (36, 72), (16, 118), (16, 874),
                                         (25, 185), (25, 1365), (36, 266), (36, 1966)])
    def test_crash_started_walk_keeps_its_bytes(self, n, big_n, monkeypatch):
        # the corC and lemmaD shapes above the hull cap: the walk's start LP from the
        # crash basis ends where the cold start (phase 1) ends, in fewer pivots
        pivots = []
        solve = linprog.solve_lp

        def solve_spy(*args, **kwargs):
            sol = solve(*args, **kwargs)
            pivots.append(sol.iterations)
            return sol

        crash_bases = linprog._crash_bases

        def no_crash(g, pts):
            *start, usable = crash_bases(g, pts)
            return (*start, np.zeros_like(usable))

        monkeypatch.setattr(linprog, "solve_lp", solve_spy)
        for s in (100, 101):
            body = gq.make_body(n, big_n, seed(s, n * big_n))
            u = _inradius_descent(body, 64, seed(s, 1), steps=body_module._DESCENT_STEPS)[1]
            pivots.clear()
            crash = _polar_walk(body, u)
            crash_pivots = sum(pivots)
            pivots.clear()
            with monkeypatch.context() as m:
                m.setattr(linprog, "_crash_bases", no_crash)
                cold = _polar_walk(body, u)
            assert crash.tobytes() == cold.tobytes()
            assert crash_pivots < sum(pivots)

    @pytest.mark.parametrize("n,big_n", [(3, 48), (16, 118), (36, 266)])
    def test_descent_bit_identical_to_plain_loop(self, n, big_n):
        body = gq.make_body(n, big_n, seed(57, big_n))
        value, direction = _inradius_descent(body, 64, seed(58, n))
        ref_value, ref_direction = _plain_inradius_descent(body, 64, seed(58, n))
        assert value == ref_value
        assert direction.tobytes() == ref_direction.tobytes()


def _plain_inradius_descent(body, restarts, sd, steps=500, decay=0.97):
    """The subgradient descent written plainly: the reference for _inradius_descent."""
    rng = generator(sd)
    u = rng.normal(size=(restarts, body.n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    step = 0.3 / max(float(np.mean(body.column_norms)), 1e-12)
    best_val = np.full(restarts, np.inf)
    best_dir = u.copy()
    rows = np.arange(restarts)
    for _ in range(steps):
        proj = u @ body.gamma
        j = np.argmax(np.abs(proj), axis=1)
        vals = np.abs(proj[rows, j])
        improved = vals < best_val
        best_val[improved] = vals[improved]
        best_dir[improved] = u[improved]
        grad = np.sign(proj[rows, j])[:, None] * body.gamma[:, j].T
        u = u - step * grad
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        step *= decay
    vals = np.max(np.abs(u @ body.gamma), axis=1)
    improved = vals < best_val
    best_val[improved] = vals[improved]
    best_dir[improved] = u[improved]
    direction = best_dir[int(np.argmin(best_val))]
    return float(np.max(np.abs(direction @ body.gamma))), direction


class TestMeanWidth:
    def test_cross_polytope_closed_form(self, cross2):
        est, err = gq.mean_width(cross2, 1_000_000, seed(51))
        target = 2.0 * np.sqrt(2.0) / np.pi
        assert abs(est - target) <= 3 * err

    def test_scaling_same_seed(self):
        body = gq.make_body(3, 7, seed(52))
        scaled = gq.body_from_matrix(3.0 * body.gamma)
        a, _ = gq.mean_width(body, 2000, seed(52, 1))
        b, _ = gq.mean_width(scaled, 2000, seed(52, 1))
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_log_over_n_bound(self):
        body = gq.make_body(16, 256, seed(53))
        est, _ = gq.mean_width(body, 100_000, seed(53, 1))
        assert est <= 2.0 * np.sqrt(np.log(16) / 16)

    def test_min_samples(self, cross2):
        with pytest.raises(gq.UsageError):
            gq.mean_width(cross2, 99, seed(1))


_WILSON_Z_999 = 3.2905267314919255  # two-sided 99.9% normal quantile


def _wilson_interval(hits, trials, z):
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _sampled_volume_ratio_interval(body, samples, sd):
    """Rejection-sampling oracle: uniform points in the circumradius ball,
    membership by the polar facets; the Wilson interval of the hit rate,
    carried through R * p^(1/n). It never reads the hull's volume."""
    n, r = body.n, body.circumradius
    rng = generator(sd)
    pts = _unit_sphere(rng, samples, n) * (r * rng.random(samples) ** (1.0 / n))[:, None]
    hits = int(np.count_nonzero(np.max(pts @ body.polar_vertices.T, axis=1) <= 1.0 + 1e-8))
    lo, hi = _wilson_interval(hits, samples, _WILSON_Z_999)
    return r * lo ** (1.0 / n), r * hi ** (1.0 / n)


class TestVolumeRatio:
    @pytest.mark.parametrize("n,rotated", [(n, False) for n in range(1, 7)]
                             + [(n, True) for n in (3, 4, 5)])
    def test_cross_polytope(self, n, rotated):
        # Q B_1^n has the volume of the l1 ball, 2^n / n!, for orthogonal Q
        gamma = (np.linalg.qr(generator(seed(977, n)).normal(size=(n, n)))[0]
                 if rotated else np.eye(n))
        ball = np.pi ** (n / 2) / math.gamma(n / 2 + 1)
        target = (2.0 ** n / math.factorial(n) / ball) ** (1.0 / n)
        assert gq.volume_ratio(gq.body_from_matrix(gamma)) == pytest.approx(target, rel=1e-12)

    def test_cross_polytope_2d(self, cross2):
        assert gq.volume_ratio(cross2) == pytest.approx(np.sqrt(2.0 / np.pi), rel=1e-12)

    @pytest.mark.parametrize("n,big_n", [(3, 48), (4, 64), (5, 80)])
    @pytest.mark.parametrize("i", range(3))
    def test_inside_sampling_interval(self, n, big_n, i):
        body = gq.make_body(n, big_n, seed(973, i))
        lo, hi = _sampled_volume_ratio_interval(body, 40_000, seed(974, i))
        assert lo <= gq.volume_ratio(body) <= hi

    def test_one_hull_per_body(self, monkeypatch):
        import scipy.spatial

        calls = []
        hull = scipy.spatial.ConvexHull

        def counted(*args, **kwargs):
            calls.append(1)
            return hull(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "ConvexHull", counted)
        body = gq.make_body(4, 40, seed(975))
        gq.volume_ratio(body)
        gq.body_norm_many(body, np.eye(4))
        assert body.polar_vertices.shape[1] == 4
        assert len(calls) == 1

    def test_segment(self):
        body = gq.make_body(1, 1, seed(55))
        assert gq.volume_ratio(body) == abs(float(body.gamma[0, 0]))

    def test_former_sampling_arguments_are_ignored(self):
        body = gq.make_body(3, 12, seed(976))
        assert gq.volume_ratio(body, 10_000, seed(1)) == gq.volume_ratio(body)

    def test_dimension_cap(self):
        body = gq.make_body(9, 18, seed(56))
        with pytest.raises(gq.UsageError):
            gq.volume_ratio(body)


class TestSectionDistortion:
    def test_one_dimensional_section(self):
        body = gq.make_body(4, 11, seed(57))
        sub = gq.haar_subspace(4, 1, seed(57, 1))
        hi, lo = gq.section_distortion(body, sub, 100, seed(57, 2))
        assert hi == lo

    def test_cross_polytope_full_distortion(self, cross2):
        sub = gq.HaarSubspace(2, 2, np.eye(2))
        hi, lo = gq.section_distortion(cross2, sub, 10_000, seed(58))
        assert hi / lo == pytest.approx(np.sqrt(2.0), abs=1e-2)

    def test_max_gauge_reaches_inradius_reciprocal(self, cross2):
        sub = gq.HaarSubspace(2, 2, np.eye(2))
        hi, _ = gq.section_distortion(cross2, sub, 100_000, seed(59))
        est = gq.radii(cross2)
        assert hi >= 1.0 / est.inradius_estimate - 1e-6

    def test_dimension_mismatch(self, cross2):
        sub = gq.haar_subspace(3, 2, seed(60))
        with pytest.raises(gq.UsageError):
            gq.section_distortion(cross2, sub, 100, seed(1))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        body = gq.make_body(4, 10, seed(61, 5))
        path = tmp_path / "body.mtx"
        gq.save_body(body, path)
        loaded = gq.load_body(path)
        assert loaded.gamma.tobytes() == body.gamma.tobytes()
        assert loaded.seed == body.seed
        assert (loaded.n, loaded.N) == (body.n, body.N)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("NOT-A-BODY 1 2 3 4\n1 1\n1.0\n")
        with pytest.raises(gq.IoError):
            gq.load_body(path)

    def test_shape_mismatch_detected(self, tmp_path):
        body = gq.make_body(2, 3, seed(62))
        text = gq.body.format_body(body).replace("GENQUOT-BODY v1 2 3", "GENQUOT-BODY v1 2 4")
        path = tmp_path / "mismatch.mtx"
        path.write_text(text)
        with pytest.raises(gq.IoError):
            gq.load_body(path)


def test_volume_trend_at_4_64():
    # the ratio per dimension stays below 3.0 sqrt(log(N/n)/n) across seeds at (4, 64)
    scale = 3.0 * np.sqrt(np.log(64 / 4) / 4)
    for i in range(5):
        assert gq.volume_ratio(gq.make_body(4, 64, seed(960, i))) <= scale
