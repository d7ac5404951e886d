from __future__ import annotations

import numpy as np
import pytest

import genquot as gq
from genquot.linalg import golden_min
from genquot.sampler import generator
from genquot.snumbers import (_GRID_POINTS, GelfandSumResult, _restriction_certificate,
                              _shift_scan)

from conftest import net_gelfand_3d


def seed(i, j=0):
    return gq.SeedSpec(i, j)


def _full_grid(t, window, grid_points, extra):
    """The shift grid of a scan and the singular values of t - lam*Id at every
    grid shift, one SVD per shift: the unpruned scan's grid."""
    lams = list(np.linspace(-window, window, grid_points))
    lams += [lam for lam in extra if -window <= lam <= window and lam not in lams]
    lams.sort()
    eye = np.eye(t.shape[0])
    return lams, [np.linalg.svd(t - lam * eye, compute_uv=False) for lam in lams]


def _unpruned_scan(t, lams, svals, objective, window, grid_points):
    """Reference shift scan: first-index argmin of the objective over every
    grid shift, then golden section on the regular-spacing bracket."""
    vals = [float(objective(s)) for s in svals]
    i = int(np.argmin(vals))
    best_shift, best_value = float(lams[i]), vals[i]
    span = 2.0 * window / (grid_points - 1)
    eye = np.eye(t.shape[0])
    gx, gv = golden_min(lambda lam: float(objective(np.linalg.svd(t - lam * eye,
                                                                   compute_uv=False))),
                        max(best_shift - span, -window), min(best_shift + span, window))
    if gv < best_value:
        best_shift, best_value = float(gx), float(gv)
    return best_shift, best_value


class TestEuclideanSNumbers:
    def test_half_rank_projection(self):
        n = 6
        t = np.diag([1.0] * (n // 2) + [0.0] * (n // 2))
        s = gq.euclidean_s_numbers(t)
        assert s[n // 2 - 1] == pytest.approx(1.0)
        assert s[n // 2] == pytest.approx(0.0, abs=1e-12)

    def test_low_rank_tail_vanishes(self):
        rng = gq.generator(seed(70))
        t = np.outer(rng.normal(size=5), rng.normal(size=5))  # rank 1
        s = gq.euclidean_s_numbers(t)
        assert s[1] <= 1e-10 * (1 + s[0])

    def test_nonincreasing_and_homogeneous(self):
        t = gq.gaussian_matrix(5, 5, 1.0, seed(71))
        s = gq.euclidean_s_numbers(t)
        assert np.all(np.diff(s) <= 1e-12)
        s2 = gq.euclidean_s_numbers(-3.0 * t)
        assert np.max(np.abs(s2 - 3.0 * s)) <= 1e-9 * (1 + s[0])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gelfand_equals_singular_at_n3(self, k):
        t = gq.gaussian_matrix(3, 3, 1.0, seed(72, k))
        s = gq.euclidean_s_numbers(t)
        net_val = net_gelfand_3d(t, k, points=10_000)
        # net minimum can only overshoot the true infimum s_k, and only slightly
        assert net_val >= s[k - 1] - 1e-2
        assert net_val <= s[k - 1] + 0.05 * (1 + s[0])


class TestGelfandBracket:
    def test_identity_contains_one(self):
        body = gq.make_body(4, 12, seed(73))
        for k in (1, 2, 4):
            br = gq.gelfand_bracket(body, np.eye(4), k)
            assert br.lower <= 1.0 <= br.upper
            assert br.lower_kind == "certified" and br.upper_kind == "certified"

    def test_zero_operator_exact(self):
        body = gq.make_body(3, 6, seed(74))
        br = gq.gelfand_bracket(body, np.zeros((3, 3)), 2)
        assert (br.lower, br.upper) == (0.0, 0.0)
        assert br.lower_kind == "exact" and br.upper_kind == "exact"

    def test_k1_contains_operator_norm(self):
        body = gq.make_body(2, 4, seed(11))
        t = gq.gaussian_matrix(2, 2, 1.0, seed(11, 1))
        q = gq.operator_norm(body, t)
        br = gq.gelfand_bracket(body, t, 1)
        assert br.lower - 1e-6 <= q <= br.upper + 1e-6

    def test_monotone_in_k(self):
        body = gq.make_body(5, 10, seed(75))
        t = gq.gaussian_matrix(5, 5, 1.0, seed(75, 1))
        brs = [gq.gelfand_bracket(body, t, k, cert_samples=0) for k in range(1, 6)]
        for a, b in zip(brs, brs[1:]):
            assert b.lower <= a.lower + 1e-9
            assert b.upper <= a.upper + 1e-9

    def test_dual_mode_same_sandwich(self):
        body = gq.make_body(3, 9, seed(76))
        t = gq.gaussian_matrix(3, 3, 1.0, seed(76, 1))
        primal = gq.gelfand_bracket(body, t, 2)
        dual = gq.gelfand_bracket(body, t, 2, dual=True)
        assert dual.lower == pytest.approx(primal.lower, rel=1e-12)
        assert dual.upper == pytest.approx(primal.upper, rel=1e-12)

    @pytest.mark.parametrize("n,big_n,dual", [(4, 12, False), (8, 64, False), (8, 64, True)])
    def test_certificate_matches_per_direction_loop(self, n, big_n, dual):
        # reference: one scalar norm per direction and per image, as the
        # certificate was computed before it batched them
        body = gq.make_body(n, big_n, seed(78, n))
        t = gq.gaussian_matrix(n, n, 1.0, seed(78, 1))
        work = t.T if dual else t
        right = gq.svd(work).right_basis
        got = _restriction_certificate(body, work, 2, right, dual, 32)
        norm = gq.dual_norm if dual else gq.body_norm
        z_basis = right[:, 1:]
        proj = generator(body.seed.child(0xCE27)).normal(size=(32, n)) @ z_basis @ z_basis.T
        dirs = [z_basis[:, 0]] + [p / np.linalg.norm(p) for p in proj]
        ref = max(norm(body, work @ z) / norm(body, z) for z in dirs)
        # the polar-facet gauges at n <= 6 agree with the LP to its tolerance
        assert got == pytest.approx(ref, rel=1e-7 if n <= 6 else 1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_floor_bracket_contains_exact_inradius_bracket(self, n):
        # up to n = 6 radii reads the exact inradius r off the polar hull; the
        # certified floor sigma_min/sqrt(N) <= r only widens the sandwich
        for big_n in (n + 1, 2 * n, 8 * n):
            for i in range(3):
                body = gq.make_body(n, big_n, seed(94, 100 * big_n + i))
                t = gq.gaussian_matrix(n, n, 1.0, seed(95, 100 * big_n + i))
                r = gq.radii(body, seed=seed(96, i)).inradius_estimate
                assert body.inradius_floor <= r
                ratio = r / body.circumradius
                s = gq.euclidean_s_numbers(t)
                for k in range(1, n + 1):
                    for dual in (False, True):
                        br = gq.gelfand_bracket(body, t, k, dual=dual, cert_samples=0)
                        assert br.lower <= ratio * s[k - 1], (big_n, i, k, dual)
                        assert br.upper >= s[k - 1] / ratio, (big_n, i, k, dual)

    def test_no_inradius_search(self, no_radii):
        body = gq.make_body(8, 16, seed(97))  # n > 6: radii would descend and walk
        t = gq.gaussian_matrix(8, 8, 1.0, seed(97, 1))
        for dual in (False, True):
            br = gq.gelfand_bracket(body, t, 4, dual=dual)
            assert (br.lower_kind, br.upper_kind) == ("certified", "certified")
        assert gq.min_over_shifts(body, t, 4).bracket_at_best.upper_kind == "certified"

    def test_k_validated(self):
        body = gq.make_body(3, 6, seed(77))
        with pytest.raises(gq.UsageError):
            gq.gelfand_bracket(body, np.eye(3), 4)


class TestMinOverShifts:
    def test_identity_multiple_exact_zero(self):
        body = gq.make_body(4, 8, seed(78))
        res = gq.min_over_shifts(body, 5.0 * np.eye(4), k=2, opnorm=5.0)
        assert res.best_value == 0.0
        assert res.best_shift == 5.0
        assert res.bracket_at_best.upper == 0.0

    def test_two_eigenvalue_closed_form(self):
        body = gq.make_body(4, 12, seed(79))
        t = np.diag([1.0, 1.0, 0.0, 0.0])
        res = gq.min_over_shifts(body, t, k=2)
        assert res.best_value == pytest.approx(0.5, abs=1e-6)
        assert res.best_shift == pytest.approx(0.5, abs=1e-6)

    def test_skew_normal_closed_form(self):
        body = gq.make_body(2, 6, seed(80))
        t = np.array([[0.0, 1.0], [-1.0, 0.0]])
        res = gq.min_over_shifts(body, t, k=1)
        assert res.best_value == pytest.approx(1.0, abs=1e-9)
        assert abs(res.best_shift) <= 0.05

    def test_dominates_unshifted(self):
        body = gq.make_body(4, 9, seed(81))
        t = gq.gaussian_matrix(4, 4, 1.0, seed(81, 1))
        res = gq.min_over_shifts(body, t, k=2)
        s = gq.euclidean_s_numbers(t)
        assert res.best_value <= s[1] + 1e-12  # grid contains lambda = 0

    def test_argmin_invariance_under_identity_shift(self):
        body = gq.make_body(4, 9, seed(82))
        t = gq.gaussian_matrix(4, 4, 1.0, seed(82, 1))
        base = gq.min_over_shifts(body, t, k=2)
        mu = 0.8
        shifted = gq.min_over_shifts(body, t + mu * np.eye(4), k=2)
        window = base.grid[-1][0]  # the scan always evaluates both window ends
        grid_step = 2.0 * window / (_GRID_POINTS - 1)
        assert abs(shifted.best_shift - (base.best_shift + mu)) <= 2 * grid_step + 1e-9
        assert shifted.bracket_at_best.lower == pytest.approx(base.bracket_at_best.lower, abs=1e-9)
        assert shifted.bracket_at_best.upper == pytest.approx(base.bracket_at_best.upper, abs=1e-9)

    @pytest.mark.parametrize("grid_points", [201, 601])  # at n = 8: one stacked SVD, then two
    def test_grid_bytes_match_per_shift_svd(self, grid_points):
        body = gq.make_body(8, 16, seed(84))
        t = gq.gaussian_matrix(8, 8, 1.0, seed(84, 1))
        res = gq.min_over_shifts(body, t, k=4, grid_points=grid_points, opnorm=3.0)
        trace_mean = float(np.trace(t)) / 8
        shifts = [lam for lam, _ in res.grid]
        assert shifts == sorted(shifts)
        assert {-6.0, 6.0, 0.0, trace_mean} <= set(shifts)
        for lam, value in res.grid:
            assert value == float(np.linalg.svd(t - lam * np.eye(8), compute_uv=False)[3])
        lams, svals = _full_grid(t, 6.0, grid_points, (0.0, trace_mean))
        ref = _unpruned_scan(t, lams, svals, lambda s: s[..., 3], 6.0, grid_points)
        assert (res.best_shift.hex(), res.best_value.hex()) == tuple(x.hex() for x in ref)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_pruned_scan_matches_unpruned_grid(self, n):
        """The Lipschitz-pruned scan returns the bits of the full-grid scan,
        for both objectives at every k, ties and degenerate operators included."""
        body = gq.make_body(n, 2 * n, seed(87, n))
        gauss = gq.gaussian_matrix(n, n, 1.0, seed(88, n))
        m = n // 2
        # window 1.5625: the grid step is 2^-6, and the dyadic diagonal's exact
        # ties sit on grid shifts (s_n = 0 at -0.25 and 0.25; a flat sum between)
        ties = np.diag([0.25] * m + [0.0] * (n - 2 * m) + [-0.25] * m)
        cases = [
            (gauss, None),
            (gq.haar_subspace(n, n, seed(89, n)).basis, None),
            (1.5 * np.eye(n), None),
            (-0.75 * np.eye(n), None),
            (ties, 0.78125),
            (np.outer(gauss[0], gauss[1]), None),
            (np.eye(n, k=1), None),
            (2.0 ** 30 * gauss, None),
            (2.0 ** -30 * gauss, None),
        ]
        for t, q in cases:
            q = float(np.linalg.norm(t, 2)) if q is None else q
            trace_mean = float(np.trace(t)) / n
            lams, svals = _full_grid(t, 2.0 * q, _GRID_POINTS, (0.0, trace_mean))
            for k in range(1, n + 1):
                res = gq.min_over_shifts(body, t, k, opnorm=q)
                ref = _unpruned_scan(t, lams, svals, lambda s: s[..., k - 1], 2.0 * q,
                                     _GRID_POINTS)
                assert (res.best_shift.hex(), res.best_value.hex()) == \
                    tuple(x.hex() for x in ref), (n, k)
            t0 = t - trace_mean * np.eye(n)
            if not np.any(t0):
                continue
            # the sum's own window ||T0||_* / n, and the operator-norm window
            # on which the dyadic ties sit on grid shifts
            nuclear = float(np.linalg.svd(t0, compute_uv=False).sum()) / n
            for window in (nuclear, 2.0 * q):
                lams0, svals0 = _full_grid(t0, window, _GRID_POINTS, (0.0, -trace_mean))
                rel, ref_sum = _unpruned_scan(t0, lams0, svals0, lambda s: s.sum(axis=-1),
                                              window, _GRID_POINTS)
                got = _shift_scan(t0, lambda s: s.sum(axis=-1), float(n), window,
                                  _GRID_POINTS, (0.0, -trace_mean))
                assert (got[0].hex(), got[1].hex()) == (rel.hex(), ref_sum.hex()), (n, window)
                if window == nuclear:
                    res = gq.gelfand_sum_bracket(body, t)
                    assert (res.best_shift.hex(), res.sum_value.hex()) == \
                        ((trace_mean + rel).hex(), ref_sum.hex()), n

    def test_zero_operator_rejected(self):
        body = gq.make_body(3, 6, seed(83))
        with pytest.raises(gq.UsageError):
            gq.min_over_shifts(body, np.zeros((3, 3)), k=1)


class TestGelfandSum:
    def test_identity_collapses(self):
        body = gq.make_body(3, 9, seed(84))
        res = gq.gelfand_sum_bracket(body, np.eye(3))
        assert isinstance(res, GelfandSumResult)
        assert res.traceless_shift == pytest.approx(1.0)
        assert res.sum_value == 0.0

    def test_traceless_diagonal(self):
        body = gq.make_body(2, 6, seed(85))
        t = np.diag([1.0, -1.0])
        res = gq.gelfand_sum_bracket(body, t)
        assert res.traceless_shift == 0.0
        assert res.sum_value == pytest.approx(2.0, abs=1e-9)

    def test_never_worse_than_raw_sum(self):
        body = gq.make_body(8, 16, seed(86))
        t = gq.gaussian_matrix(8, 8, 1.0, seed(86, 1))
        res = gq.gelfand_sum_bracket(body, t)
        assert res.sum_value <= np.sum(gq.euclidean_s_numbers(t)) + 1e-9

    def test_refinement_stable_under_one_ulp_window_move(self):
        # thm32 at seed 7, cell 8x64, trial 0. On the operator-norm window
        # 2 ||T0||_X, one ulp lower puts a grid point at -3.55e-15, beside the
        # extra shift 0.0; bracketing by grid neighbours then missed the
        # minimizer near 0.00955. The sum's own window is ||T0||_* / n.
        from scipy.optimize import minimize_scalar

        t = gq.gaussian_matrix(8, 8, 1.0, seed(7).child(1))
        lam0 = float(np.trace(t)) / 8
        t0 = t - lam0 * np.eye(8)
        q0 = 12.690647087798382  # the ||T0||_X that exposed the failure
        for w0 in (float(np.linalg.svd(t0, compute_uv=False).sum()) / 8, 2 * q0):
            values = [_shift_scan(t0, lambda s: s.sum(axis=-1), 8.0, w, _GRID_POINTS,
                                  (0.0, -lam0))[1]
                      for w in (w0, np.nextafter(w0, 0.0), np.nextafter(w0, np.inf))]
            assert values[1] == pytest.approx(values[0], rel=1e-12)
            assert values[2] == pytest.approx(values[0], rel=1e-12)
            ref = minimize_scalar(lambda lam: np.linalg.svd(t0 - lam * np.eye(8),
                                                            compute_uv=False).sum(),
                                  bounds=(-w0, w0), method="bounded",
                                  options={"xatol": 1e-12})
            assert max(values) <= ref.fun + 1e-12


class TestNuclearWindow:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_no_wider_search_finds_a_smaller_sum(self, n):
        """Every minimizer of the convex sum lies in the window ||T0||_* / n:
        a bounded search on a window 4x wider than both that window and the
        operator-norm window 2 ||T0||_X finds no smaller sum."""
        from scipy.optimize import minimize_scalar

        body = gq.make_body(n, 2 * n, seed(98, n))
        gauss = gq.gaussian_matrix(n, n, 1.0, seed(99, n))
        m = n // 2
        cases = [
            gauss,
            gq.haar_subspace(n, n, seed(100, n)).basis,
            np.outer(gauss[0], gauss[1]),
            np.eye(n, k=1),
            np.diag([1.0] * m + [3.0] * (n - m)),
            2.0 ** 30 * gauss,
            2.0 ** -30 * gauss,
        ]
        eye = np.eye(n)
        for case, t in enumerate(cases):
            res = gq.gelfand_sum_bracket(body, t)
            t0 = t - res.traceless_shift * eye
            nuclear = float(np.linalg.svd(t0, compute_uv=False).sum()) / n
            wide = 4.0 * max(nuclear, 2.0 * gq.operator_norm(body, t0))
            ref = minimize_scalar(lambda lam: np.linalg.svd(t0 - lam * eye,
                                                            compute_uv=False).sum(),
                                  bounds=(-wide, wide), method="bounded",
                                  options={"xatol": 1e-12 * wide})
            assert res.sum_value <= ref.fun * (1 + 1e-12), (n, case)


class TestLapackFailure:
    def test_snumbers_raise_numeric_error(self, svd_fails_on_square):
        body = gq.make_body(4, 8, seed(101))
        t = gq.gaussian_matrix(4, 4, 1.0, seed(101, 1))
        for call in (lambda: gq.min_over_shifts(body, t, 2, opnorm=1.0),
                     lambda: gq.gelfand_sum_bracket(body, t),
                     lambda: gq.gelfand_bracket(body, t, 2),
                     lambda: gq.mn_witness_check(t, np.eye(4), 0.5)):  # a 4x4 witness matrix
            with pytest.raises(gq.NumericError, match="SVD did not converge"):
                call()


class TestMnWitness:
    def test_rotation_witness(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        wit = gq.mn_witness_check(rot, np.array([[1.0], [0.0]]), beta=1.0)
        assert wit.achieved == pytest.approx(1.0, abs=1e-12)
        assert wit.is_member
        assert wit.alpha == 1

    def test_identity_never_member(self):
        basis = gq.haar_subspace(4, 2, seed(87)).basis
        wit = gq.mn_witness_check(np.eye(4), basis, beta=0.1)
        assert wit.achieved == pytest.approx(0.0, abs=1e-12)
        assert not wit.is_member

    def test_matches_sampled_minimum(self):
        n = 6
        t = gq.gaussian_matrix(n, n, 1.0, seed(88))
        basis = gq.haar_subspace(n, 2, seed(88, 1)).basis
        wit = gq.mn_witness_check(t, basis, beta=0.0)
        rng = gq.generator(seed(88, 2))
        w = rng.normal(size=(10_000, 2))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        xs = w @ basis.T
        proj = xs @ t.T - (xs @ t.T @ basis) @ basis.T
        sampled_min = float(np.linalg.norm(proj, axis=1).min())
        assert sampled_min >= wit.achieved - 1e-9
        assert sampled_min <= wit.achieved + 1e-3

    def test_non_orthonormal_rejected(self):
        with pytest.raises(gq.UsageError):
            gq.mn_witness_check(np.eye(2), np.array([[1.0], [1.0]]), beta=0.5)


class TestHsBound:
    def test_identity(self):
        body = gq.make_body(4, 16, seed(89))
        hs, bound, ok = gq.hs_of_normalized(body, np.eye(4))
        assert ok and bound == 4.0
        assert hs <= bound

    def test_rank_one(self):
        body = gq.make_body(3, 12, seed(90))
        u = gq.gaussian_matrix(3, 1, 1.0, seed(90, 1))[:, 0]
        t = np.outer(body.gamma[:, 0], u)
        hs, bound, ok = gq.hs_of_normalized(body, t)
        assert ok

    def test_random_instances_all_pass(self):
        # exact theorem: any violation is a bug
        body = gq.make_body(8, 64, seed(91))
        for i in range(50):
            t = gq.gaussian_matrix(8, 8, 1.0, seed(91, i + 1))
            _, _, ok = gq.hs_of_normalized(body, t)
            assert ok

    def test_zero_rejected(self):
        body = gq.make_body(3, 6, seed(92))
        with pytest.raises(gq.UsageError):
            gq.hs_of_normalized(body, np.zeros((3, 3)))


class TestScalingHomogeneity:
    def test_brackets_scale_with_operator(self):
        body = gq.make_body(4, 9, seed(93))
        t = gq.gaussian_matrix(4, 4, 1.0, seed(93, 1))
        base = gq.gelfand_bracket(body, t, 2, cert_samples=0)
        scaled = gq.gelfand_bracket(body, -2.0 * t, 2, cert_samples=0)
        assert scaled.lower == pytest.approx(2.0 * base.lower, rel=1e-9)
        assert scaled.upper == pytest.approx(2.0 * base.upper, rel=1e-9)
