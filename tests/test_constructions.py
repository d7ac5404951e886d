from __future__ import annotations

import json

import numpy as np
import pytest

import genquot as gq
from genquot import body as body_module, linprog
from genquot.constructions import (_ISO_STREAM_OFFSET, _inverse_map_estimates, _measure_l1,
                                   auto_l1_dim, auto_l2_dim)

from conftest import angular_net_gauge_ratio, highs_gauges, highs_max_gauge


def seed(i, j=0):
    return gq.SeedSpec(i, j)


class TestFindL1:
    def test_coordinate_subspace_constants(self):
        body = gq.body_from_matrix(np.eye(4))
        wit = gq.find_l1_subspace(body, k=2, seed=seed(100))
        assert wit.k == 2
        assert wit.sigma_min == pytest.approx(1.0, abs=1e-12)
        assert wit.max_leak == pytest.approx(0.0, abs=1e-12)
        assert wit.iso_constant == pytest.approx(1.0, abs=1e-9)
        assert wit.compl_constant == pytest.approx(1.0, abs=1e-9)

    def test_auto_dimension_formula(self):
        assert auto_l1_dim(36, 1296) == 1
        assert auto_l1_dim(100, 200) == 2  # min(10, 100/log 200) * 0.25
        assert auto_l2_dim(16, 256) == 1
        assert auto_l2_dim(400, 1) == 1

    def test_rank_forced_failure(self):
        body = gq.make_body(3, 12, seed(101))
        with pytest.raises(gq.ConditionFailed) as err:
            gq.find_l1_subspace(body, k=4, retries=3, seed=seed(101, 1))
        assert err.value.tag == "el2"
        assert err.value.measured["sigma_min"] == pytest.approx(0.0, abs=1e-12)

    def test_k_out_of_range(self):
        body = gq.make_body(3, 6, seed(102))
        with pytest.raises(gq.UsageError):
            gq.find_l1_subspace(body, k=7, seed=seed(102, 1))

    def test_seed_required(self):
        body = gq.make_body(3, 6, seed(103))
        with pytest.raises(gq.UsageError):
            gq.find_l1_subspace(body, k=1)

    def test_witness_reverifies_exactly(self):
        body = gq.make_body(25, 100, seed(104))
        wit = gq.find_l1_subspace(body, k=2, seed=seed(104, 1))
        devs = gq.verify_witness(body, wit)
        assert max(devs.values()) <= 1e-9

    def test_iso_constant_from_column_gauges_against_highs(self):
        g = gq.make_body(16, 128, seed(104)).gamma
        # columns 128 and 129 are 0.3 g_0 and 0.5 g_1: both fail _column_gauge's certificate
        body = gq.body_from_matrix(np.hstack([g, 0.3 * g[:, :1], 0.5 * g[:, 1:2]]))
        for a in ((5, 77), (128, 129)):
            stream = seed(105, a[0])
            wit = _measure_l1(body, np.array(a), stream)
            u_norm = highs_gauges(body.gamma, body.gamma[:, a].T).max()
            sup_ratio, inv_direct = _inverse_map_estimates(
                body, body.gamma[:, a], wit.basis, stream.child(_ISO_STREAM_OFFSET))
            iso = max(1.0, u_norm * min(np.sqrt(2) / wit.sigma_min * sup_ratio, inv_direct))
            assert wit.iso_constant == pytest.approx(iso, rel=1e-9), a
        assert u_norm == pytest.approx(0.5, rel=1e-9) and wit.iso_constant > 1.0

    def test_witness_roundtrip(self, tmp_path):
        body = gq.make_body(25, 100, seed(105))
        wit = gq.find_l1_subspace(body, k=2, seed=seed(105, 1))
        path = tmp_path / "wit.json"
        gq.save_witness(wit, path)
        loaded = gq.load_witness(path)
        assert loaded.index_set == wit.index_set
        assert loaded.basis.tobytes() == wit.basis.tobytes()
        assert loaded.iso_constant == wit.iso_constant
        assert loaded.seed == wit.seed
        assert max(gq.verify_witness(body, loaded).values()) <= 1e-9

    @pytest.mark.parametrize("edit", [
        lambda p: {"kind": "l1"},  # every other key missing
        lambda p: [p],  # not an object
        lambda p: {**p, "seed": {"master_seed": 1}},
        lambda p: {**p, "seed": {**p["seed"], "stream_index": -1}},
        lambda p: {**p, "constants": {**p["constants"], "sigma_min": "high"}},
        lambda p: {**p, "indices": [0, "one"]},
        lambda p: {**p, "basis": "2 2\n1 0\n0 x\n"},
        lambda p: {**p, "kind": "l3"},
    ], ids=["keys-missing", "not-object", "seed-key-missing", "negative-stream",
            "constant-not-number", "index-not-int", "bad-basis", "unknown-kind"])
    def test_bad_witness_file_is_io_error(self, tmp_path, edit):
        body = gq.make_body(9, 81, seed(106))
        path = tmp_path / "wit.json"
        gq.save_witness(gq.find_l1_subspace(body, k=1, seed=seed(106, 1)), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(gq.IoError) as err:
            gq.load_witness(path)
        assert err.value.path == str(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_iso_stability_between_disjoint_sets(self):
        # smoke test: disjoint index sets of the same size give comparable constants
        close = 0
        total = 25
        for i in range(total):
            body = gq.make_body(25, 200, seed(106, i))
            w1 = gq.find_l1_subspace(body, k=1, seed=seed(107, 2 * i))
            w2 = None
            for shift in range(1, 30):
                cand = gq.find_l1_subspace(body, k=1, seed=seed(108, 2 * i + shift))
                if not set(cand.index_set) & set(w1.index_set):
                    w2 = cand
                    break
            assert w2 is not None
            ratio = w1.iso_constant / w2.iso_constant
            if 0.5 <= ratio <= 2.0:
                close += 1
        assert close / total >= 0.8


class TestFindL2:
    def test_degenerate_section_has_unit_distortion(self):
        body = gq.make_body(4, 16, seed(110))
        wit = gq.find_l2_subspace(body, h=1, seed=seed(110, 1))
        assert wit.distortion == pytest.approx(1.0, abs=1e-12)
        assert wit.compl_constant >= 1.0 - 1e-8

    def test_precondition_enforced(self):
        body = gq.make_body(9, 80, seed(111))
        with pytest.raises(gq.UsageError):
            gq.find_l2_subspace(body, seed=seed(111, 1))

    def test_relaxed_mode_warns(self):
        body = gq.make_body(16, 32, seed(112))
        with pytest.warns(UserWarning):
            wit = gq.find_l2_subspace(body, seed=seed(112, 1), relax_alpha=0.25)
        assert wit.h >= 1

    def test_relaxed_mode_still_requires_enough_columns(self):
        body = gq.make_body(16, 20, seed(113))
        with pytest.raises(gq.UsageError):
            gq.find_l2_subspace(body, seed=seed(113, 1), relax_alpha=0.5)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, float("nan")])
    def test_relax_alpha_must_be_positive(self, alpha):
        body = gq.make_body(4, 8, seed(116))
        with pytest.raises(gq.UsageError, match="relax_alpha must be > 0"):
            gq.find_l2_subspace(body, seed=seed(116, 1), relax_alpha=alpha)

    def test_witness_reverifies_exactly(self):
        body = gq.make_body(9, 81, seed(114))
        wit = gq.find_l2_subspace(body, seed=seed(114, 1))
        assert max(gq.verify_witness(body, wit).values()) <= 1e-9

    def test_witness_roundtrip(self, tmp_path):
        body = gq.make_body(9, 81, seed(115))
        wit = gq.find_l2_subspace(body, seed=seed(115, 1))
        path = tmp_path / "wit2.json"
        gq.save_witness(wit, path)
        loaded = gq.load_witness(path)
        assert loaded.subspace.basis.tobytes() == wit.subspace.basis.tobytes()
        assert loaded.distortion == wit.distortion
        assert max(gq.verify_witness(body, loaded).values()) <= 1e-9


class TestComplementationNorm:
    def test_full_space_projection(self):
        body = gq.make_body(3, 9, seed(120))
        assert gq.complementation_norm(body, np.eye(3)) == pytest.approx(1.0, abs=1e-8)

    def test_hand_computed_2d(self):
        body = gq.body_from_matrix(np.eye(2))
        g1 = body.gamma[:, 0] / np.linalg.norm(body.gamma[:, 0])
        # P projects onto e1: P e1 = e1 (l1 norm 1), P e2 = 0
        assert gq.complementation_norm(body, g1.reshape(2, 1)) == pytest.approx(1.0, abs=1e-8)

    def test_against_angular_net(self):
        body = gq.make_body(2, 4, seed(13))
        direction = gq.haar_subspace(2, 1, seed(13, 1)).basis
        p = direction @ direction.T
        net = angular_net_gauge_ratio(body, p, points=10_000)
        assert gq.complementation_norm(body, direction) == pytest.approx(net, abs=1e-3 * (1 + net))

    def test_projection_norm_at_least_one(self):
        for i in range(5):
            body = gq.make_body(5, 20, seed(121, i))
            basis = gq.haar_subspace(5, 2, seed(122, i)).basis
            assert gq.complementation_norm(body, basis) >= 1.0 - 1e-8

    def test_matches_operator_norm(self):
        body = gq.make_body(3, 9, seed(123))
        basis = gq.haar_subspace(3, 2, seed(123, 1)).basis
        p = basis @ basis.T
        assert gq.complementation_norm(body, basis) == pytest.approx(
            gq.operator_norm(body, p), abs=1e-8)

    @pytest.mark.parametrize("n,big_n", [(8, 16), (8, 64), (16, 128), (16, 256)])
    def test_bit_identical_to_cold_maximum(self, n, big_n):
        body = gq.make_body(n, big_n, seed(125, n * big_n))
        for h in (2, 3, n // 2):
            basis = gq.haar_subspace(n, h, seed(126, h)).basis
            proj = basis @ (basis.T @ body.gamma)
            cold = max(gq.body_norm(body, x) for x in proj.T)
            assert gq.complementation_norm(body, basis) == cold, h

    def test_wide_complementation_norm_against_highs(self):
        body = gq.make_body(24, 576, seed(127))  # 2N = 1152 columns
        basis = gq.haar_subspace(24, 3, seed(127, 1)).basis
        ref = highs_max_gauge(body.gamma, (basis @ (basis.T @ body.gamma)).T)
        assert gq.complementation_norm(body, basis) == pytest.approx(ref, rel=1e-9)

    def test_non_orthonormal_rejected(self):
        body = gq.make_body(3, 6, seed(124))
        with pytest.raises(gq.UsageError):
            gq.complementation_norm(body, np.ones((3, 2)))


class TestLineWitness:
    """A witness on a line (k = 1 or h = 1) solves at most the line's gauge LP."""

    @pytest.mark.parametrize("n,big_n", [(16, 128), (24, 576), (36, 1296)])
    def test_l1_line_makes_one_cold_solve(self, n, big_n, monkeypatch):
        # none when g_a supports B at itself (_column_gauge's certificate proves
        # ||g_a||_B = 1), and one cold LP for a column that does not
        body = gq.make_body(n, big_n, seed(130, n))
        g = body.gamma
        a = next(j for j in range(big_n)
                 if np.abs(g[:, j] @ g).max() <= (1 + 1e-12) * (g[:, j] @ g[:, j]))
        wider = gq.body_from_matrix(np.hstack([g, 0.3 * g[:, [a]]]))  # column N = 0.3 g_a
        calls = []
        gauges, solve = body_module._gauges, linprog.solve_lp

        def gauges_spy(b, pts, cutoff=None):
            calls.append(("gauge", pts.tobytes(), cutoff is None))
            return gauges(b, pts, cutoff)

        def solve_spy(*args, **kwargs):
            calls.append(("solve",))
            return solve(*args, **kwargs)

        monkeypatch.setattr(body_module, "_gauges", gauges_spy)
        monkeypatch.setattr(linprog, "solve_lp", solve_spy)
        wit = _measure_l1(body, np.array([a]), seed(131, n))
        assert calls == []
        assert max(gq.verify_witness(body, wit).values()) == 0.0
        assert calls == []
        scaled = _measure_l1(wider, np.array([big_n]), seed(131, n))
        once = [("gauge", wider.gamma[:, big_n].tobytes(), True), ("solve",)]
        assert calls == once
        # the same line as g_a's: ||b||_B = 0.3 / (0.3 |g_a|) by homogeneity
        assert scaled.compl_constant == pytest.approx(wit.compl_constant, rel=1e-12)
        calls.clear()
        assert max(gq.verify_witness(wider, scaled).values()) == 0.0
        assert calls == once  # measured again, from scratch

    @pytest.mark.parametrize("n,big_n", [(16, 128), (24, 576)])
    def test_l1_line_constants_against_highs(self, n, big_n):
        body = gq.make_body(n, big_n, seed(132, n))
        wit = gq.find_l1_subspace(body, k=1, seed=seed(133, n))
        j, b = wit.index_set[0], wit.basis[:, 0]
        line, column = highs_gauges(body.gamma, np.vstack([b, body.gamma[:, j]]))
        inv_direct = float(np.abs(np.linalg.pinv(body.gamma[:, [j]]) @ b).sum()) / line
        iso = max(1.0, column * min(1.0 / (wit.sigma_min * line), inv_direct))
        assert wit.iso_constant == pytest.approx(iso, rel=1e-9)
        # the projected column of largest length attains the complementation constant
        top = int(np.argmax(np.abs(b @ body.gamma)))
        image = b * (b @ body.gamma[:, top])
        assert wit.compl_constant == pytest.approx(highs_gauges(body.gamma, image[None])[0],
                                                   rel=1e-9)
        assert max(gq.verify_witness(body, wit).values()) == 0.0

    @pytest.mark.parametrize("n,big_n", [(9, 81), (16, 256)])
    def test_l2_line_solves_one_gauge(self, n, big_n, monkeypatch):
        body = gq.make_body(n, big_n, seed(134, n))
        solved = []
        gauges = body_module._gauges

        def spy(b, pts, cutoff=None):
            solved.append(pts.tobytes())
            return gauges(b, pts, cutoff)

        monkeypatch.setattr(body_module, "_gauges", spy)
        wit = gq.find_l2_subspace(body, h=1, seed=seed(135, n))
        u = wit.subspace.basis[:, 0]
        assert solved == [u.tobytes()]
        top = int(np.argmax(np.abs(u @ body.gamma)))
        image = u * (u @ body.gamma[:, top])
        assert wit.compl_constant == pytest.approx(highs_gauges(body.gamma, image[None])[0],
                                                   rel=1e-9)
        assert max(gq.verify_witness(body, wit).values()) == 0.0


class TestDispatcher:
    @pytest.mark.parametrize("d,big_n", [(16, 256), (25, 625)])
    def test_corollary_case_split(self, d, big_n):
        # log N >= sqrt(d) at both grid points: the l2 branch must fire and
        # deliver a witness of dimension >= floor(c_cal sqrt(d))
        wanted = max(1, int(np.floor(0.25 * np.sqrt(d))))
        hits = 0
        for i in range(50):
            body = gq.make_body(d, big_n, seed(130 + d, i))
            kind, wit = gq.corollary_dispatch(body, seed(131 + d, i))
            assert kind == ("l1" if np.log(big_n) < np.sqrt(d) else "l2")
            dim = wit.k if kind == "l1" else wit.h
            if dim >= wanted:
                hits += 1
        assert hits >= 45

    def test_l1_branch_fires_for_small_log(self):
        body = gq.make_body(36, 24 * 2, seed(140))  # log 48 = 3.87 < 6 = sqrt(36)
        kind, wit = gq.corollary_dispatch(body, seed(140, 1))
        assert kind == "l1"
        assert wit.k >= 1

    def test_stray_keyword_is_type_error_on_both_branches(self):
        for body, kind in ((gq.make_body(4, 64, seed(3)), "l2"),
                           (gq.make_body(36, 48, seed(140)), "l1")):
            assert gq.corollary_dispatch(body, seed(3, 1))[0] == kind
            with pytest.raises(TypeError):
                gq.corollary_dispatch(body, seed(3, 1), retries=4)


# Witness files written before the sample counts became fixed carry them as
# constants (iso_samples 1000, section_samples 256); they still load and
# re-verify. kind: (body dims, body seed, file payload)
_OLD_FORMAT_WITNESSES = {
    "l1": ((8, 16), 1, {
        "kind": "l1", "indices": [1, 2], "seed": {"master_seed": 1, "stream_index": 3},
        "basis": ("8 2\n"
                  "0.14775448357672172 -0.18783131486360782\n"
                  "0.097384957341284523 -0.20446812140345486\n"
                  "-0.0037625734796018348 0.31893022725820047\n"
                  "0.28365806814389688 -0.53229903470247053\n"
                  "0.23178525264084474 0.59083199622160354\n"
                  "0.83290625195316226 0.0096351796545997119\n"
                  "0.069725488207538613 -0.37468017290334932\n"
                  "0.36863241107378375 0.21975649221157489\n"),
        "constants": {
            "compl_constant": 1.2249038871436975,
            "iso_constant": 1.0000000000000009,
            "iso_samples": 1000,
            "max_leak": 0.6854703751455152,
            "sigma_min": 0.9368484110099385,
        },
    }),
    "l2": ((4, 64), 3, {
        "kind": "l2", "indices": [], "seed": {"master_seed": 3, "stream_index": 1},
        "basis": ("4 2\n"
                  "-0.58012486442946365 -0.53716841108101199\n"
                  "0.11315675625081667 0.69034649156399619\n"
                  "-0.19178099655648964 0.078341275509572178\n"
                  "0.78349903608446736 -0.47826192015831187\n"),
        "constants": {
            "compl_constant": 1.2165184495229986,
            "distortion": 1.2293436068655548,
            "max_gauge": 1.1209939541601175,
            "min_gauge": 0.9118638173246817,
            "proj_image_radius": 1.2464847019896437,
            "section_samples": 256,
        },
    }),
}


@pytest.mark.parametrize("kind", _OLD_FORMAT_WITNESSES)
def test_old_format_witness_loads_and_reverifies(tmp_path, kind):
    (n, big_n), body_seed, payload = _OLD_FORMAT_WITNESSES[kind]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    wit = gq.load_witness(path)
    assert max(gq.verify_witness(gq.make_body(n, big_n, seed(body_seed)), wit).values()) <= 1e-9


@pytest.mark.parametrize("kind", _OLD_FORMAT_WITNESSES)
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_witness_constant_is_io_error(tmp_path, kind, token):
    payload = _OLD_FORMAT_WITNESSES[kind][2]
    key = "distortion" if kind == "l2" else "iso_constant"
    path = tmp_path / "wit.json"
    path.write_text(json.dumps({**payload, "constants": {**payload["constants"], key: float(token)}}))
    assert token in path.read_text()
    with pytest.raises(gq.IoError, match=f"{key}' must be a finite number") as err:
        gq.load_witness(path)
    assert err.value.path == str(path)
