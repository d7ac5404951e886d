from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genquot as gq
from genquot.body import parse_body
from genquot.linalg import as_matrix, format_matrix, parse_matrix


def random_matrix(rows, cols, seed):
    return gq.gaussian_matrix(rows, cols, 1.0, gq.SeedSpec(seed, 0))


class TestSvd:
    def test_diagonal(self):
        res = gq.svd(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(res.singular_values, [3.0, 2.0, 1.0])

    def test_zero_matrix(self):
        res = gq.svd(np.zeros((3, 3)))
        assert np.all(res.singular_values == 0.0)

    def test_reconstruction_random(self):
        m = random_matrix(5, 5, 1)
        res = gq.svd(m)
        recon = (res.left_basis * res.singular_values) @ res.right_basis.T
        residual = np.linalg.norm(m - recon, "fro")
        assert residual <= 1e-10 * (1 + np.linalg.norm(m, "fro"))

    def test_orthonormal_factors(self):
        m = random_matrix(7, 4, 5)
        res = gq.svd(m)
        for q in (res.left_basis, res.right_basis):
            gram = q.T @ q
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12

    def test_sorted_nonincreasing(self):
        res = gq.svd(random_matrix(6, 6, 2))
        assert np.all(np.diff(res.singular_values) <= 0)
        assert np.all(res.singular_values >= 0)

    def test_nonfinite_raises(self):
        m = np.eye(3)
        m[1, 1] = np.nan
        with pytest.raises(gq.NumericError):
            gq.svd(m)

    @pytest.mark.parametrize("rows,cols,seed", [(3, 5, 7), (5, 3, 8), (6, 6, 9)])
    def test_transpose_same_spectrum(self, rows, cols, seed):
        m = random_matrix(rows, cols, seed)
        s1 = gq.svd(m).singular_values
        s2 = gq.svd(m.T).singular_values
        k = min(rows, cols)
        assert np.max(np.abs(s1[:k] - s2[:k])) <= 1e-10

    def test_frobenius_identity(self):
        # hs(T)^2 = sum of squared s-numbers
        for seed in range(3):
            m = random_matrix(5, 9, 20 + seed)
            s = gq.svd(m).singular_values
            assert abs(np.linalg.norm(m, "fro") - np.sqrt(np.sum(s**2))) <= 1e-9


class TestOrthonormalize:
    def test_simple_pair(self):
        res = gq.orthonormalize([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        assert res.dropped == 0
        assert np.allclose(np.abs(res.basis), np.eye(2))

    def test_dependent_pair_dropped(self):
        res = gq.orthonormalize([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
        assert res.basis.shape == (2, 1)
        assert res.dropped == 1

    def test_gram_identity_random(self):
        vecs = [gq.gaussian_matrix(8, 1, 1.0, gq.SeedSpec(2, i))[:, 0] for i in range(8)]
        res = gq.orthonormalize(vecs)
        gram = res.basis.T @ res.basis
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-12

    def test_span_preserved(self):
        m = random_matrix(6, 4, 3)
        res = gq.orthonormalize(m)
        # every input column is reproduced by projection onto the output basis
        proj = res.basis @ (res.basis.T @ m)
        assert np.max(np.abs(proj - m)) <= 1e-9 * np.max(np.abs(m))

    def test_empty_raises(self):
        with pytest.raises(gq.UsageError):
            gq.orthonormalize([])


class TestMatrixText:
    def test_known_values_roundtrip(self):
        m = np.array([[0.1, -0.0, 1e-308], [1.7976931348623157e308, -2.5, 3.141592653589793]])
        out = parse_matrix(format_matrix(m))
        assert out.tobytes() == m.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=6, max_size=6))
    def test_roundtrip_bit_exact(self, values):
        m = np.array(values).reshape(2, 3)
        out = parse_matrix(format_matrix(m))
        assert out.tobytes() == m.tobytes()

    def test_file_roundtrip(self, tmp_path):
        m = random_matrix(3, 4, 11)
        path = tmp_path / "m.mtx"
        gq.write_matrix(m, path)
        assert gq.read_matrix(path).tobytes() == m.tobytes()

    def test_bad_header(self):
        with pytest.raises(gq.IoError) as info:
            parse_matrix("not a header\n1 2\n")
        assert info.value.path == "<string>"

    def test_errors_name_the_source(self):
        with pytest.raises(gq.IoError) as info:
            parse_matrix("1 2\n3 x\n", "m.mtx")
        assert info.value.path == "m.mtx" and info.value.message.startswith("row 0 ")
        with pytest.raises(gq.IoError) as info:
            parse_body("GENQUOT-BODY v1 2 3 0 0\n1 1\n1\n", "b.mtx")
        assert info.value.path == "b.mtx"

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(gq.IoError):
            gq.read_matrix(tmp_path / "absent.mtx")


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(gq.UsageError):
        as_matrix(np.zeros(3))


def test_only_linalg_opens_files():
    # every file read or write goes through linalg.read_text / write_text, so
    # the encoding and the IoError naming the file are decided in one place
    openers = []
    for path in sorted(Path(gq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (path.name != "linalg.py" and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id == "open"):
                openers.append(f"{path.name}:{node.lineno}")
    assert openers == []
