"""Dense real linear algebra primitives: SVD, orthonormalization and the
golden-section line search of the shift search.

Everything operates on plain float64 numpy arrays (matrices are 2-d,
column-oriented where a basis is meant). The text serialization here is the
repo-wide matrix exchange format: a "rows cols" header line followed by one
line per row with entries printed to 17 significant digits, which round-trips
float64 exactly. Every genquot file (body, matrix, witness, report, thresholds,
config) is ASCII text read and written through read_text and write_text, so
a file that cannot be opened or decoded is an IoError naming it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IoError, NumericError, UsageError

__all__ = [
    "SvdResult",
    "OrthoResult",
    "svd",
    "singular_values",
    "orthonormalize",
    "format_matrix",
    "parse_matrix",
    "write_matrix",
    "read_matrix",
    "as_matrix",
    "as_vector",
    "golden_min",
]

_DROP_TOL = 1e-10  # orthonormalize: relative residual below which a vector is dropped
_ORTHO_TOL = 1e-10  # check_orthonormal: largest |B^T B - I| entry accepted
_INVERSE_RESIDUAL = 1e-8  # _inverses: an inverse missing the identity by more is unusable


def golden_min(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Golden-section search for a minimum of f on [a, b]: the best point
    evaluated and its value. 70 steps shrink the bracket by a factor 2e-15."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_v = (c, fc) if fc <= fd else (d, fd)
    for _ in range(70):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
            if fc < best_v:
                best_x, best_v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
            if fd < best_v:
                best_x, best_v = d, fd
    return best_x, best_v


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-d array, raising NumericError otherwise."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise UsageError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise NumericError(f"{name} contains non-finite entries")
    return a


def as_vector(x, name: str = "vector") -> np.ndarray:
    a = np.asarray(x, dtype=float).reshape(-1)
    if a.size and not np.all(np.isfinite(a)):
        raise NumericError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD M = U diag(S) V^T with U, V holding orthonormal columns.

    singular_values is non-increasing and non-negative; the factors reproduce
    M to 1e-10 * (1 + ||M||_F), as the backing LAPACK driver guarantees.
    """

    left_basis: np.ndarray
    singular_values: np.ndarray
    right_basis: np.ndarray


@dataclass(frozen=True)
class OrthoResult:
    """Orthonormal column basis plus the count of dependent inputs dropped."""

    basis: np.ndarray
    dropped: int


def _inverses(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack of square matrices, and a mask of the usable ones.
    A singular matrix (an exact zero pivot, on which np.linalg.inv raises),
    or one whose inverse misses the identity by more than _INVERSE_RESIDUAL
    (a numerically singular one), is not usable."""
    eye = np.eye(mats.shape[-1])
    try:
        inv, regular = np.linalg.inv(mats), True
    except np.linalg.LinAlgError:
        regular = np.linalg.slogdet(mats)[0] != 0
        inv = np.linalg.inv(np.where(regular[:, None, None], mats, eye))
    residual = np.abs(inv @ mats - eye).max(axis=(1, 2))
    return inv, regular & (residual <= _INVERSE_RESIDUAL)


def svd(m) -> SvdResult:
    """Full-accuracy thin SVD of a dense matrix.

    Raises NumericError on non-finite input or (exceptionally) LAPACK
    non-convergence.
    """
    a = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc
    return SvdResult(left_basis=u, singular_values=s, right_basis=vt.T)


def singular_values(a: np.ndarray) -> np.ndarray:
    """np.linalg.svd(a, compute_uv=False) of a matrix or a stack of them, with
    no input check; LAPACK non-convergence is a NumericError, as in svd."""
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc


def orthonormalize(vectors: Sequence) -> OrthoResult:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    `vectors` is a sequence of equal-length 1-d arrays (or a 2-d array whose
    *columns* are the vectors). Vectors whose residual after projection falls
    below _DROP_TOL * (largest input norm) are dropped and counted.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        cols = [vectors[:, j] for j in range(vectors.shape[1])]
    else:
        cols = [as_vector(v, "input vector") for v in vectors]
    if not cols:
        raise UsageError("orthonormalize requires at least one vector")
    d = cols[0].size
    for v in cols:
        if v.size != d:
            raise UsageError("all vectors must share the same dimension")

    scale = max(float(np.linalg.norm(v)) for v in cols)
    if scale == 0.0:
        return OrthoResult(basis=np.empty((d, 0)), dropped=len(cols))
    cutoff = _DROP_TOL * scale

    basis: list[np.ndarray] = []
    dropped = 0
    for v in cols:
        w = np.array(v, dtype=float)
        for _ in range(2):  # second pass restores orthogonality to ~1e-15
            for q in basis:
                w -= q * (q @ w)
        nrm = float(np.linalg.norm(w))
        if nrm <= cutoff:
            dropped += 1
            continue
        basis.append(w / nrm)
    q = np.column_stack(basis) if basis else np.empty((d, 0))
    return OrthoResult(basis=q, dropped=dropped)


def check_orthonormal(basis: np.ndarray, name: str = "basis") -> np.ndarray:
    b = as_matrix(basis, name)
    gram = b.T @ b
    if gram.shape[0] and np.max(np.abs(gram - np.eye(gram.shape[0]))) > _ORTHO_TOL:
        raise UsageError(f"{name} columns are not orthonormal to {_ORTHO_TOL:g}")
    return b


# ---------------------------------------------------------------------------
# Text files and the matrix text format (repo-wide exchange format)
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def format_matrix(m) -> str:
    a = as_matrix(m)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, source="<string>") -> np.ndarray:
    """Parse the matrix text format; errors are IoErrors naming source."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise IoError(source, "empty matrix text")
    try:
        rows, cols = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise IoError(source, f"bad matrix header {lines[0]!r}") from exc
    if len(lines) - 1 != rows:
        raise IoError(source, f"expected {rows} data lines, found {len(lines) - 1}")
    data = np.empty((rows, cols))
    for i, ln in enumerate(lines[1:]):
        vals = ln.split()
        if len(vals) != cols:
            raise IoError(source, f"row {i} has {len(vals)} entries, expected {cols}")
        try:
            data[i] = [float(t) for t in vals]
        except ValueError as exc:
            raise IoError(source, f"row {i} has a non-numeric entry: {exc}") from exc
        bad = np.flatnonzero(~np.isfinite(data[i]))
        if bad.size:
            raise IoError(source, f"row {i} has a non-finite entry {vals[bad[0]]!r}")
    return as_matrix(data, "parsed matrix")


def write_matrix(m, path) -> None:
    write_text(path, format_matrix(m), "matrix")


def read_matrix(path) -> np.ndarray:
    return parse_matrix(read_text(path, "matrix"), path)


def read_text(path, what: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(path, f"cannot read {what}: {exc}") from exc


def write_text(path, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(path, f"cannot write {what}: {exc}") from exc


def read_json(path, what: str):
    try:
        return json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise IoError(path, f"malformed {what} JSON: {exc}") from exc


def json_field(data, key: str, kind: type | tuple, path, what: str):
    """data[key] if data is an object holding a value of type kind (bools are
    not numbers); anything else is an IoError naming the file."""
    value = data.get(key) if isinstance(data, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise IoError(path, f"{what} field {key!r} is missing or ill-typed: {value!r}")
    return value
