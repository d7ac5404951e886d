"""s-numbers and Gelfand/Kolmogorov machinery on random quotient norms.

Euclidean s-numbers are singular values (and coincide with Gelfand numbers
between Euclidean spaces). On the quotient norm the Gelfand infimum over
subspaces is intractable, so operators get a certified *bracket* from the
Euclidean sandwich r D <= B <= R D on the certified inradius floor r. The
shift search scans T - lambda*Id over a window sized by the operator norm,
the s-number sum's search over one sized by the nuclear norm, using
Euclidean s-numbers as proxy objective. The scans find the exact grid minimum from the SVDs of a few
grid shifts: by Weyl's inequality s_k(T - lambda*Id) is 1-Lipschitz in
lambda (the s-number sum n-Lipschitz), which rules the other shifts out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .body import RandomQuotientBody, body_norm_many, dual_norm_many, operator_norm
from .errors import UsageError
from .linalg import as_matrix, check_orthonormal, golden_min, singular_values, svd
from .sampler import HaarSubspace, generator

__all__ = [
    "SNumberBracket",
    "ShiftSearchResult",
    "GelfandSumResult",
    "MnWitness",
    "euclidean_s_numbers",
    "gelfand_bracket",
    "min_over_shifts",
    "gelfand_sum_bracket",
    "mn_witness_check",
    "hs_of_normalized",
]

_CERT_SAMPLES = 64
_GRID_POINTS = 201  # shift-search grid size (min_over_shifts' default)
_STACK_ENTRIES = 1 << 15  # matrix entries per stacked SVD of shifted operators (bounds its memory)
_SCAN_STRIDE = 16  # the shift scan's first stacked SVD takes every 16th grid point
_SCAN_BATCH = 16  # unpruned grid points per further stacked SVD of the scan
_SCAN_SLACK = 1e-9  # pruning slack per unit of lipschitz * (|T|_F + window); far above rounding


@dataclass(frozen=True)
class SNumberBracket:
    """Lower/upper bound pair for a Gelfand number, with certificate kinds.

    Kinds are "exact" (both sides 0, when s_k = 0) or "certified" (the
    sandwich on the certified inradius floor). upper_certificate, despite its
    name, is a sampled max of ||Tz|| / ||z|| over a codim-(k-1) subspace: a
    *lower* estimate of that restricted norm (which bounds c_k from above),
    so no certificate. It is diagnostic and never tightens the bracket.
    """

    k: int
    lower: float
    upper: float
    lower_kind: str
    upper_kind: str
    upper_certificate: float | None = None


@dataclass(frozen=True)
class ShiftSearchResult:
    """Outcome of minimizing the s-number proxy over shifts T - lambda*Id.

    grid holds the (shift, proxy value) pairs the scan evaluated, in shift
    order: both window ends, 0, the trace mean and the candidates for the
    minimum. The shifts left out were proven not to hold it. Only tests read grid.
    """

    best_shift: float
    best_value: float
    bracket_at_best: SNumberBracket
    grid: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class GelfandSumResult:
    """Traceless reduction plus the best shifted Euclidean s-number sum."""

    traceless_shift: float
    best_shift: float
    sum_value: float


@dataclass(frozen=True)
class MnWitness:
    """Witness record for membership in M_n(alpha, beta).

    achieved is the smallest singular value of P_{F-perp} T restricted to F;
    the witness certifies membership exactly when achieved >= beta.
    """

    subspace_basis: np.ndarray
    alpha: int
    beta: float
    achieved: float

    @property
    def is_member(self) -> bool:
        return self.achieved >= self.beta


def euclidean_s_numbers(t) -> np.ndarray:
    """Singular values of T, non-increasing; Gelfand numbers on Euclidean spaces."""
    return svd(t).singular_values


def _restriction_certificate(body: RandomQuotientBody, t: np.ndarray, k: int,
                             right_basis: np.ndarray, dual: bool,
                             samples: int) -> float:
    """Sampled sup of ||Tz|| / ||z|| over the orthocomplement of the top k-1
    right singular directions (a codim k-1 subspace, hence an upper-bound
    witness subspace for the k-th Gelfand number). The norms of all
    directions and of all their images are two batched calls."""
    z_basis = right_basis[:, k - 1:]
    norm_many = dual_norm_many if dual else body_norm_many
    rng = generator(body.seed.child(0xCE27))
    raw = rng.normal(size=(samples, body.n))
    proj = raw @ z_basis @ z_basis.T
    lengths = np.linalg.norm(proj, axis=1)
    keep = lengths > 1e-12
    dirs = np.vstack([z_basis[:, 0], proj[keep] / lengths[keep, None]])
    denom = norm_many(body, dirs)
    usable = denom > 1e-14
    if not usable.any():
        return 0.0
    return float(np.max(norm_many(body, dirs[usable] @ t.T) / denom[usable]))


def gelfand_bracket(body: RandomQuotientBody, t, k: int, dual: bool = False,
                    cert_samples: int = _CERT_SAMPLES) -> SNumberBracket:
    """Bracket [(r/R) s_k, (R/r) s_k] for the k-th Gelfand number of T on X_n,
    with R the exact circumradius and r = body.inradius_floor: the sandwich
    r D <= B <= R D holds for any r up to the inradius, so both ends are certified.
    dual=True brackets the Kolmogorov number instead, via d_k(T) = c_k(T*) on
    the dual (support-function) norm; the sandwich endpoints coincide because
    the polar of r D <= B <= R D is (1/R) D <= B-polar <= (1/r) D.
    """
    tm = as_matrix(t, "T")
    if tm.shape != (body.n, body.n):
        raise UsageError(f"T must be {body.n}x{body.n}, got {tm.shape}")
    if not 1 <= k <= body.n:
        raise UsageError(f"need 1 <= k <= n={body.n}, got k={k}")
    dec = svd(tm)
    sk = float(dec.singular_values[k - 1])
    if sk == 0.0:
        return SNumberBracket(k=k, lower=0.0, upper=0.0, lower_kind="exact",
                              upper_kind="exact", upper_certificate=0.0)
    ratio = body.inradius_floor / body.circumradius
    cert = None
    if cert_samples > 0:
        work = tm.T if dual else tm
        cert = _restriction_certificate(body, work, k, dec.right_basis, dual, cert_samples)
    return SNumberBracket(k=k, lower=ratio * sk, upper=sk / ratio,
                          lower_kind="certified", upper_kind="certified",
                          upper_certificate=cert)


def _shifted_singular_values(t: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Singular values of t - lam*Id, one row per shift lam, from stacked SVDs
    of at most _STACK_ENTRIES matrix entries each: at small n one call per
    shift costs more in call overhead than the decomposition itself. The
    values are the bytes of one np.linalg.svd call per shift."""
    eye = np.eye(t.shape[0])
    block = max(1, _STACK_ENTRIES // t.size)
    return np.concatenate([singular_values(t - lams[lo:lo + block, None, None] * eye)
                           for lo in range(0, lams.size, block)])


def _shift_scan(t: np.ndarray, objective: Callable[[np.ndarray], np.ndarray],
                lipschitz: float, window: float, grid_points: int,
                extra: tuple[float, ...]) -> tuple[float, float, tuple]:
    """Minimize objective(singular values of t - lam*Id) over a grid of shifts
    in [-window, window] (grid_points regular points plus the extra shifts in
    the window), then refine by golden section around the best grid point.

    objective maps the last axis of a singular-value array to the proxy, and
    its value changes by at most lipschitz*|lam - mu| between shifts lam and
    mu. The grid argmin is exact although most grid points are never
    evaluated: a first stacked SVD takes every _SCAN_STRIDE-th point, the last
    point and the extra shifts. Each other point has the lower bound
    max over evaluated mu of v(mu) - lipschitz*|lam - mu|; points whose bound
    exceeds the best value by more than the slack are pruned, and the
    _SCAN_BATCH lowest bounds left go into one more stacked SVD, until no
    point is left. The slack sits far above LAPACK's rounding, so a point that
    could tie the minimum is always evaluated: the first-index argmin, the
    golden-section bracket and every returned byte are those of the full grid.
    Returns the best shift, its value and the evaluated (shift, value) pairs.
    """
    if grid_points < 2:
        raise UsageError(f"shift search needs grid_points >= 2, got {grid_points}")
    lams = list(np.linspace(-window, window, grid_points))
    for lam in extra:
        if -window <= lam <= window and lam not in lams:
            lams.append(lam)
    lams.sort()
    shifts = np.array(lams)
    vals = np.full(shifts.size, np.inf)
    todo = np.zeros(shifts.size, dtype=bool)
    todo[::_SCAN_STRIDE] = todo[-1] = True
    todo |= np.isin(shifts, extra)
    slack = _SCAN_SLACK * lipschitz * (float(np.linalg.norm(t)) + window)
    while todo.any():
        vals[todo] = objective(_shifted_singular_values(t, shifts[todo]))
        seen = np.isfinite(vals)
        open_ = np.flatnonzero(~seen)
        lower = np.max(vals[seen] - lipschitz * np.abs(shifts[open_, None] - shifts[seen]),
                       axis=1)
        keep = lower <= vals.min() + slack
        todo[:] = False
        todo[open_[keep][np.argsort(lower[keep], kind="stable")[:_SCAN_BATCH]]] = True
    seen = np.isfinite(vals)
    grid = tuple((float(lam), float(v)) for lam, v in zip(shifts[seen], vals[seen]))
    i = int(np.argmin(vals))
    best_shift, best_value = float(shifts[i]), float(vals[i])
    if best_value == 0.0:
        return best_shift, best_value, grid  # singular values are >= 0: nothing to refine
    # bracket by the regular spacing: an extra shift may sit a rounding error
    # away from a grid point, and its neighbour would collapse the bracket
    span = 2.0 * window / (grid_points - 1)
    lo, hi = max(best_shift - span, -window), min(best_shift + span, window)
    eye = np.eye(t.shape[0])
    gx, gv = golden_min(lambda lam: float(objective(singular_values(t - lam * eye))), lo, hi)
    if gv < best_value:
        best_shift, best_value = float(gx), float(gv)
    return best_shift, best_value, grid


def min_over_shifts(body: RandomQuotientBody, t, k: int, grid_points: int = _GRID_POINTS,
                    opnorm: float | None = None) -> ShiftSearchResult:
    """Minimize the Euclidean proxy s_k(T - lambda*Id) over a shift window.

    The window is [-2 ||T||_X, +2 ||T||_X]; the grid always contains 0 and the
    trace mean tr(T)/n (exact minimizer for multiples of the identity), and is
    refined by golden section around the best grid point. The returned value
    is an upper bound on the infimum over all real shifts. The bracket at the
    best shift carries no sampled restricted norm (upper_certificate is None).
    """
    tm = as_matrix(t, "T")
    if tm.shape != (body.n, body.n):
        raise UsageError(f"T must be {body.n}x{body.n}, got {tm.shape}")
    if not np.any(tm):
        raise UsageError("shift search needs T != 0 for a meaningful window")
    if not 1 <= k <= body.n:
        raise UsageError(f"need 1 <= k <= n={body.n}, got k={k}")
    q = operator_norm(body, tm) if opnorm is None else float(opnorm)
    trace_mean = float(np.trace(tm)) / body.n
    # Weyl: |s_k(T - lam Id) - s_k(T - mu Id)| <= |lam - mu|
    best_shift, best_value, grid = _shift_scan(tm, lambda s: s[..., k - 1], 1.0, 2.0 * q,
                                               grid_points, (0.0, trace_mean))
    bracket = gelfand_bracket(body, tm - best_shift * np.eye(body.n), k, cert_samples=0)
    return ShiftSearchResult(best_shift=best_shift, best_value=best_value,
                             bracket_at_best=bracket, grid=grid)


def gelfand_sum_bracket(body: RandomQuotientBody, t) -> GelfandSumResult:
    """Best shifted s-number sum: shift to the traceless representative T0,
    then grid-search a further shift minimizing the convex nuclear norm
    f(lambda) = ||T0 - lambda*Id||_* = sum_i s_i(T0 - lambda*Id).

    The window [-w, w], w = ||T0||_* / n, holds every minimizer, as
    f(lambda) >= |tr(T0 - lambda*Id)| = n |lambda| and min f <= f(0): the
    result is the global minimum. best_shift is the total shift (traceless
    part included); the grid contains the relative shifts 0 and, when inside
    the window, -tr(T)/n (total shifts tr(T)/n and 0).
    """
    tm = as_matrix(t, "T")
    if tm.shape != (body.n, body.n):
        raise UsageError(f"T must be {body.n}x{body.n}, got {tm.shape}")
    lam0 = float(np.trace(tm)) / body.n
    t0 = tm - lam0 * np.eye(body.n)
    if not np.any(t0):
        return GelfandSumResult(traceless_shift=lam0, best_shift=lam0, sum_value=0.0)
    window = float(singular_values(t0).sum()) / body.n
    # the nuclear norm of (lam - mu) Id is n |lam - mu|
    rel_shift, best_sum, _ = _shift_scan(t0, lambda s: s.sum(axis=-1), float(body.n),
                                         window, _GRID_POINTS, (0.0, -lam0))
    return GelfandSumResult(traceless_shift=lam0, best_shift=lam0 + rel_shift,
                            sum_value=best_sum)


def mn_witness_check(t, f: HaarSubspace | np.ndarray, beta: float) -> MnWitness:
    """Check the witness condition ||P_{F-perp} T x||_2 >= beta ||x||_2 on F.

    achieved is the exact minimum over unit x in F, i.e. the smallest singular
    value of (Id - B B^T) T B for an orthonormal basis B of F.
    """
    tm = as_matrix(t, "T")
    basis = f.basis if isinstance(f, HaarSubspace) else np.asarray(f, dtype=float)
    b = check_orthonormal(basis, name="witness basis")
    if b.shape[0] != tm.shape[0] or tm.shape[0] != tm.shape[1]:
        raise UsageError(f"T is {tm.shape}, basis ambient dimension {b.shape[0]}")
    m = (tm @ b) - b @ (b.T @ (tm @ b))
    achieved = float(singular_values(m)[-1])
    return MnWitness(subspace_basis=b, alpha=b.shape[1], beta=float(beta),
                     achieved=achieved)


def hs_of_normalized(body: RandomQuotientBody, t) -> tuple[float, float, bool]:
    """Hilbert-Schmidt norm of T normalized to unit operator norm on X_n.

    Returns (hs, sqrt(N), ok); the inequality hs <= sqrt(N) is a theorem for
    operators between quotients of l1^N, so ok must be True on every instance.
    """
    tm = as_matrix(t, "T")
    if not np.any(tm):
        raise UsageError("hs_of_normalized needs T != 0")
    q = operator_norm(body, tm)
    hs = float(np.linalg.norm(tm, "fro")) / q
    bound = float(np.sqrt(body.N))
    return hs, bound, hs <= bound + 1e-6
