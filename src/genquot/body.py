"""The random body B = absconv{g_1,...,g_N} = Gamma(B_1^N) and its functionals.

A body is the n x N matrix Gamma whose columns are i.i.d. N(0, Id/n) Gaussian
vectors; the norm it induces on R^n has B as unit ball. The gauge is computed
exactly as the minimum l1 preimage norm: one equality-form LP over
[Gamma, -Gamma] (variables split into positive and negative parts), started
from a crash basis of the n columns with the largest |<x, g_j>|. The dual
norm is the support function max_j |<g_j, u>|, a plain matrix product.

For low dimensions the convex hull of {+-g_j} (one Qhull call per body)
gives the exact volume of B and, through its facets, the vertices of the
polar body, so a batch of gauges is a single max of inner products and the
inradius is exact (the polar vertex of largest norm). Both gauge routes
agree to LP tolerance and are cross-checked in the test suite.
Every gauge LP goes through linprog.solve_l1, which runs a batch of them
in lock-step from crash bases (body_norm_many above that dimension); this
module chooses the points and cutoffs. The inradius estimate above the hull
cap walks the edges of the polar body from the dual vertex of a gauge LP to
a locally farthest vertex; sigma_min(Gamma) / sqrt(N) is a certified floor
under it.
At every dimension the max-of-gauges kernel behind operator_norm first
prunes the images whose gauge an l1 representation proves below the best LP
value (the floor turns an inexact representation into a bound), and solves
the rest in solve_l1 batches with an objective cutoff.

Bodies are immutable after construction; every operation here is a read-only
pure function (Monte Carlo ones of their SeedSpec too) and safe to call from
any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IoError, NotInSpan, NumericError, UsageError
from .linalg import (_inverses, as_matrix, as_vector, format_matrix, parse_matrix, read_text,
                     singular_values, write_text)
from .linprog import _GAUGE_TOL, _ITER_CAP, _REFACTOR_EVERY, LPSolution, solve_l1
from .sampler import HaarSubspace, SeedSpec, gaussian_matrix, generator

__all__ = [
    "RandomQuotientBody",
    "RadiiEstimate",
    "make_body",
    "body_from_matrix",
    "body_norm",
    "body_norm_with_dual",
    "body_norm_many",
    "dual_norm",
    "dual_norm_many",
    "operator_norm",
    "radii",
    "mean_width",
    "volume_ratio",
    "section_distortion",
    "format_body",
    "parse_body",
    "save_body",
    "load_body",
]

_RANK_TOL = 1e-8
_HULL_DIM_CAP = 6  # batch gauge uses the polar facets up to this dimension, LPs above
_LOCKSTEP_ROWS = 512  # body_norm_many: rows per lock-step batch (bounds its memory)
VOLUME_DIM_CAP = 8
_DESCENT_STEPS = 100  # radii: subgradient steps per restart before the polar walk
_DESCENT_DECAY = 0.97  # radii: step-size factor per descent step
_IRLS_STEPS = 4  # _max_gauge's certificate pass: reweighted steps after the minimum-norm start
_IRLS_FLOOR = 1e-3  # reweighting: w_j = |t_j| + _IRLS_FLOOR * max|t|


@dataclass(frozen=True)
class RandomQuotientBody:
    """Immutable body data: Gamma, its provenance seed, cached column norms
    and its smallest singular value."""

    n: int
    N: int
    gamma: np.ndarray
    seed: SeedSpec
    column_norms: np.ndarray
    sigma_min: float

    @cached_property
    def circumradius(self) -> float:
        return float(self.column_norms.max())

    @cached_property
    def inradius_floor(self) -> float:
        """sigma_min(Gamma) / sqrt(N), a certified lower bound on the inradius:
        for unit u, max_j |<g_j, u>| >= |Gamma^T u|_2 / sqrt(N) >= sigma_min / sqrt(N)."""
        return self.sigma_min / math.sqrt(self.N)

    @cached_property
    def hull(self):
        """Qhull's convex hull of {+-g_j} (n >= 2), shared by polar_vertices
        and volume_ratio. Only sensible for small n (facet counts explode
        with dimension).
        """
        from scipy.spatial import ConvexHull

        return ConvexHull(np.vstack([self.gamma.T, -self.gamma.T]))

    @cached_property
    def polar_vertices(self) -> np.ndarray:
        """Rows w with B = {x : <w, x> <= 1 for all w}; exact polar V-description."""
        if self.n == 1:
            r = self.circumradius
            return np.array([[1.0 / r], [-1.0 / r]])
        normals = self.hull.equations[:, :-1]
        offsets = -self.hull.equations[:, -1]
        if np.any(offsets <= 0):  # pragma: no cover - origin is interior by symmetry
            raise NumericError("convex hull does not contain the origin")
        return normals / offsets[:, None]

    @cached_property
    def plus_minus(self) -> np.ndarray:
        """[Gamma, -Gamma]: the constraint matrix of the full gauge LP."""
        return np.hstack([self.gamma, -self.gamma])


@dataclass(frozen=True)
class RadiiEstimate:
    """Exact circumradius and an upper estimate of the inradius.

    inradius_estimate is the support-function value along the unit vector
    certificate_direction, which can only overestimate the true inradius:
    exact up to dimension _HULL_DIM_CAP, a locally farthest polar vertex
    above (see radii).
    """

    circumradius: float
    inradius_estimate: float
    certificate_direction: np.ndarray


def make_body(n: int, N: int, seed: SeedSpec) -> RandomQuotientBody:
    """Sample the body: Gamma is n x N with i.i.d. N(0, 1/n) entries."""
    if not 1 <= n <= N:
        raise UsageError(f"need 1 <= n <= N, got n={n}, N={N}")
    gamma = gaussian_matrix(n, N, 1.0 / n, seed)
    return body_from_matrix(gamma, seed)


def body_from_matrix(gamma, seed: SeedSpec = SeedSpec(0, 0)) -> RandomQuotientBody:
    """Wrap an explicit column matrix as a body (used for injected test bodies).

    Gamma must have 1 <= n <= N, no zero column (column gauges and witness
    blocks divide by |g_j|) and full rank.
    """
    g = as_matrix(gamma, "gamma")
    n, N = g.shape
    if not 1 <= n <= N:
        raise UsageError(f"need 1 <= n <= N, got n={n}, N={N}")
    norms = np.linalg.norm(g, axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise UsageError(f"column {zero[0]} of gamma (counting from 0) is zero")
    smin = float(singular_values(g)[-1])
    if smin <= _RANK_TOL:
        raise NumericError(
            f"gamma is rank deficient: smallest singular value {smin:.3e} <= {_RANK_TOL:g} "
            f"(n={n}, N={N}, seed={seed.as_tuple()})"
        )
    return RandomQuotientBody(n=n, N=N, gamma=g, seed=seed, column_norms=norms, sigma_min=smin)


def _gauges(body: RandomQuotientBody, pts: np.ndarray,
            cutoff: float | np.ndarray | None = None) -> list[LPSolution]:
    """solve_l1's verdicts on the gauge LPs of the rows of pts over body.plus_minus
    (the LP is bounded below by 0); NotInSpan for a row outside Gamma's column span."""
    sols = solve_l1(body.plus_minus, pts, cutoff)
    if any(sol.status == "infeasible" for sol in sols):
        raise NotInSpan("point lies outside the column span of gamma")
    return sols


def _max_gauge(body: RandomQuotientBody, points: np.ndarray) -> float:
    """max_i ||x_i||_B over the rows x_i of points; the value is an LP objective.

    Every solve is one call of solve_l1 (through _gauges), each row from its
    crash basis, in order of the lower bound ||x_i||_2 / R, largest first.
    The point of largest bound is solved alone and sets best. Right after,
    one _proven_below pass bounds the gauge of every other point by the l1
    cost of a reweighted least-squares preimage, with no LP; a point whose
    bound * (1 + 1e-9) is at most best is never solved, and most points are
    pruned here. The rest are solved together in batches of 2, 4, 8, ... up
    to _LOCKSTEP_ROWS.

    Cut solves: after the first, a solve may stop at a feasible basis S of
    objective <= best (solve_lp's cutoff, tested on the perturbed RHS). The
    cut point x is pruned if the l1 cost ||Gamma_S^-1 x||_1 of S on the exact
    RHS, an upper bound on its gauge, is at most best; otherwise it is solved
    again without a cutoff. best comes only from optimal solves.
    """
    pts = points[np.any(points, axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    order = np.argsort(-np.linalg.norm(pts, axis=1) / body.circumradius, kind="stable")
    unsolved = np.ones(pts.shape[0], dtype=bool)
    cut = np.zeros(pts.shape[0], dtype=bool)
    best = 0.0
    size = 1
    while True:
        idx = order[unsolved[order]][:size]
        if idx.size == 0:
            return best
        first = best == 0.0  # the first solve: alone, never cut, then the certificate pass
        sols = _gauges(body, pts[idx], np.where(cut[idx] | first, -np.inf, best))
        size = min(2 * size, _LOCKSTEP_ROWS)
        cut[idx] = [sol.status == "cutoff" for sol in sols]
        unsolved[idx[~cut[idx]]] = False
        best = max([best, *(float(sol.objective_value) for sol in sols if sol.status == "optimal")])
        at = idx[cut[idx]]
        if at.size:
            sets = np.array([sol.basis % body.N for sol in sols if sol.status == "cutoff"])
            inv, usable = _inverses(body.gamma[:, sets].transpose(1, 0, 2))
            cost = np.abs(inv @ pts[at, :, None]).sum(axis=(1, 2))
            unsolved[at[usable & (cost <= best)]] = False
        if first:
            rest = np.flatnonzero(unsolved)
            unsolved[rest] = ~_proven_below(body, pts[rest], best)


def _proven_below(body: RandomQuotientBody, pts: np.ndarray, best) -> np.ndarray:
    """Mask of the rows x of pts whose gauge is proven below best (a number,
    or one per row) with no LP: bound * (1 + 1e-9) <= best for an upper bound
    on ||x||_B.

    Any t gives a bound: ||x||_B <= ||Gamma t||_B + ||x - Gamma t||_B
    <= ||t||_1 + |x - Gamma t|_2 / inradius_floor, since B contains the
    Euclidean ball of that radius. t starts at the minimum-norm preimage
    Gamma^T (Gamma Gamma^T)^-1 x and takes up to _IRLS_STEPS iteratively
    reweighted least-squares steps toward the minimum-l1 one,
    t <- W Gamma^T (Gamma W Gamma^T)^-1 x with W = diag(|t| + _IRLS_FLOOR max|t|);
    a row stops once a bound proves it, or when its bound is not finite.
    Each row and its best are first scaled by the power of two that brings
    max_i |x_i| into [1/2, 1), which is exact, so no bound underflows or
    overflows. Gamma W Gamma^T is one product of the weights with the packed
    outer products g_j g_j^T, and the rows go in chunks of about 2^14
    coefficients per temporary.
    """
    g = body.gamma
    n, big_n = g.shape
    pairs = np.triu_indices(n)
    outer = g[pairs[0]]
    outer *= g[pairs[1]]  # column j: g_j g_j^T packed, so w @ outer.T packs Gamma W Gamma^T
    unpack = np.empty((n, n), dtype=np.int64)
    unpack[pairs] = unpack.T[pairs] = np.arange(pairs[0].size)
    least = np.linalg.solve(g @ g.T, g)  # x @ least is x's minimum-norm preimage
    exp = np.frexp(np.abs(pts).max(axis=1))[1]
    x, limit = np.ldexp(pts, -exp[:, None]), np.ldexp(best, -exp)
    proven = np.zeros(pts.shape[0], dtype=bool)
    step = max(1, (1 << 14) // max(big_n, n * n))
    for lo in range(0, pts.shape[0], step):
        rows = np.arange(lo, min(lo + step, pts.shape[0]))
        xr = x[rows]
        t = xr @ least
        for k in range(_IRLS_STEPS + 1):
            if k:
                w = np.abs(t)
                w += _IRLS_FLOOR * w.max(axis=1, keepdims=True)
                try:
                    z = np.linalg.solve((w @ outer.T)[:, unpack], xr[:, :, None])[:, :, 0]
                except np.linalg.LinAlgError:  # an exactly singular system proves nothing more
                    break
                t = w * (z @ g)
            bound = (np.abs(t).sum(axis=1)
                     + np.linalg.norm(xr - t @ g.T, axis=1) / body.inradius_floor)
            done = bound * (1 + 1e-9) <= limit[rows]
            proven[rows[done]] = True
            keep = ~done & np.isfinite(bound)
            rows, xr, t = rows[keep], xr[keep], t[keep]
            if rows.size == 0:
                break
    return proven


def body_norm_with_dual(body: RandomQuotientBody, x) -> tuple[float, np.ndarray]:
    """Gauge of B at x together with the optimal dual vector y.

    y satisfies <x, y> = ||x||_B and max_j |<g_j, y>| <= 1 (+LP tolerance), i.e.
    it is the support-duality witness.
    """
    v = as_vector(x, "x")
    if v.size != body.n:
        raise UsageError(f"vector dimension {v.size} != body dimension {body.n}")
    if not np.any(v):
        return 0.0, np.zeros(body.n)
    sol = _gauges(body, v[None])[0]
    return float(sol.objective_value), sol.dual_point


def body_norm(body: RandomQuotientBody, x) -> float:
    """Exact gauge ||x||_B = min{||t||_1 : Gamma t = x} within LP tolerances."""
    return body_norm_with_dual(body, x)[0]


def body_norm_many(body: RandomQuotientBody, xs) -> np.ndarray:
    """Gauge of each row of xs.

    Up to dimension _HULL_DIM_CAP it is a max over the polar facets. Above,
    each gauge is an LP objective: the nonzero rows are solved by solve_l1
    in batches of _LOCKSTEP_ROWS, each row from its crash basis, as
    body_norm solves it. A gauge does not depend on the other rows or their
    order, and it has the bytes of body_norm.
    """
    pts = as_matrix(xs, "points")
    if pts.shape[1] != body.n:
        raise UsageError(f"points have dimension {pts.shape[1]}, body has {body.n}")
    if body.n <= _HULL_DIM_CAP:
        return np.maximum(pts @ body.polar_vertices.T, 0.0).max(axis=1)
    gauges = np.zeros(pts.shape[0])
    nonzero = np.flatnonzero(np.any(pts, axis=1))
    for lo in range(0, nonzero.size, _LOCKSTEP_ROWS):
        idx = nonzero[lo:lo + _LOCKSTEP_ROWS]
        gauges[idx] = [sol.objective_value for sol in _gauges(body, pts[idx])]
    return gauges


def dual_norm(body: RandomQuotientBody, u) -> float:
    """Support function h_B(u) = max_j |<g_j, u>| (the dual norm of the gauge)."""
    v = as_vector(u, "u")
    if v.size != body.n:
        raise UsageError(f"vector dimension {v.size} != body dimension {body.n}")
    return float(np.max(np.abs(v @ body.gamma)))


def dual_norm_many(body: RandomQuotientBody, us) -> np.ndarray:
    pts = as_matrix(us, "points")
    if pts.shape[1] != body.n:
        raise UsageError(f"points have dimension {pts.shape[1]}, body has {body.n}")
    p = pts @ body.gamma
    # max |p| without an |p| copy; + 0.0 gives a zero row the +0.0 of |p|, not -0.0
    return np.maximum(p.max(axis=1), -p.min(axis=1)) + 0.0


def operator_norm(body: RandomQuotientBody, t) -> float:
    """||T: X_n -> X_n|| = max_j ||T g_j||_B, exact on the hull's extreme points.

    The maximum runs through _max_gauge: the image of largest lower bound
    |T g_j| / R is solved first, by the scalar LP; then images whose gauge an
    l1 representation found by reweighted least squares proves below that
    value are pruned with no LP. The rest are solved largest lower bound
    first in lock-step batches of 2, 4, 8, ... images, each from its crash
    basis. A solve stops early (is cut) once its basis cannot beat the best
    gauge; a cut image is then pruned by the l1 cost of that basis or solved
    again. The result is the objective of one of the LPs solved to optimality.
    """
    tm = as_matrix(t, "T")
    if tm.shape != (body.n, body.n):
        raise UsageError(f"T must be {body.n}x{body.n}, got {tm.shape}")
    return _max_gauge(body, (tm @ body.gamma).T)


def _max_on_line(unit: np.ndarray, points: np.ndarray, gauge: float) -> float:
    """max gauge over points (rows) on the line of the unit vector `unit`,
    given gauge = ||unit||_B: the gauge is homogeneous, ||c unit||_B = |c| gauge."""
    return float(np.max(np.abs(unit @ points.T)) * gauge)


def _column_gauge(body: RandomQuotientBody, j: int) -> float:
    """||g_j||_B. The feasible t = e_j costs 1, and y = g_j / |g_j|^2 has <g_j, y> = 1:
    if max_i |<g_i, y>| <= 1 + _GAUGE_TOL (the dual tolerance of every gauge LP's
    certificate), the pair proves the gauge is 1.0 with no gap. Otherwise g_j's LP
    is solved."""
    g = body.gamma[:, j]
    if np.abs((g / body.column_norms[j] ** 2) @ body.gamma).max() <= 1.0 + _GAUGE_TOL:
        return 1.0
    return float(_gauges(body, g[None])[0].objective_value)


# ---------------------------------------------------------------------------
# radii
# ---------------------------------------------------------------------------


def _inradius_descent(body: RandomQuotientBody, restarts: int, seed: SeedSpec,
                      steps: int = 500) -> tuple[float, np.ndarray]:
    u = _unit_sphere(generator(seed), restarts, body.n)
    mean_col = float(np.mean(body.column_norms))
    step = 0.3 / max(mean_col, 1e-12)
    best_val = np.full(restarts, np.inf)
    best_dir = u.copy()
    at_row = np.arange(restarts) * body.N  # flat index of row i, column 0 of proj
    gamma_t = np.ascontiguousarray(body.gamma.T)
    proj = np.empty((restarts, body.N))
    mag = np.empty_like(proj)
    for _ in range(steps):
        np.matmul(u, body.gamma, out=proj)
        np.abs(proj, out=mag)
        j = mag.argmax(axis=1)
        at = at_row + j
        vals = mag.take(at)
        np.copyto(best_dir, u, where=(vals < best_val)[:, None])
        np.minimum(best_val, vals, out=best_val)
        grad = gamma_t.take(j, axis=0)
        grad *= np.sign(proj.take(at))[:, None]  # exact: a sign flip
        grad *= step
        u -= grad
        # the floating-point operations of np.linalg.norm(u, axis=1), without its overhead
        u /= np.sqrt(np.add.reduce(u * u, axis=1))[:, None]
        step *= _DESCENT_DECAY
    proj = u @ body.gamma
    vals = np.max(np.abs(proj), axis=1)
    improved = vals < best_val
    best_val[improved] = vals[improved]
    best_dir[improved] = u[improved]
    k = int(np.argmin(best_val))
    direction = best_dir[k]
    return float(np.max(np.abs(direction @ body.gamma))), direction


def _polar_walk(body: RandomQuotientBody, u: np.ndarray) -> np.ndarray:
    """A locally farthest vertex w of the polar body P = {w : |Gamma^T w| <= 1}.

    The start is the optimal dual y of u's gauge LP, a vertex of P with
    |y| >= <u/|u|, y> = ||u||_B / |u|; its basis labels give the n tight
    rows, A w = 1, and the n edges of P at w are the columns of D = -A^-1.
    Each step runs the ratio test of every edge over all 2N constraints at
    once, through Gamma^T D (N x n), and moves to the edge end of largest
    norm; the walk stops when no end is farther by a relative 1e-12. D and
    Gamma^T D follow the pivots by rank-1 (Sherman-Morrison) updates, the row
    of the entering constraint being a row of Gamma^T D, and are refactored
    every _REFACTOR_EVERY pivots. After _ITER_CAP * n pivots the walk ends
    where it is; on a numerically singular basis or a non-finite step it
    returns the start. Maximizing a norm over a polytope is NP-hard
    (Mangasarian and Shiau 1986): the result is a local maximum only.
    """
    sol = _gauges(body, u[None])[0]
    cols = sol.basis % body.N
    signs = np.where(sol.basis < body.N, 1.0, -1.0)
    at = np.arange(body.n)
    start = sol.dual_point
    for pivot in range(_ITER_CAP * body.n + 1):
        if pivot % _REFACTOR_EVERY == 0:
            inv, usable = _inverses((signs * body.gamma[:, cols]).T[None])
            if not usable[0]:
                return start
            d = -inv[0]
            q = body.gamma.T @ d  # <g_j, d_i>
            w = -d.sum(axis=1)  # A^-1 1
            p = w @ body.gamma
        # edge i reaches |<g_j, w + t d_i>| = 1 at t = (1 - sign(q_ji) p_j) / |q_ji|,
        # and never where q_ji = 0 (t = 1 / 0 = inf)
        ratios = np.sign(q)
        ratios *= p[:, None]
        np.subtract(1.0, ratios, out=ratios)
        np.maximum(ratios, 0.0, out=ratios)
        with np.errstate(divide="ignore"):
            ratios /= np.abs(q)
        own = ratios[cols, at]  # edge i meets its own row's opposite face
        ratios[cols] = np.inf  # the other tight rows stay tight along edge i
        ratios[cols, at] = own
        j = ratios.argmin(axis=0)
        t = ratios[j, at]
        gain = t * (2.0 * (w @ d) + t * np.einsum("ij,ij->j", d, d))  # |w + t d_i|^2 - |w|^2
        i = int(np.argmax(gain))
        w_sq = float(w @ w)
        if not np.isfinite(gain[i]):
            return start
        if w_sq + gain[i] <= w_sq * (1.0 + 1e-12) ** 2:
            break
        k = int(j[i])
        sign = math.copysign(1.0, q[k, i])
        w = w + t[i] * d[:, i]
        p = p + t[i] * q[:, i]
        row = -sign * q[k]  # a^T A^-1 for the entering row a = sign * g_k
        row[i] -= 1.0
        row /= -sign * q[k, i]
        d -= np.outer(d[:, i], row)
        q -= np.outer(q[:, i], row)
        cols[i], signs[i] = k, sign
    return w


def _walked_inradius(body: RandomQuotientBody, restarts: int,
                     seed: SeedSpec) -> tuple[float, np.ndarray]:
    """Support value and unit direction of a locally farthest polar vertex,
    walked from the best direction of a _DESCENT_STEPS-step descent; never
    above that descent's value."""
    value, u = _inradius_descent(body, restarts, seed, steps=_DESCENT_STEPS)
    w = _polar_walk(body, u)
    walked = w / np.linalg.norm(w)
    walked_value = dual_norm(body, walked)
    return (walked_value, walked) if walked_value < value else (value, u)


def radii(body: RandomQuotientBody, restarts: int = 64, seed: SeedSpec | None = None) -> RadiiEstimate:
    """Circumradius (exact) and an upper estimate of the inradius.

    The inradius is r = 1 / max{|w| : w in P} over the polar body
    P = {w : |Gamma^T w| <= 1}, whose farthest point is a vertex w: the
    nearest facet of B is at distance 1/|w| along w/|w|. Up to dimension
    _HULL_DIM_CAP that vertex is read off the hull's polar facets, and r is
    exact. Above, projected subgradient descent on the support function over
    the sphere (restarts starts, _DESCENT_STEPS steps each) gives a direction
    u, and _polar_walk climbs from the dual vertex of u's gauge LP to a
    locally farthest vertex; the estimate is the support value along it (or
    along u, if that is smaller), an upper bound on r. A seed is required
    for n >= 3 on either route.
    """
    if restarts < 1:
        raise UsageError("restarts must be >= 1")
    if body.n >= 3 and seed is None:
        raise UsageError("radii requires a SeedSpec for n >= 3 (stochastic restarts)")
    if body.n <= _HULL_DIM_CAP:
        w = body.polar_vertices[np.argmax(np.linalg.norm(body.polar_vertices, axis=1))]
        u = w / np.linalg.norm(w)
        return RadiiEstimate(body.circumradius, dual_norm(body, u), u)
    val, u = _walked_inradius(body, restarts, seed)
    return RadiiEstimate(body.circumradius, val, u)


# ---------------------------------------------------------------------------
# volume and Monte Carlo functionals
# ---------------------------------------------------------------------------


def _unit_sphere(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    x = rng.normal(size=(count, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def mean_width(body: RandomQuotientBody, samples: int, seed: SeedSpec) -> tuple[float, float]:
    """Sphere average of the dual norm (the mean width functional M*)."""
    if samples < 100:
        raise UsageError(f"mean_width needs >= 100 samples, got {samples}")
    rng = generator(seed)
    chunk = max(1, min(samples, (1 << 22) // max(body.N, 1)))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        vals = dual_norm_many(body, _unit_sphere(rng, take, body.n))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += take
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, float(np.sqrt(var / samples))


def volume_ratio(body: RandomQuotientBody, *_legacy) -> float:
    """(vol B / vol D_n)^(1/n), with vol B the exact volume of body.hull
    (Qhull, up to rounding) and vol D_n = pi^(n/2) / Gamma(n/2 + 1). At
    n = 1, B is the segment [-R, R] and the ratio is its circumradius R.

    Extra positional arguments (the sample count and seed of the former
    rejection-sampling estimator) are accepted and ignored.
    """
    if body.n > VOLUME_DIM_CAP:
        raise UsageError(f"volume_ratio is capped at n <= {VOLUME_DIM_CAP}, got n={body.n}")
    if body.n == 1:
        return body.circumradius
    ball = math.pi ** (body.n / 2) / math.gamma(body.n / 2 + 1)
    return float((body.hull.volume / ball) ** (1.0 / body.n))


def section_distortion(body: RandomQuotientBody, subspace: HaarSubspace, samples: int,
                       seed: SeedSpec) -> tuple[float, float]:
    """Max and min gauge over sampled unit directions inside the subspace.

    max/min is a lower bound on the true section distortion (sampling misses
    extremes). A 1-dimensional subspace gives max = min exactly.
    """
    if subspace.ambient_dim != body.n:
        raise UsageError(
            f"subspace ambient dimension {subspace.ambient_dim} != body dimension {body.n}"
        )
    if subspace.dim == 1:
        val = body_norm(body, subspace.basis[:, 0])
        return val, val
    if samples < 2:
        raise UsageError("need at least 2 samples")
    rng = generator(seed)
    w = _unit_sphere(rng, samples, subspace.dim)
    dirs = w @ subspace.basis.T
    gauges = body_norm_many(body, dirs)
    return float(gauges.max()), float(gauges.min())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_HEADER = "GENQUOT-BODY v1"


def format_body(body: RandomQuotientBody) -> str:
    ms, si = body.seed.as_tuple()
    return f"{_HEADER} {body.n} {body.N} {ms} {si}\n" + format_matrix(body.gamma)


def parse_body(text: str, source="<string>") -> RandomQuotientBody:
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_HEADER):
        raise IoError(source, f"missing '{_HEADER}' header")
    tokens = lines[0].split()
    if len(tokens) != 6:
        raise IoError(source, f"malformed body header {lines[0]!r}")
    try:
        n, big_n, ms, si = (int(t) for t in tokens[2:])
    except ValueError as exc:
        raise IoError(source, f"non-integer body header field: {exc}") from exc
    if not 1 <= n <= big_n:
        raise IoError(source, f"body header needs 1 <= n <= N, got n={n}, N={big_n}")
    gamma = parse_matrix("\n".join(lines[1:]), source)
    if gamma.shape != (n, big_n):
        raise IoError(source, f"header says {n}x{big_n}, matrix is {gamma.shape}")
    try:
        return body_from_matrix(gamma, SeedSpec(ms, si))
    except UsageError as exc:  # a zero column
        raise IoError(source, str(exc)) from exc


def save_body(body: RandomQuotientBody, path) -> None:
    write_text(path, format_body(body), "body")


def load_body(path) -> RandomQuotientBody:
    return parse_body(read_text(path, "body"), path)
