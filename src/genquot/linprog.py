"""Dense equality-form linear programming: min c.x s.t. A x = b, x >= 0.

Revised simplex with an explicitly maintained basis inverse (periodically
refactorized), Dantzig pricing over every column, and a switch to Bland's rule
after a degenerate streak as a second line of defense against cycling. The
working RHS carries a tiny deterministic perturbation that removes primal
degeneracy (the l1-gauge instances are extremely degenerate); the reported
point and objective are recomputed from the exact RHS with the final optimal
basis. Phase 1 uses artificial variables; redundant rows discovered there are
eliminated before phase 2. An objective cutoff (as in branch and bound) ends
phase 2 early, status "cutoff", at the first feasible basis no worse than it:
the optimum is no larger. Every pivot choice and every reported float is a
function of the inputs only: ties go to the lowest index, and the pivot loop's
numpy calls are fixed, so identical inputs produce identical pivot paths and
bytes. solve_lp is a pure function of its arguments and thread-safe.

solve_l1 solves the l1 gauge LPs over [G, -G] of a stack of right-hand sides,
from crash bases and in lock-step; every "optimal" verdict of either loop
passes the same closing certificate (_certified), dual feasibility included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .errors import NumericError, SolverStall, UsageError
from .linalg import _inverses, as_matrix, as_vector

__all__ = ["LPProblem", "LPSolution", "solve_lp", "solve_l1"]

_PIV_TOL = 1e-9  # smallest acceptable pivot magnitude in the ratio test
_DEGEN_STREAK = 30  # degenerate pivots tolerated before switching to Bland
_REFACTOR_EVERY = 100  # pivots between basis-inverse refactorizations
_PERTURB = 1e-11  # relative RHS perturbation scale (removes primal degeneracy)
_FEAS_TOL = 1e-9  # primal feasibility tolerance, relative to 1 + max|b|
_PRICE_TOL = 1e-9  # pricing and dual-feasibility tolerance, relative to 1 + max|c|
_GAUGE_TOL = 2 * _PRICE_TOL  # _PRICE_TOL * (1 + max|c|) at c = 1, every gauge LP's tolerance
_GAP_TOL = 1e-8  # relative duality-gap tolerance
_ITER_CAP = 50  # a solve of an m x v LP may take _ITER_CAP * (m + v) pivots


def _perturbed(b: np.ndarray) -> np.ndarray:
    """Deterministically perturbed RHS (of each row, for a stack of RHS rows).
    Gauge LPs are massively primal degenerate (optimal support is tiny), and
    a generic RHS makes every pivot strictly improving, so the simplex cannot
    stall. Reduced costs do not depend on b, hence the final basis stays
    optimal for the true RHS. The perturbation is made on b / 2^e, where
    max|b| lies in [2^(e-1), 2^e), and scaled back; both scalings are exact,
    so it stays relative to b however small b is, and the LP of s * b is the
    LP of b scaled by s for every power of two s."""
    idx = np.arange(b.shape[-1], dtype=np.uint64)
    mix = (idx * np.uint64(2654435761)) % np.uint64(2 ** 32)
    weights = 1.0 + mix.astype(float) / 2.0 ** 32
    exp = np.frexp(np.max(np.abs(b), axis=-1, keepdims=True))[1]
    unit = np.ldexp(b, -exp)
    scale = 1.0 + np.max(np.abs(unit), axis=-1, keepdims=True)
    return np.ldexp(unit + _PERTURB * scale * weights, exp)


def _price_tol(c: np.ndarray) -> float:
    """Pricing and dual-feasibility tolerance of phase 2 with costs c."""
    return _PRICE_TOL * (1.0 + float(np.abs(c).max()))


def _oriented(a: np.ndarray, b: np.ndarray):
    """Rows flipped to a nonnegative RHS: (sign, a1, b1, bscale)."""
    sign = np.where(b < 0, -1.0, 1.0)
    return sign, a * sign[:, None], b * sign, 1.0 + float(np.max(np.abs(b)))


@dataclass(frozen=True)
class LPProblem:
    """Equality-form LP data; every variable is constrained >= 0."""

    constraint_matrix: np.ndarray
    rhs: np.ndarray
    objective: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.constraint_matrix, "constraint_matrix")
        b = as_vector(self.rhs, "rhs")
        c = as_vector(self.objective, "objective")
        if a.shape != (b.size, c.size):
            raise UsageError(
                f"inconsistent LP dimensions: A is {a.shape}, rhs has {b.size}, objective has {c.size}"
            )
        object.__setattr__(self, "constraint_matrix", a)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "objective", c)


@dataclass(frozen=True)
class LPSolution:
    """Solver verdict with optimality certificates.

    For status "optimal": point is primal feasible to _FEAS_TOL and the
    duality gap against dual_point is below _GAP_TOL. For "infeasible",
    dual_point carries a Farkas certificate (y.b > 0, A^T y <~ 0). For
    "cutoff", basis is primal feasible with objective <= the cutoff, an upper
    bound on the optimum; there is no point, dual or objective.

    iterations counts pricing passes over both phases, not pivots, so a start
    that is already optimal reports 1 (the pass that finds it optimal).
    """

    status: str
    point: np.ndarray | None = None
    objective_value: float | None = None
    dual_point: np.ndarray | None = None
    iterations: int = 0
    basis: np.ndarray | None = None  # optimal or cutoff basis labels


class _Simplex:
    """One simplex run over working columns W with a starting basis; raises
    SolverStall, naming the phase, after max_iter pricing steps."""

    def __init__(self, w: np.ndarray, b: np.ndarray, c: np.ndarray, basis: np.ndarray,
                 binv: np.ndarray, max_iter: int, price_tol: float, phase: str = ""):
        self.w = w
        self.wt = np.ascontiguousarray(w.T)  # entering columns as contiguous rows
        self.b = b
        self.c = c
        self.basis = basis
        self.binv = binv
        self.max_iter = max_iter
        self.price_tol = price_tol
        self.phase = phase
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.degen_streak = 0
        self.bland = False
        self.xb = self.binv @ self.b

    def refactor(self):
        bmat = self.w[:, self.basis]
        try:
            self.binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError as exc:
            raise NumericError("basis matrix became singular") from exc
        self.pivots_since_refactor = 0
        self.xb = self.binv @ self.b

    def _price(self) -> int | None:
        """Entering column index, or None when optimal. Dantzig takes the first
        most negative reduced cost, Bland the first negative one."""
        y = self.binv.T @ self.c[self.basis]
        r = self.c - self.w.T @ y
        r[self.basis] = 0.0
        if self.bland:
            eligible = np.flatnonzero(r < -self.price_tol)
            j = int(eligible[0]) if eligible.size else 0  # r[0] is not eligible
        else:
            j = int(r.argmin())
        self.r_q = float(r[j])  # the entering reduced cost, read by run
        return j if self.r_q < -self.price_tol else None

    def run(self, cutoff: float = -np.inf) -> str:
        # obj tracks c_B.x_B by one scalar update per pivot; recomputed before a cut
        ratios = np.empty(self.basis.size)  # ratio-test buffer
        obj = np.inf if cutoff == -np.inf else float(self.c[self.basis] @ self.xb)
        while True:
            if obj <= cutoff:
                obj = float(self.c[self.basis] @ self.xb)
                if obj <= cutoff:
                    return "cutoff"
            if self.iterations >= self.max_iter:
                raise SolverStall(f"{self.phase}iteration cap {self.max_iter} exceeded")
            self.iterations += 1
            entering = self._price()
            if entering is None:
                return "optimal"
            d = self.binv @ self.wt[entering]
            # ratio test over d > _PIV_TOL; the other rows stay at inf
            ratios.fill(np.inf)
            np.divide(np.maximum(self.xb, 0.0), d, out=ratios, where=d > _PIV_TOL)
            theta = float(ratios[ratios.argmin()])
            if theta == np.inf:
                return "unbounded"
            ties = (ratios <= theta * (1 + 1e-12) + 1e-15).nonzero()[0]
            # smallest basis label among ties: deterministic and Bland-compatible
            leave_pos = int(ties[0] if ties.size == 1 else ties[self.basis[ties].argmin()])
            if theta <= 1e-12:
                self.degen_streak += 1
                if self.degen_streak > _DEGEN_STREAK:
                    self.bland = True
            else:
                self.degen_streak = 0
                self.bland = False
            row = self.binv[leave_pos] / d[leave_pos]
            self.binv -= d[:, None] * row
            self.binv[leave_pos] = row
            self.basis[leave_pos] = entering
            self.xb -= theta * d
            self.xb[leave_pos] = theta
            obj += theta * self.r_q
            self.pivots_since_refactor += 1
            if self.pivots_since_refactor >= _REFACTOR_EVERY:
                self.refactor()


def solve_lp(p: LPProblem, start_basis: np.ndarray | None = None,
             cutoff: float | None = None) -> LPSolution:
    """Solve an equality-form LP to proven optimality or a status certificate.

    start_basis, when given, must index an invertible, primal-feasible basis
    (e.g. the basis of a previous solve over a column subset of the same
    rows); phase 1 is then skipped. An unusable start falls back to phase 1.

    cutoff, when given, lets phase 2 stop with status "cutoff" at the first
    feasible basis (of the perturbed RHS) whose objective is at most cutoff.
    Phase 1 ignores it; without it, phase 2 pivots to the end.

    Raises SolverStall when the iteration cap _ITER_CAP*(m+v) is exceeded
    and NumericError on non-finite data or a numerically broken basis.
    """
    a, b, c = p.constraint_matrix, p.rhs, p.objective
    m, v = a.shape
    if v == 0:
        raise UsageError("LP needs at least one variable")
    if m == 0:
        if np.any(c < 0):
            return LPSolution(status="unbounded")
        return LPSolution(status="optimal", point=np.zeros(v), objective_value=0.0,
                          dual_point=np.zeros(0))
    max_iter = _ITER_CAP * (m + v)
    sign, a1, b1, bscale = _oriented(a, b)
    b1p = _perturbed(b1)

    warm = None if start_basis is None else _warm_basis(
        a1, b1p, np.asarray(start_basis, dtype=int), m, v)
    keep = np.arange(m)
    if warm is not None:
        (basis, binv), iterations = warm, 0
    else:
        # phase 1: minimize the sum of artificial variables
        w1 = np.hstack([a1, np.eye(m)])
        c1 = np.concatenate([np.zeros(v), np.ones(m)])
        sim = _Simplex(w1, b1p, c1, np.arange(v, v + m), np.eye(m), max_iter, _PRICE_TOL,
                       "phase-1 ")
        if sim.run() != "optimal":  # pragma: no cover - phase-1 objective is bounded below
            raise NumericError("phase-1 simplex reported unbounded")
        sim.refactor()
        xb = np.maximum(sim.binv @ b1, 0.0)
        obj1 = float(c1[sim.basis] @ xb)
        if obj1 > _FEAS_TOL * bscale:
            y = sim.binv.T @ c1[sim.basis]
            return LPSolution(status="infeasible", dual_point=sign * y, iterations=sim.iterations)

        # pivot artificials out of the basis; rows with no eligible pivot are redundant
        redundant: list[int] = []
        for pos in range(m):
            if sim.basis[pos] < v:
                continue
            row = sim.binv[pos] @ a1
            row[sim.basis[sim.basis < v]] = 0.0
            candidates = np.flatnonzero(np.abs(row) > 1e-7)
            if candidates.size:
                entering = int(candidates[0])
                d = sim.binv @ w1[:, entering]
                piv = d[pos]
                r = sim.binv[pos] / piv
                sim.binv -= np.outer(d, r)
                sim.binv[pos] = r
                sim.basis[pos] = entering
            else:
                redundant.append(pos)
        basis, binv, iterations = sim.basis.copy(), sim.binv, sim.iterations
        if redundant:
            keep = np.setdiff1d(keep, redundant)
            a1, b1p, sign = a1[keep], b1p[keep], sign[keep]
            basis = basis[keep]
            binv = np.linalg.inv(a1[:, basis])
        if np.any(basis >= v):  # pragma: no cover - exhausted by the loop above
            raise NumericError("artificial variable stuck in basis")

    # phase 2
    sim = _Simplex(a1, b1p, c, basis, binv, max_iter, _price_tol(c))
    sim.iterations = iterations
    status = sim.run(-np.inf if cutoff is None else cutoff)
    if status == "unbounded":
        return LPSolution(status="unbounded", iterations=sim.iterations)
    if status == "cutoff":
        return LPSolution(status="cutoff", iterations=sim.iterations, basis=sim.basis.copy())
    return _certified(a, b, sign, c, sim.basis, keep, sim.iterations)


def _warm_basis(a1: np.ndarray, b1p: np.ndarray, basis: np.ndarray, m: int,
                v: int) -> tuple[np.ndarray, np.ndarray] | None:
    if basis.size != m or np.any(basis < 0) or np.any(basis >= v):
        return None
    try:
        binv = np.linalg.inv(a1[:, basis])
    except np.linalg.LinAlgError:
        return None
    if np.min(binv @ b1p) < -1e-9:
        return None
    return basis.copy(), binv


def _certified(a, b, sign, c, basis, keep, iterations) -> LPSolution:
    """The closing certificate of every "optimal" verdict: refactor the basis,
    recompute x and y from the exact RHS, and check the primal residual and
    the duality gap and dual feasibility, c - A^T y >= -_price_tol(c). keep
    indexes the rows of a x = b that phase 1 kept and sign orients them to a
    nonnegative RHS, as _oriented does; only the oriented m x m basis matrix
    is built. Raises NumericError when a check fails."""
    # canonical order: x, y and the objective depend on the optimal basis set
    # only, not on the pivot path that reached it
    basis = np.sort(basis)
    b1 = b[keep] * sign
    try:
        binv = np.linalg.inv(a[keep[:, None], basis] * sign[:, None])
    except np.linalg.LinAlgError as exc:
        raise NumericError("basis matrix became singular") from exc
    xb = binv @ b1
    x = np.zeros(a.shape[1])
    x[basis] = np.maximum(xb, 0.0)
    residual = float(np.max(np.abs(a @ x - b)))
    if residual > 100 * _FEAS_TOL * (1.0 + float(np.max(np.abs(b)))):
        raise NumericError(f"optimal basis lost feasibility (residual {residual:.3e})")
    y = binv.T @ c[basis]
    obj = float(c @ x)
    gap = abs(obj - float(b1 @ y))
    if gap > _GAP_TOL * (1.0 + abs(obj)):  # pragma: no cover - gap is roundoff only
        raise NumericError(f"duality gap {gap:.3e} exceeds tolerance")
    # rows dropped as redundant carry zero dual weight
    dual = np.zeros(a.shape[0])
    dual[keep] = sign * y
    reduced = (c - dual @ a).min()
    if reduced < -_price_tol(c):
        raise NumericError(f"optimal basis is not dual feasible (reduced cost {reduced:.3e})")
    return LPSolution(status="optimal", point=x, objective_value=obj,
                      dual_point=dual, iterations=iterations, basis=basis)


def _crash_bases(g: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Crash start of the l1 gauge LP over [G, -G] (G = g, n x N) of each row
    x of xs: the n columns of largest |<x, g_j>|, the dual constraints nearest
    to tight at the feasible dual x / max_j |<x, g_j>|. Column j gets label j
    or N + j as x's coefficient (for solve_lp's perturbed RHS) is >= 0 or < 0,
    so the basis is primal feasible. Returns the labels, basis inverses, basic
    values, perturbed RHS rows and a mask of the rows whose basis matrix is
    usable (_inverses)."""
    n, big_n = g.shape
    sign = np.where(xs < 0, -1.0, 1.0)
    xp = sign * _perturbed(xs * sign)
    corr = np.abs(xs @ g)
    cols = np.sort(np.argpartition(-corr, n - 1, axis=1)[:, :n], axis=1)
    inv, usable = _inverses(g.T[cols].transpose(0, 2, 1))
    coeffs = (inv @ xp[:, :, None])[:, :, 0]
    labels = np.where(coeffs >= 0, cols, cols + big_n)
    binv = inv * np.where(coeffs >= 0, 1.0, -1.0)[:, :, None]
    return labels, binv, np.abs(coeffs), xp, usable


def solve_l1(a: np.ndarray, xs: np.ndarray,
             cutoff: float | np.ndarray | None = None) -> list[LPSolution]:
    """solve_lp's verdict on the gauge LP min ||t||_1 s.t. G t = x of each row
    x of xs, over a = [G, -G] (label j for +g_j, N + j for -g_j), c = 1.

    Each row starts from its _crash_bases start; cutoff (one, or one per row;
    None or -inf for none) is solve_lp's. One row is solve_lp from that
    start. Two or more run phase 2 in lock-step by solve_lp's rules
    (Dantzig, the _PIV_TOL ratio test with ties to the smallest label, rank-1
    inverse updates, a refactor every _REFACTOR_EVERY pivots), pricing both
    labels of column j of every row by one product <g_j, y>, y = B^-T 1. A
    row leaves the batch as "cutoff" when its basic values sum to at most its
    cutoff, as "optimal" through _certified when it prices optimal, and into
    _Simplex from its basis and inverse when it is the last live row or its
    degenerate streak exceeds _DEGEN_STREAK (then with Bland's rule). A row
    whose start is unusable, whose ratio test or refactor fails, or whose
    certificate fails is solved by solve_lp from its start. iterations counts
    a row's pricing passes wherever they ran; SolverStall after
    _ITER_CAP * (m + v) of them.
    """
    m, v = a.shape
    big_n = v // 2
    g = a[:, :big_n]
    c = np.ones(v)
    max_iter = _ITER_CAP * (m + v)
    limit = np.broadcast_to(-np.inf if cutoff is None else cutoff, xs.shape[:1])
    starts, binv, xb, rhs, usable = _crash_bases(g, xs)

    def finish(i, basis, status, passes, inverse=None, streak=0) -> LPSolution:
        # the verdict of row i, which left the batch with status after passes
        if status == "alone":
            sim = _Simplex(a, rhs[i], c, basis, inverse, max_iter, _GAUGE_TOL)
            sim.iterations, sim.pivots_since_refactor = passes, passes % _REFACTOR_EVERY
            sim.degen_streak, sim.bland = streak, streak > _DEGEN_STREAK
            try:
                status = sim.run(limit[i])  # pivots basis in place
            except NumericError:  # a singular refactor
                status = "singular"
            passes = sim.iterations
        if status == "cutoff":
            return LPSolution(status="cutoff", iterations=passes, basis=basis)
        if status == "optimal":
            try:
                return _certified(a, xs[i], np.where(xs[i] < 0, -1.0, 1.0), c, basis,
                                  np.arange(m), passes)
            except NumericError:
                pass
        sol = solve_lp(LPProblem(a, xs[i], c), starts[i] if usable[i] else None, limit[i])
        return replace(sol, iterations=passes + sol.iterations)

    if xs.shape[0] == 1:
        return [finish(0, None, "start", 0)]
    gt = np.ascontiguousarray(g.T)
    ones_m = np.ones(m)
    rows = np.flatnonzero(usable)  # the input row of each live row
    ended = [(i, None, "start", 0) for i in np.flatnonzero(~usable)]
    basis, binv, xb, xp, lim = starts[rows], binv[rows], xb[rows], rhs[rows], limit[rows]
    streak = np.zeros(rows.size, dtype=np.int64)
    for passes in range(max_iter + 1):
        stop = xb.sum(axis=1) <= lim
        if stop.any():
            ended += zip(rows[stop], basis[stop], repeat("cutoff"), repeat(passes))
            rows, basis, binv, xb, xp, lim, streak = (
                s[~stop] for s in (rows, basis, binv, xb, xp, lim, streak))
        if rows.size <= 1 or passes == max_iter:
            ended += zip(rows, basis, repeat("alone"), repeat(passes), binv, streak)
            break
        live = np.arange(rows.size)
        proj = (ones_m @ binv) @ g  # <g_j, y> with y = B^-T 1
        mag = np.abs(proj)
        mag[live[:, None], basis % big_n] = 0.0  # both labels of a basic column
        j = mag.argmax(axis=1)
        enters = proj[live, j] > 0  # reduced cost 1 - <g_j, y> of label j, else of N + j
        column = gt[j]
        np.negative(column, out=column, where=~enters[:, None])
        d = (binv @ column[:, :, None])[:, :, 0]
        ratios = np.full(d.shape, np.inf)
        np.divide(np.maximum(xb, 0.0), d, out=ratios, where=d > _PIV_TOL)
        theta = ratios.min(axis=1)
        streak = np.where(theta <= 1e-12, streak + 1, 0)
        done, finite = mag[live, j] <= 1.0 + _GAUGE_TOL, np.isfinite(theta)
        keep = ~done & finite & (streak <= _DEGEN_STREAK)
        if not keep.all():
            status = np.where(done, "optimal", np.where(finite, "alone", "stuck"))
            ended += zip(rows[~keep], basis[~keep], status[~keep], repeat(passes + 1),
                         binv[~keep], streak[~keep])
            rows, basis, binv, xb, xp, lim, streak, j, enters, d, theta, ratios = (
                s[keep] for s in (rows, basis, binv, xb, xp, lim, streak, j, enters, d, theta,
                                  ratios))
            live = np.arange(rows.size)
        leave = np.where(ratios <= theta[:, None] * (1 + 1e-12) + 1e-15, basis, v).argmin(axis=1)
        row = binv[live, leave] / d[live, leave][:, None]
        binv -= np.einsum("ki,kj->kij", d, row, out=np.empty_like(binv))
        binv[live, leave] = row
        basis[live, leave] = np.where(enters, j, j + big_n)
        xb -= theta[:, None] * d
        xb[live, leave] = theta
        if (passes + 1) % _REFACTOR_EVERY == 0:
            binv, regular = _inverses(a.T[basis].transpose(0, 2, 1))
            ended += zip(rows[~regular], basis[~regular], repeat("singular"), repeat(passes + 1))
            rows, basis, binv, xp, lim, streak = (
                s[regular] for s in (rows, basis, binv, xp, lim, streak))
            xb = (binv @ xp[:, :, None])[:, :, 0]

    sols: list[LPSolution] = [None] * xs.shape[0]
    for i, *state in ended:
        sols[i] = finish(i, *state)
    return sols
