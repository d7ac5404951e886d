"""Constructive well-complemented subspace searches inside a random quotient.

Two constructions:

* find_l1_subspace picks a random index set A of k columns and accepts it when
  the l2-normalized column block is well conditioned (sigma_min above a
  threshold) and every outside column leaks at most k^(-1/2) of its mass into
  E = span{g_j : j in A}. The accepted witness carries measured isomorphism
  and complementation constants.

* find_l2_subspace takes a Haar-random h-dimensional section, which for
  N >> n is nearly Euclidean, and measures its distortion and the norm of the
  orthogonal projection onto it.

All constants are measurements, not certificates: the harness calibrates
thresholds for them empirically and freezes the result.

Both searches are pure functions of (body, seed): retries claim consecutive
stream indices, so concurrent invocations never share generator state.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .body import (RandomQuotientBody, _column_gauge, _max_gauge, _max_on_line, _unit_sphere,
                   body_norm_many, section_distortion)
from .errors import ConditionFailed, IoError, UsageError
from .linalg import (check_orthonormal, format_matrix, json_field, orthonormalize, parse_matrix,
                     read_json, singular_values, write_text)
from .sampler import HaarSubspace, SeedSpec, generator, haar_subspace

__all__ = [
    "L1Witness",
    "L2Witness",
    "find_l1_subspace",
    "find_l2_subspace",
    "complementation_norm",
    "corollary_dispatch",
    "auto_l1_dim",
    "auto_l2_dim",
    "verify_witness",
    "save_witness",
    "load_witness",
]

DEFAULT_C_CAL = 0.25  # calibrated dimension constant, frozen in the thresholds file
DEFAULT_EL2_THRESHOLD = 0.25  # sigma_min acceptance for the normalized block
_ISO_SAMPLES = 1000
_SECTION_SAMPLES = 256
_ISO_STREAM_OFFSET = 10_000  # keeps the iso-sampling stream clear of retry streams


@dataclass(frozen=True)
class L1Witness:
    """An accepted index set A with measured l1-isomorphism data.

    sigma_min is the smallest singular value of the column block with columns
    scaled to unit Euclidean length; max_leak is max_{j not in A} ||P_E g_j||_2;
    iso_constant is the measured upper bound on the Banach-Mazur distance of
    span{g_j} to l1^k (norm of the coordinate map times the smaller of the
    directly sampled inverse-map norm and its sqrt(k)/sigma_min Euclidean
    bound, both over the same sampled directions), and compl_constant the
    quotient-norm operator norm of the orthogonal projection onto E. seed
    records the stream that produced the accepted retry, making every number
    reproducible from (body, witness).
    """

    index_set: tuple[int, ...]
    basis: np.ndarray
    sigma_min: float
    max_leak: float
    iso_constant: float
    compl_constant: float
    seed: SeedSpec

    @property
    def k(self) -> int:
        return len(self.index_set)


@dataclass(frozen=True)
class L2Witness:
    """A Haar section with measured Euclidean-ness and complementation data."""

    subspace: HaarSubspace
    distortion: float
    max_gauge: float
    min_gauge: float
    compl_constant: float
    proj_image_radius: float
    seed: SeedSpec

    @property
    def h(self) -> int:
        return self.subspace.dim


def auto_l1_dim(n: int, big_n: int, c_cal: float = DEFAULT_C_CAL) -> int:
    """k = max(1, floor(c_cal * min(sqrt(n), n / log N)))."""
    if big_n <= 1:
        target = np.sqrt(n)
    else:
        target = min(np.sqrt(n), n / np.log(big_n))
    return max(1, int(np.floor(c_cal * target)))


def auto_l2_dim(n: int, big_n: int, c_cal: float = DEFAULT_C_CAL) -> int:
    """h = max(1, min(floor(c_cal * log N), n))."""
    return max(1, min(int(np.floor(c_cal * np.log(big_n))), n))


def _inverse_map_estimates(body: RandomQuotientBody, block: np.ndarray,
                           basis: np.ndarray, seed: SeedSpec) -> tuple[float, float]:
    """Sampled estimates over _ISO_SAMPLES unit directions x in span(basis):

    sup ||x||_2 / ||x||_B (the proof's Euclidean comparison factor) and
    sup ||t(x)||_1 / ||x||_B with t(x) the coefficient vector of x in the
    columns of `block` (a direct measurement of the inverse basis map).
    """
    pinv = np.linalg.pinv(block)
    dirs = _unit_sphere(generator(seed), _ISO_SAMPLES, basis.shape[1]) @ basis.T
    gauges = body_norm_many(body, dirs)
    coeff_l1 = np.abs(dirs @ pinv.T).sum(axis=1)
    return float(1.0 / gauges.min()), float(np.max(coeff_l1 / gauges))


def find_l1_subspace(body: RandomQuotientBody, k: int | None = None, retries: int = 16,
                     seed: SeedSpec | None = None, c_cal: float = DEFAULT_C_CAL,
                     el2_threshold: float = DEFAULT_EL2_THRESHOLD) -> L1Witness:
    """Search for a k-column block spanning a well-complemented near-l1^k copy.

    Retries draw fresh uniformly random index sets on consecutive derived
    streams. Raises ConditionFailed (tagged "el2" or "fin" after the violated
    inequality) when the budget is exhausted.
    """
    if seed is None:
        raise UsageError("find_l1_subspace requires a SeedSpec")
    if k is None:
        k = auto_l1_dim(body.n, body.N, c_cal)
    if not 1 <= k <= body.N:
        raise UsageError(f"need 1 <= k <= N={body.N}, got k={k}")
    if retries < 1:
        raise UsageError("retries must be >= 1")

    last: ConditionFailed | None = None
    for attempt in range(retries):
        stream = seed.child(attempt)
        a = np.sort(generator(stream).choice(body.N, size=k, replace=False))
        try:
            return _measure_l1(body, a, stream, el2_threshold, 1.0 / np.sqrt(k))
        except ConditionFailed as exc:
            last = exc
    raise ConditionFailed(last.tag, f"{last.message} after {retries} retries", last.measured)


def _measure_l1(body: RandomQuotientBody, a: np.ndarray, stream: SeedSpec,
                el2_threshold: float = 0.0, leak_cap: float = np.inf) -> L1Witness:
    """Measure the column block a, sampling on `stream`.

    Raises ConditionFailed ("el2" or "fin") when sigma_min < el2_threshold or
    max_leak > leak_cap. The search and verify_witness both measure here, so
    a re-measured witness matches the stored one bit for bit.
    """
    k = len(a)
    block = body.gamma[:, a]
    normalized = block / body.column_norms[a]
    # a wide block (k > n) cannot be injective: its k-th singular value is 0
    sigma_min = 0.0 if k > body.n else float(singular_values(normalized)[-1])
    if sigma_min < el2_threshold:
        raise ConditionFailed("el2", f"sigma_min {sigma_min:.6g} < {el2_threshold:g}",
                              {"sigma_min": sigma_min, "threshold": el2_threshold, "k": k})
    basis = orthonormalize(block).basis
    outside = np.setdiff1d(np.arange(body.N), a)
    leaks = basis @ (basis.T @ body.gamma[:, outside])
    max_leak = float(np.linalg.norm(leaks, axis=0).max()) if outside.size else 0.0
    if max_leak > leak_cap:
        raise ConditionFailed("fin", f"max_leak {max_leak:.6g} > k^(-1/2) = {leak_cap:.6g}",
                              {"max_leak": max_leak, "threshold": leak_cap, "k": k})

    if k == 1:
        # E is the line of b = basis[:, 0] = +-g_a / |g_a|, where both inverse-map ratios are
        # constant: by homogeneity ||b||_B = ||g_a||_B / |g_a| gives them and the
        # complementation constant max_j |<b, g_j>| ||b||_B
        b = basis[:, 0]
        u_norm = _column_gauge(body, a[0])
        line_gauge = u_norm / body.column_norms[a[0]]
        sup_ratio = 1.0 / line_gauge
        inv_direct = float(np.abs(np.linalg.pinv(block) @ b).sum()) / line_gauge
        compl = _max_on_line(b, (basis @ (basis.T @ body.gamma)).T, line_gauge)
    else:
        u_norm = max(_column_gauge(body, j) for j in a)
        sup_ratio, inv_direct = _inverse_map_estimates(body, block, basis,
                                                       stream.child(_ISO_STREAM_OFFSET))
        compl = complementation_norm(body, basis)
    inv_bound = min(np.sqrt(k) / sigma_min * sup_ratio, inv_direct)
    iso = max(1.0, u_norm * inv_bound)
    return L1Witness(index_set=tuple(int(j) for j in a), basis=basis,
                     sigma_min=sigma_min, max_leak=max_leak,
                     iso_constant=float(iso), compl_constant=compl, seed=stream)


def find_l2_subspace(body: RandomQuotientBody, h: int | None = None,
                     seed: SeedSpec | None = None, c_cal: float = DEFAULT_C_CAL,
                     relax_alpha: float | None = None) -> L2Witness:
    """Measure a Haar-random h-dimensional section as a candidate l2^h copy.

    Requires N >= n^2; passing relax_alpha permits the weaker N >= n^(1+alpha)
    regime (complementation degrades like 1/sqrt(alpha)) with a warning.
    """
    if seed is None:
        raise UsageError("find_l2_subspace requires a SeedSpec")
    if relax_alpha is not None and not relax_alpha > 0:
        raise UsageError(f"relax_alpha must be > 0, got {relax_alpha}")
    n, big_n = body.n, body.N
    if big_n < n * n:
        if relax_alpha is None:
            raise UsageError(
                f"find_l2_subspace requires N >= n^2 ({big_n} < {n * n}); "
                "pass relax_alpha to accept N >= n^(1+alpha)"
            )
        if big_n < n ** (1.0 + relax_alpha) - 1e-9:
            raise UsageError(
                f"N={big_n} < n^(1+alpha) = {n ** (1.0 + relax_alpha):.6g}"
            )
        warnings.warn(
            f"relaxed regime N >= n^(1+alpha) with alpha={relax_alpha}: "
            "expect complementation ~ 1/sqrt(alpha)",
            stacklevel=2,
        )
    if h is None:
        h = auto_l2_dim(n, big_n, c_cal)
    if not 1 <= h <= n:
        raise UsageError(f"need 1 <= h <= n={n}, got h={h}")
    return _measure_l2(body, haar_subspace(n, h, seed), seed)


def _measure_l2(body: RandomQuotientBody, sub: HaarSubspace, seed: SeedSpec) -> L2Witness:
    """Measure the section sub, sampling _SECTION_SAMPLES directions on
    seed.child(1); shared by the search and verify_witness."""
    max_g, min_g = section_distortion(body, sub, _SECTION_SAMPLES, seed.child(1))
    proj = sub.basis @ (sub.basis.T @ body.gamma)
    # on a line, max_g is the gauge of its unit basis vector
    compl = (_max_on_line(sub.basis[:, 0], proj.T, max_g) if sub.dim == 1
             else _max_gauge(body, proj.T))
    radius = float(np.linalg.norm(proj, axis=0).max())
    return L2Witness(subspace=sub, distortion=max_g / min_g, max_gauge=max_g,
                     min_gauge=min_g, compl_constant=compl, proj_image_radius=radius,
                     seed=seed)


def complementation_norm(body: RandomQuotientBody, basis) -> float:
    """Operator norm on X_n of the orthogonal projection onto span(basis).

    Extreme-point formula: the norm is attained at some vertex g_j, so it is
    max_j ||P g_j||_B, taken by _max_gauge's exact pruned maximum as in
    operator_norm: after the first LP most images are pruned by l1
    certificates, the rest are solved from crash bases with the best gauge
    as cutoff, and the value is the objective of an LP solved to optimality.
    """
    b = check_orthonormal(basis, name="subspace basis")
    if b.shape[0] != body.n:
        raise UsageError(f"basis ambient dimension {b.shape[0]} != body dimension {body.n}")
    return _max_gauge(body, (b @ (b.T @ body.gamma)).T)


def corollary_dispatch(body: RandomQuotientBody, seed: SeedSpec,
                       c_cal: float = DEFAULT_C_CAL):
    """Case split: l1 construction when log N < sqrt(n), l2 construction otherwise.

    Returns ("l1", L1Witness) or ("l2", L2Witness).
    """
    if np.log(body.N) < np.sqrt(body.n):
        return "l1", find_l1_subspace(body, seed=seed, c_cal=c_cal)
    return "l2", find_l2_subspace(body, seed=seed, c_cal=c_cal)


def verify_witness(body: RandomQuotientBody, witness) -> dict[str, float]:
    """Recompute every stored witness quantity from (body, witness).

    Returns a map name -> |stored - recomputed|; all entries should be <= 1e-9
    (the sampled quantities rerun on the stored stream and reproduce exactly).
    """
    if isinstance(witness, L1Witness):
        again = _measure_l1(body, np.array(witness.index_set), witness.seed)
        keys = ("sigma_min", "max_leak", "iso_constant", "compl_constant")
    elif isinstance(witness, L2Witness):
        again = _measure_l2(body, witness.subspace, witness.seed)
        keys = ("distortion", "compl_constant", "proj_image_radius")
    else:
        raise UsageError(f"unknown witness type {type(witness).__name__}")
    return {key: abs(getattr(again, key) - getattr(witness, key)) for key in keys}


def save_witness(witness, path) -> None:
    if isinstance(witness, L1Witness):
        payload = {
            "kind": "l1",
            "indices": list(witness.index_set),
            "basis": format_matrix(witness.basis),
            "constants": {
                "sigma_min": witness.sigma_min,
                "max_leak": witness.max_leak,
                "iso_constant": witness.iso_constant,
                "compl_constant": witness.compl_constant,
            },
            "seed": {"master_seed": witness.seed.master_seed,
                     "stream_index": witness.seed.stream_index},
        }
    elif isinstance(witness, L2Witness):
        payload = {
            "kind": "l2",
            "indices": [],
            "basis": format_matrix(witness.subspace.basis),
            "constants": {
                "distortion": witness.distortion,
                "max_gauge": witness.max_gauge,
                "min_gauge": witness.min_gauge,
                "compl_constant": witness.compl_constant,
                "proj_image_radius": witness.proj_image_radius,
            },
            "seed": {"master_seed": witness.seed.master_seed,
                     "stream_index": witness.seed.stream_index},
        }
    else:
        raise UsageError(f"unknown witness type {type(witness).__name__}")
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n", "witness")


def load_witness(path):
    def field(data, key: str, kind: type | tuple):
        return json_field(data, key, kind, path, "witness")

    payload = read_json(path, "witness")
    kind = field(payload, "kind", str)
    if kind not in ("l1", "l2"):
        raise IoError(path, f"unknown witness kind {kind!r}")
    basis = parse_matrix(field(payload, "basis", str), path)
    seed_data = field(payload, "seed", dict)
    try:
        seed = SeedSpec(field(seed_data, "master_seed", int),
                        field(seed_data, "stream_index", int))
    except UsageError as exc:
        raise IoError(path, str(exc)) from exc
    consts = field(payload, "constants", dict)

    def const(key: str):
        value = field(consts, key, (int, float))
        if isinstance(value, float) and not np.isfinite(value):
            raise IoError(path, f"witness constant {key!r} must be a finite number, got {value!r}")
        return value

    if kind == "l1":
        indices = field(payload, "indices", list)
        if not all(isinstance(j, int) and not isinstance(j, bool) for j in indices):
            raise IoError(path, f"witness indices must be integers, got {indices!r}")
        return L1Witness(index_set=tuple(indices), basis=basis,
                         sigma_min=const("sigma_min"), max_leak=const("max_leak"),
                         iso_constant=const("iso_constant"),
                         compl_constant=const("compl_constant"), seed=seed)
    sub = HaarSubspace(ambient_dim=basis.shape[0], dim=basis.shape[1], basis=basis)
    return L2Witness(subspace=sub, distortion=const("distortion"),
                     max_gauge=const("max_gauge"), min_gauge=const("min_gauge"),
                     compl_constant=const("compl_constant"),
                     proj_image_radius=const("proj_image_radius"), seed=seed)
