"""Deterministic seeded sampling of Gaussian matrices and Haar subspaces.

Reproducibility contract: every random object is a pure function of a
SeedSpec = (master_seed, stream_index). Distinct stream indices yield
statistically independent generators via numpy's SeedSequence spawn keys
(a splittable-stream construction), so embarrassingly parallel trials can
claim consecutive indices in any execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .linalg import orthonormalize

__all__ = ["SeedSpec", "HaarSubspace", "generator", "gaussian_matrix", "haar_subspace"]

_U64 = 2**64


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one reproducible random stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not (0 <= int(v) < _U64):
                raise UsageError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def child(self, offset: int) -> "SeedSpec":
        """Stream offset by a fixed amount; used for retries and sub-draws."""
        return SeedSpec(self.master_seed, (self.stream_index + offset) % _U64)

    def as_tuple(self) -> tuple[int, int]:
        return (int(self.master_seed), int(self.stream_index))


def generator(seed: SeedSpec) -> np.random.Generator:
    """Fresh PCG64 generator for the given (master, stream) pair."""
    ss = np.random.SeedSequence(entropy=int(seed.master_seed), spawn_key=(int(seed.stream_index),))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class HaarSubspace:
    """A dim-dimensional subspace of R^ambient_dim with an orthonormal basis.

    Distribution is rotation invariant (Haar) because the basis comes from
    orthonormalizing an i.i.d. Gaussian matrix.
    """

    ambient_dim: int
    dim: int
    basis: np.ndarray


def gaussian_matrix(rows: int, cols: int, variance: float, seed: SeedSpec) -> np.ndarray:
    """rows x cols matrix of i.i.d. N(0, variance) entries, deterministic per seed."""
    if rows < 1 or cols < 1:
        raise UsageError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
    if not variance > 0:
        raise UsageError(f"variance must be positive, got {variance}")
    rng = generator(seed)
    return rng.normal(0.0, np.sqrt(variance), size=(rows, cols))


def haar_subspace(ambient_dim: int, dim: int, seed: SeedSpec) -> HaarSubspace:
    """Haar-distributed dim-subspace of R^ambient_dim."""
    if not 1 <= dim <= ambient_dim:
        raise UsageError(f"need 1 <= dim <= ambient_dim, got dim={dim}, ambient={ambient_dim}")
    g = gaussian_matrix(ambient_dim, dim, 1.0, seed)
    ortho = orthonormalize(g)
    if ortho.basis.shape[1] != dim:  # pragma: no cover - probability zero
        raise UsageError(f"Gaussian sample was rank deficient ({ortho.dropped} drops)")
    return HaarSubspace(ambient_dim=ambient_dim, dim=dim, basis=ortho.basis)
