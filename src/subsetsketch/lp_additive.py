"""Additive-error subset lp estimation over turnstile streams.

Every coordinate i is scaled by k integer scalers X_{1,i}..X_{k,i} drawn
pairwise-independently from the heavy-tailed inverse-power law with exponent
p, and the k*n virtual coordinates (r, i), keyed (r-1)*n + i, are fed through
one linear count-sketch.  The count-sketch hashes each coordinate i once per
depth row and adds the hashed offset (r-1)*n of each scaler row r; the scaler
hash likewise hashes i once and adds a per-row shift.  For any subset s the floor(k/2)-th largest estimated magnitude
among the k*|s| virtual entries, scaled by 2^(-1/p), lands within an additive
eps * ||v||_p of ||v o s||_p with constant probability.  One update pass
serves every subset; no set system is declared up front.

p = 0 has no such scaling (the estimator's 2^(-1/p) is undefined) and is
rejected.  p > 2 is supported but experimental: the count-sketch width grows
polynomially with n.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .count_sketch import P31, CountSketch, OffsetTable, sketch_dimensions
from .errors import UniverseTooLarge
from .hashing import MERSENNE61, AlphaInverseSource
from .rng import derive_seed

# signed estimates (depth x count-sketch keys) that one estimate_many call of
# a query may hold: bounds the memory of a query on a large subset
_QUERY_CHUNK_CELLS = 1 << 21
# counters (width x depth float64 cells, 256 MiB) a sketch may hold: a small
# eps or a large k or n would otherwise size the table without bound
MAX_COUNTERS = 1 << 25


def sample_rows(epsilon: float) -> int:
    """Number of scaler rows k; even, Theta(1/epsilon^2)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    try:
        return 2 * math.ceil(25.0 / (epsilon * epsilon))
    except (ZeroDivisionError, OverflowError):  # epsilon^2 underflows
        raise ValueError(f"epsilon {epsilon} is too small to size the rows") from None


def error_param(p: float, n: int, epsilon: float) -> float:
    """Count-sketch error parameter for the given norm exponent."""
    if p <= 0.0:
        raise ValueError("p must be positive")
    e2 = epsilon * epsilon
    if p < 2.0:
        return e2
    if p == 2.0:
        return e2 / math.log2(max(n, 4))
    return e2 * n ** (1.0 / p - 0.5)


def sketch_shape(n: int, p: float, epsilon: float,
                 k: int | None = None) -> tuple[int, int, int]:
    """(k, width, depth) of `LpSetSketch(n, p, epsilon, seed, k=k)`, k's
    default filled in.  Raises where the constructor would, on a table of
    more than `MAX_COUNTERS` cells too, and allocates nothing, so a loader
    can check the counter table a file asks for against the counters it
    holds before building it."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if p == 0.0:
        raise ValueError(
            "p = 0 is not supported by the additive sketch; "
            "use the subset support-size sketch instead"
        )
    if p < 0.0 or not math.isfinite(p):
        raise ValueError(f"p must be positive, got {p}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if k is None:
        k = sample_rows(epsilon)
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be a positive even integer, got {k}")
    if k * n >= P31:
        raise UniverseTooLarge(
            f"virtual universe k*n = {k * n} exceeds the count-sketch hash field"
        )
    width, depth = sketch_dimensions(k, error_param(p, n, epsilon), n)
    if width * depth > MAX_COUNTERS:
        raise UniverseTooLarge(
            f"a {depth} x {width} counter table exceeds the {MAX_COUNTERS} "
            f"counters a sketch may hold"
        )
    return k, width, depth


class LpSetSketch:
    def __init__(
        self,
        n: int,
        p: float,
        epsilon: float,
        seed: int,
        *,
        k: int | None = None,
    ) -> None:
        k, width, depth = sketch_shape(n, p, epsilon, k)
        self.n = n
        self.p = float(p)
        self.epsilon = float(epsilon)
        self.k = k
        self.seed = seed
        self.eps_prime = error_param(p, n, epsilon)
        self.x_source = AlphaInverseSource(derive_seed(seed, "scalers"), alpha=self.p, n_max=n)
        self.cs = CountSketch(k * n, width, depth, derive_seed(seed, "counters"))
        self._rows = np.arange(1, k + 1, dtype=np.uint64)

    # The two per-row tables below are built on first use, not in the
    # constructor, where they would add to the cost of every sketch made.

    @cached_property
    def _scaler_shifts(self) -> np.ndarray:
        return self.x_source.row_shifts(self._rows)[:, None]

    @cached_property
    def _offsets(self) -> OffsetTable:
        # virtual coordinate of (r, i) is (r-1)*n + i, in [1, k*n]
        return self.cs.offset_table((self._rows - np.uint64(1)) * np.uint64(self.n))

    # -- scalers -----------------------------------------------------------------

    def scalers_for(self, coords) -> np.ndarray:
        """The (k, m) matrix of scalers X_{r,i} for the given coordinates."""
        c = np.asarray(coords, dtype=np.uint64)
        if c.size and (c.min() < 1 or c.max() > self.n):
            raise ValueError("coordinate outside [1, n]")
        h = self.x_source.hash.values(c.ravel()) + self._scaler_shifts
        return self.x_source.transform(np.minimum(h, h - np.uint64(MERSENNE61)))

    # -- updates -----------------------------------------------------------------

    def update(self, coord: int, delta: float) -> None:
        self.update_many([coord], [delta])

    def update_many(self, coords, deltas) -> None:
        """Apply turnstile deltas; coordinates may repeat."""
        c = np.asarray(coords, dtype=np.uint64)
        d = np.asarray(deltas, dtype=np.float64)
        if c.shape != d.shape:
            raise ValueError("coords and deltas must have matching shapes")
        if not np.isfinite(d).all():
            raise ValueError("deltas must be finite")
        live = d != 0.0
        if not live.all():
            c, d = c[live], d[live]
        if c.size == 0:
            return
        x = self.scalers_for(c)
        self.cs.update_many(c, x * d[None, :], self._offsets)

    # -- queries -----------------------------------------------------------------

    def _subset_coords(self, s) -> np.ndarray:
        arr = np.asarray(s)
        if arr.dtype == bool:
            if arr.shape != (self.n,):
                raise ValueError(f"bitset must have length {self.n}")
            return (np.nonzero(arr)[0] + 1).astype(np.uint64)
        coords = np.unique(arr.astype(np.int64))
        if coords.size and (coords[0] < 1 or coords[-1] > self.n):
            raise ValueError("subset coordinate outside [1, n]")
        return coords.astype(np.uint64)

    def query(self, s) -> float:
        """Estimate ||v o s||_p for an arbitrary subset (bitset or index list)."""
        coords = self._subset_coords(s)
        if coords.size == 0:
            return 0.0
        # chunks of coordinates; the magnitudes concatenate in the
        # coordinate-major order of a single call
        step = max(1, _QUERY_CHUNK_CELLS // (self.k * self.cs.depth))
        est = np.concatenate([
            np.abs(self.cs.estimate_many(coords[i : i + step], self._offsets))
            for i in range(0, coords.size, step)
        ])
        z = selection_statistic(est, self.k)
        return 2.0 ** (-1.0 / self.p) * z


def selection_statistic(magnitudes: np.ndarray, k: int) -> float:
    """floor(k/2)-th largest entry of a flat magnitude array."""
    rank = k // 2
    if magnitudes.size < rank:
        # fewer virtual entries than the rank only happens for tiny universes;
        # everything below the rank is an implicit zero
        return 0.0
    return float(np.partition(magnitudes, magnitudes.size - rank)[magnitudes.size - rank])
