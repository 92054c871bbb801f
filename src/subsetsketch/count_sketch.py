"""Linear count-sketch point estimator.

d rows of w counters; row r adds sign_r(c) * delta into bucket_r(c), and a
point query returns the median over rows of sign_r(c) * counter[r][bucket].
Bucket and sign hashes are pairwise over the Mersenne prime 2^31 - 1, so all
products fit in uint64 and whole batches vectorize.

Keys may be given as base coordinates plus a table of offsets (key off + c):
h(off + c) = (h(c) + a*off) mod p, so each base coordinate is hashed once per
depth row and each offset adds one modular add; `a*off mod p` for every
offset and row is computed once per table.  The median over the odd number of
rows is taken by a compare-exchange network (odd-even transposition).

Sizing aims the per-coordinate estimate error at eps_prime * sqrt(F2(tail_k)):
rows wide enough that a tail-noise or top-k collision failure is rare per row,
and depth (odd, for medians) set so the median failure is negligible at the
caller's scale.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .rng import counter_hash, derive_seed

P31 = (1 << 31) - 1


def _mod_p31(x: np.ndarray) -> np.ndarray:
    # x < 2^62: two folds bring it under 2^31 + eps, one subtract finishes
    m = np.uint64(P31)
    x = (x & m) + (x >> np.uint64(31))
    x = (x & m) + (x >> np.uint64(31))
    return np.where(x >= m, x - m, x)


def _add_mod_p31(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # x, y < p as uint32: the sum stays below 2^32, and where it is below p
    # the wrapped difference is the larger of the two
    s = x + y
    return np.minimum(s, s - np.uint32(P31), out=s)


def _median_rows(rows: np.ndarray) -> np.ndarray:
    """Middle order statistic along the first axis, of odd length.

    Odd-even transposition sort, one np.minimum/np.maximum pair per round,
    sorts the rows in place; the result is the median up to the sign of a zero.
    """
    d = rows.shape[0]
    for rnd in range(d):
        lo = rows[rnd % 2:d - 1:2]
        hi = rows[rnd % 2 + 1:d:2]
        small = np.minimum(lo, hi)
        np.maximum(lo, hi, out=hi)
        lo[...] = small
    return rows[d // 2]


def sketch_dimensions(k: int, eps_prime: float, fail_scale: int) -> tuple[int, int]:
    """(width, depth) so that per-coordinate error exceeds
    eps_prime * sqrt(F2(tail_k)) with probability well below 1/(100*fail_scale).

    Per row the failure rate is q = k/width (a top-k collision) plus
    1/(width * eps_prime^2) (Chebyshev on the tail noise); the median of
    depth rows then fails with probability at most (2*sqrt(q(1-q)))^depth.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 < eps_prime <= 1.0:
        raise ValueError("eps_prime must be in (0, 1]")
    try:
        width = max(200 * k, math.ceil(24.0 / (eps_prime * eps_prime)))
    except (ZeroDivisionError, OverflowError):  # eps_prime^2 underflows
        raise ValueError(f"eps_prime {eps_prime} is too small to size the width") from None
    q = k / width + 1.0 / (width * eps_prime * eps_prime)
    per_row = 2.0 * math.sqrt(q * (1.0 - q))
    depth = max(7, math.ceil(math.log(100.0 * max(fail_scale, 2)) / math.log(1.0 / per_row)))
    if depth % 2 == 0:
        depth += 1
    return width, depth


class OffsetTable(NamedTuple):
    """Key offsets, hashed: a*off mod p for each depth row and offset, with a
    the row's bucket or sign slope; uint32 arrays of shape (depth, offsets)."""

    top: int  # largest offset, for the range check
    buckets: np.ndarray
    signs: np.ndarray


class CountSketch:
    def __init__(self, universe: int, width: int, depth: int, seed: int) -> None:
        if not 1 <= universe < P31:
            raise ValueError(f"universe must be in [1, 2^31 - 1), got {universe}")
        if width < 1:
            raise ValueError("width must be >= 1")
        if depth < 1 or depth % 2 == 0:
            raise ValueError("depth must be odd and positive")
        self.universe = universe
        self.width = width
        self.depth = depth
        self.seed = seed
        base = derive_seed(seed, "rows")
        coeffs = []
        for r in range(depth):
            s = derive_seed(base, r)
            coeffs.append(
                (
                    counter_hash(s, 1) % (P31 - 1) + 1,  # bucket slope != 0
                    counter_hash(s, 2) % P31,
                    counter_hash(s, 3) % (P31 - 1) + 1,  # sign slope != 0
                    counter_hash(s, 4) % P31,
                )
            )
        arr = np.asarray(coeffs, dtype=np.uint64)
        self._ba, self._bb = arr[:, 0:1], arr[:, 1:2]
        self._sa, self._sb = arr[:, 2:3], arr[:, 3:4]
        self.counters = np.zeros((depth, width), dtype=np.float64)
        # start of each row in the flattened counters
        self._row_base = (np.arange(depth, dtype=np.int64) * width)[:, None, None]
        zero = np.zeros((depth, 1), dtype=np.uint32)
        self._plain = OffsetTable(0, zero, zero)

    # -- hashing ---------------------------------------------------------------

    def offset_table(self, offsets) -> OffsetTable:
        """Hash key offsets once, for batches of keys off + c."""
        off = np.ascontiguousarray(offsets, dtype=np.uint64).ravel()
        if off.size == 0 or int(off.max()) >= self.universe:
            raise ValueError(f"offsets must be nonempty and below {self.universe}")
        return OffsetTable(
            int(off.max()),
            _mod_p31(self._ba * off).astype(np.uint32),
            _mod_p31(self._sa * off).astype(np.uint32),
        )

    def _cells(self, coords: np.ndarray, table: OffsetTable, rows: slice):
        """Buckets and signs (+1.0 or -1.0) of every key off + c in the given
        depth rows.

        Both have shape (rows, len(coords), offsets).  Offsets are the last
        axis so that the elementwise work runs over long contiguous stretches.
        """
        hb = _mod_p31(self._ba[rows] * coords + self._bb[rows]).astype(np.uint32)
        hs = _mod_p31(self._sa[rows] * coords + self._sb[rows]).astype(np.uint32)
        b = _add_mod_p31(hb[:, :, None], table.buckets[rows, None, :])
        # b % width, through // : numpy divides by a scalar with a
        # precomputed reciprocal, but takes a remainder the slow way
        b -= b // np.uint32(self.width) * np.uint32(self.width)
        bit = _add_mod_p31(hs[:, :, None], table.signs[rows, None, :])
        bit &= np.uint32(1)
        return b, 1.0 - 2.0 * bit

    def _keys(self, coords, table: OffsetTable | None) -> tuple[np.ndarray, OffsetTable]:
        c = np.ascontiguousarray(coords, dtype=np.uint64).ravel()
        table = self._plain if table is None else table
        hi = self.universe - table.top
        if c.size and (c.min() < 1 or c.max() > hi):
            bad = c[(c < 1) | (c > hi)][0]
            raise ValueError(f"coordinate {bad} outside universe [1, {hi}]")
        return c, table

    def _row_blocks(self, small: bool) -> list[slice]:
        # a small batch takes all depth rows in one pass, since per-call
        # overhead dominates it; a large one goes row by row, so that its
        # temporaries stay one row large
        if small:
            return [slice(0, self.depth)]
        return [slice(r, r + 1) for r in range(self.depth)]

    # -- updates ---------------------------------------------------------------

    def update(self, coord: int, delta: float) -> None:
        if delta == 0.0:
            return
        self.update_many([coord], [delta])

    def update_many(self, coords, deltas, offsets: OffsetTable | None = None) -> None:
        """Add deltas at the keys coords, or, given an offset table, add
        deltas[j, i] (shape (offsets, len(coords))) at key offset_j + coords[i]."""
        d = np.ascontiguousarray(deltas, dtype=np.float64)
        c, table = self._keys(coords, offsets)
        n_off = table.buckets.shape[1]
        if d.size != n_off * c.size:
            raise ValueError("need one delta per key: per offset and coordinate")
        if c.size == 0:
            return
        # keys are added offset-major, in the layout of the deltas: the order
        # in which a counter sums its keys fixes its floating-point value
        d = d.reshape(n_off, c.size)
        small = d.size * 16 < self.width
        for rows in self._row_blocks(small):
            b, sign = self._cells(c, table, rows)
            sd = sign.transpose(0, 2, 1) * d
            if small:
                idx = (b + self._row_base[rows]).transpose(0, 2, 1)
                np.add.at(self.counters.reshape(-1), idx.ravel(), sd.ravel())
            else:
                self.counters[rows] += np.bincount(
                    b[0].T.ravel(), weights=sd.ravel(), minlength=self.width)

    # -- queries ---------------------------------------------------------------

    def estimate(self, coord: int) -> float:
        return float(self.estimate_many([coord])[0])

    def estimate_many(self, coords, offsets: OffsetTable | None = None) -> np.ndarray:
        """Point estimates of the keys coords, or, given an offset table, of
        the keys offset_j + coords[i], flattened coordinate-major."""
        c, table = self._keys(coords, offsets)
        n_off = table.buckets.shape[1]
        signed = np.empty((self.depth, c.size, n_off), dtype=np.float64)
        for rows in self._row_blocks(c.size * n_off * 16 < self.width):
            b, sign = self._cells(c, table, rows)
            out = signed[rows]
            # indices are in range by construction; "clip" lets take write
            # into `out` without an intermediate buffer
            self.counters.reshape(-1).take(b + self._row_base[rows], out=out, mode="clip")
            out *= sign
        return _median_rows(signed).ravel()
