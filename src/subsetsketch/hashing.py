"""Pairwise-independent hashing over a fixed 61-bit Mersenne prime.

Two consumers sit on top of the same family h(x) = (a*x + b) mod (2^61 - 1):

* a Bernoulli predicate (coordinate-level sampling with exactly pairwise
  joint behavior, which is what makes the variance identity of the sampled
  support-size estimator hold), and
* an integer "alpha-inverse" source with Pr[X <= x] = 1 - x^(-alpha) for
  positive integers x, used to rescale coordinates so that a fixed order
  statistic of the rescaled vector recovers the lp norm.

Every vectorized evaluation, one hash over many keys (`PairwiseHash.values`),
many hashes over many keys (`coeff_mod_values`) and the per-row shifts of the
alpha-inverse source, runs through one uint64 multiply-and-fold kernel,
`_affine61`.  All integer arithmetic is exact Python/uint64 arithmetic, so
the same seed produces bit-identical outputs on every platform.
"""

from __future__ import annotations

import numpy as np

from .rng import stream64

MERSENNE61 = (1 << 61) - 1
ALPHA_INVERSE_CAP = 1 << 40

_M61 = MERSENNE61
_U64 = np.uint64


def _coeffs_from_seed(seed: int) -> tuple[int, int]:
    # Two 128-bit draws folded mod the prime; mod bias is ~2^-67.
    w = stream64(seed, 4)
    a = 1 + (((w[0] << 64) | w[1]) % (_M61 - 1))
    b = ((w[2] << 64) | w[3]) % _M61
    return a, b


def _affine61(a, x, b) -> np.ndarray:
    """(a*x + b) mod (2^61 - 1) for broadcastable uint64 operands below the
    prime.

    Both factors are split at bit 31, so every partial product fits in 64
    bits; the partial products are folded with 2^61 = 1 (mod prime).
    """
    mask31 = _U64((1 << 31) - 1)
    a_hi, a_lo = a >> _U64(31), a & mask31       # < 2^30, < 2^31
    x_hi, x_lo = x >> _U64(31), x & mask31
    term_hh = (a_hi * x_hi) << _U64(1)           # < 2^60; times 2^62 = 2 mod p
    cross = a_hi * x_lo + a_lo * x_hi            # < 2^62; times 2^31 mod p:
    term_cr = (cross >> _U64(30)) + ((cross & _U64((1 << 30) - 1)) << _U64(31))
    ll = a_lo * x_lo                             # < 2^62
    r = term_hh + term_cr + (ll & _U64(_M61)) + (ll >> _U64(61)) + b  # < 2^63
    r = (r & _U64(_M61)) + (r >> _U64(61))
    r = (r & _U64(_M61)) + (r >> _U64(61))       # <= p
    return np.minimum(r, r - _U64(_M61))


class PairwiseHash:
    """h(x) = (a*x + b) mod (2^61 - 1), with (a, b) derived from the seed.

    `n_max`, when given, is validated against the prime (the family needs
    prime > 2 * n_max to cover the key space with room for pair encoding).
    """

    __slots__ = ("seed", "prime", "a", "b")

    def __init__(self, seed: int, n_max: int | None = None):
        if n_max is not None and 2 * n_max >= _M61:
            raise ValueError(f"universe too large for 61-bit prime: {n_max}")
        self.seed = seed
        self.prime = _M61
        self.a, self.b = _coeffs_from_seed(seed)

    def value(self, x: int) -> int:
        return (self.a * x + self.b) % _M61

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized `value` for uint64 keys below 2^61 - 1."""
        xs = np.ascontiguousarray(xs, dtype=np.uint64)
        if xs.size and int(xs.max()) >= _M61:
            raise ValueError("keys must be below 2^61 - 1")
        return _affine61(_U64(self.a), xs, _U64(self.b))


def coeff_mod_values(a: np.ndarray, b: np.ndarray, xs) -> np.ndarray:
    """(a[i]*xs[j] + b[i]) mod (2^61 - 1) for coefficient arrays and a key
    array, as a (len(a), len(xs)) matrix.

    The transpose of `PairwiseHash.values`: many hash functions applied to
    the same keys, used to make the sampling decisions of many sketch
    instances over one batch without a Python loop per instance.
    """
    xs = np.asarray(xs)
    # checked before the cast, which would wrap or refuse a negative key
    if xs.size and not (0 <= xs.min() and xs.max() < _M61):
        raise ValueError("keys must be in [0, 2^61 - 1)")
    a = np.ascontiguousarray(a, dtype=np.uint64)[:, None]
    b = np.ascontiguousarray(b, dtype=np.uint64)[:, None]
    return _affine61(a, xs.astype(np.uint64).reshape(1, -1), b)


def bernoulli_threshold(p: float) -> int:
    """Smallest integer t with t/prime >= p, computed exactly.

    h(x) < t then happens with probability within 1/prime of p, and for
    p = 1 the predicate accepts every key.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    num, den = float(p).as_integer_ratio()
    return -((-num * _M61) // den)  # ceil(p * prime)


class AlphaInverseSource:
    """Integer scalers X(row, i) with Pr[X <= x] = 1 - x^(-alpha), x = 1, 2, ...

    X = ceil(U^(-1/alpha)) where U in (0, 1) comes from the pairwise hash of
    the encoded pair row * n_max + i, so any two entries are independent.
    X >= 2 always (U < 1 strictly) and values are capped at 2^40.
    """

    __slots__ = ("seed", "alpha", "n_max", "hash")

    def __init__(self, seed: int, alpha: float, n_max: int):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.seed = seed
        self.alpha = alpha
        self.n_max = n_max
        self.hash = PairwiseHash(seed)

    def _encode(self, row: int, i: int) -> int:
        if not 1 <= i <= self.n_max:
            raise ValueError(f"coordinate {i} outside [1, {self.n_max}]")
        return row * self.n_max + i

    def value(self, row: int, i: int) -> int:
        return int(self.transform(np.array([self.hash.value(self._encode(row, i))], dtype=np.uint64))[0])

    def values(self, rows: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Vectorized scalers for broadcastable row/coordinate arrays (float64)."""
        idx = rows.astype(np.uint64) * _U64(self.n_max) + coords.astype(np.uint64)
        return self.transform(self.hash.values(idx))

    def row_shifts(self, rows: np.ndarray) -> np.ndarray:
        """a * row * n_max mod p for each row.

        The pair encoding row * n_max + i is affine in the row, so the hash
        of (row, i) is (h(i) + shift) mod p: with the shifts of a fixed set of
        rows at hand, each coordinate is hashed once for all of them.
        """
        keys = np.asarray(rows, dtype=np.uint64) * _U64(self.n_max)
        return _affine61(_U64(self.hash.a), keys, 0)

    def transform(self, hvals: np.ndarray) -> np.ndarray:
        """Map raw hash values to scalers; exposed so callers can reuse hashes."""
        u = (hvals.astype(np.float64) + 1.0) * 2.0**-61
        with np.errstate(over="ignore"):
            x = u ** (-1.0 / self.alpha)
        return np.minimum(np.ceil(x), float(ALPHA_INVERSE_CAP))

