"""Reference forms of the hashing, set-system and lp primitives that only
tests use: scalar and boolean views of the pairwise family, the alpha-inverse
law, the vectorized counter hash, the set of coordinates a vector isolates,
the incidence matrix, and an lp sketch's dense ingest and exact order
statistic."""

import math

import numpy as np

from subsetsketch.errors import UniverseTooLarge
from subsetsketch.hashing import MERSENNE61, AlphaInverseSource, PairwiseHash, bernoulli_threshold
from subsetsketch.lp_additive import LpSetSketch, selection_statistic
from subsetsketch.rng import _GAMMA, MASK64
from subsetsketch.setsystem import _as_explicit, _coords_from_mask, _mask_from_coords


def uniform01(h: PairwiseHash, x: int) -> float:
    """Map h(x) to [0, 1); exactly pairwise over distinct keys."""
    return h.value(x) / MERSENNE61


def bernoulli_predicate(h: PairwiseHash, x: int, p: float) -> int:
    """1 iff h(x)/prime < p.  Pairwise independent across keys."""
    return 1 if h.value(x) < bernoulli_threshold(p) else 0


def bernoulli_mask(h: PairwiseHash, xs: np.ndarray, p: float) -> np.ndarray:
    """Vectorized `bernoulli_predicate`; boolean array."""
    return h.values(xs) < np.uint64(bernoulli_threshold(p))


def alpha_inverse_value(src: AlphaInverseSource, pair: tuple[int, int]) -> int:
    """Functional form of `AlphaInverseSource.value` for a (row, i) pair."""
    return src.value(*pair)


def alpha_inverse_cdf(x: float, alpha: float) -> float:
    """Reference CDF Pr[X <= x] of the alpha-inverse law."""
    if x < 1:
        return 0.0
    return 1.0 - math.floor(x) ** (-alpha)


def counter_hash_array(seed: int, indices) -> np.ndarray:
    """Vectorized `rng.counter_hash` over an integer array."""
    idx = np.asarray(indices, dtype=np.uint64)
    z = np.uint64(seed & MASK64) + idx * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hh_set(system, v) -> set[int]:
    """Coordinates isolated by v: {i : exists s with supp(s . v) = {i}}."""
    system = _as_explicit(system)
    vm = _support_mask(v, system.n)
    isolated = 0
    for m in system.masks:
        t = m & vm
        if t and t & (t - 1) == 0:
            isolated |= t
    return set(_coords_from_mask(isolated))


def _support_mask(v, n: int) -> int:
    if isinstance(v, dict):
        return _mask_from_coords((c for c, x in v.items() if x != 0), n)
    arr = np.asarray(v)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValueError(f"expected a length-{n} vector")
    return _mask_from_coords((i + 1 for i in range(n) if arr[i] != 0), n)


def incidence_matrix(system) -> np.ndarray:
    """0/1 incidence matrix (sets x coordinates) for small universes."""
    system = _as_explicit(system)
    if system.n > 64:
        raise UniverseTooLarge("incidence matrices supported for n <= 64")
    out = np.zeros((system.num_sets, system.n), dtype=np.int8)
    for j in range(system.num_sets):
        for c in system.coords_of(j):
            out[j, c - 1] = 1
    return out


def update_dense(sk: LpSetSketch, values) -> None:
    """Ingest a whole length-n vector (equivalent to n single updates)."""
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (sk.n,):
        raise ValueError(f"expected a length-{sk.n} vector")
    (nz,) = np.nonzero(v)
    sk.update_many((nz + 1).astype(np.uint64), v[nz])


def query_exact(sk: LpSetSketch, s, values) -> float:
    """The order statistic of `LpSetSketch.query` computed from exact scaled
    values (count-sketch bypassed); reference path for calibration."""
    coords = sk._subset_coords(s)
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (sk.n,):
        raise ValueError(f"expected a length-{sk.n} vector")
    if coords.size == 0:
        return 0.0
    scaled = sk.scalers_for(coords) * v[coords.astype(np.int64) - 1][None, :]
    z = selection_statistic(np.abs(scaled).ravel(), sk.k)
    return 2.0 ** (-1.0 / sk.p) * z
