"""Reference forms of the hashing, set-system and lp primitives that only
tests use: scalar and boolean views of the pairwise family, the alpha-inverse
law, the vectorized counter hash, the set of coordinates a vector isolates,
the incidence matrix, a set system built set by set and the sets-file parser
that feeds it, and an lp sketch's dense ingest and exact order statistic."""

import math
from itertools import chain

import numpy as np

from subsetsketch.errors import UniverseTooLarge
from subsetsketch.hashing import MERSENNE61, AlphaInverseSource, PairwiseHash, bernoulli_threshold
from subsetsketch.lp_additive import LpSetSketch, selection_statistic
from subsetsketch.rng import _GAMMA, MASK64
from subsetsketch.setsystem import _as_explicit, _canonical, fingerprint_lines


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


def _mask_from_coords(coords, n: int) -> int:
    m = 0
    for c in coords:
        c = int(c)
        if not 1 <= c <= n:
            raise ValueError(f"coordinate {c} outside universe [1, {n}]")
        m |= 1 << (c - 1)
    return m


def _coords_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    c = 1
    while mask:
        if mask & 1:
            out.append(c)
        mask >>= 1
        c += 1
    return tuple(out)


class SetSystemBySet:
    """`SetSystem`'s fields built one set and one coordinate at a time: each
    set canonicalised on its own, duplicates dropped (first wins), bitmasks
    kept as given or built bit by bit, and the reverse index read back from
    the kept tuples."""

    def __init__(self, n: int, sets) -> None:
        if n < 0:
            raise ValueError("universe size must be nonnegative")
        self.n = n
        coords: list[tuple[int, ...]] = []
        ids: dict[tuple[int, ...], int] = {}
        given: dict[int, int] = {}
        for s in sets:
            if isinstance(s, int):
                if s >> n:
                    raise ValueError("set mask exceeds universe")
                cs = _coords_from_mask(s)
            else:
                cs = _canonical(s, n)
            if cs not in ids:
                if isinstance(s, int):
                    given[len(coords)] = s
                ids[cs] = len(coords)
                coords.append(cs)
        self._coords, self._id_by_coords, self._given_masks = coords, ids, given
        sizes = np.fromiter(map(len, coords), dtype=np.int64, count=len(coords))
        flat = np.fromiter(chain.from_iterable(coords), dtype=np.int64,
                           count=int(sizes.sum()))
        order = np.argsort(flat, kind="stable")
        covered, per_coord = np.unique(flat[order], return_counts=True)
        indptr = np.zeros(covered.size + 1, dtype=np.int64)
        np.cumsum(per_coord, out=indptr[1:])
        owners = np.repeat(np.arange(len(coords), dtype=np.int64), sizes)
        self.reverse_csr = covered, indptr, owners[order]
        self._rev: dict[int, tuple[int, ...]] = {}
        for j, cs in enumerate(coords):
            for c in cs:
                self._rev[c] = self._rev.get(c, ()) + (j,)

    @property
    def masks(self) -> list[int]:
        return [self._given_masks[j] if j in self._given_masks
                else _mask_from_coords(cs, self.n) for j, cs in enumerate(self._coords)]

    def ids_containing(self, coord: int) -> tuple[int, ...]:
        return self._rev.get(coord, ())

    def member_id(self, q) -> int | None:
        if isinstance(q, int):
            masks = self.masks
            return masks.index(q) if q in masks else None
        return self._id_by_coords.get(_canonical(q, self.n))

    def fingerprint(self) -> str:
        return fingerprint_lines([f"n={self.n}"] + [" ".join(str(c) for c in cs)
                                                    for cs in self._coords])


def parse_sets_lines_by_token(lines) -> SetSystemBySet:
    """The sets-file format read one token at a time with `int`."""
    n = None
    sets = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            if not line.startswith("n="):
                raise ValueError("sets file must start with n=<int>")
            n = int(line[2:])
            continue
        coords = list(map(int, line.split()))
        if coords != sorted(coords):
            raise ValueError(f"set indices must be ascending: {line!r}")
        sets.append(coords)
    if n is None:
        raise ValueError("empty sets file")
    return SetSystemBySet(n, sets)


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
