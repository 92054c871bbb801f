"""Set systems over [1..n] and their heavy-hitter dimension.

The heavy-hitter dimension of a system S is the largest number of
coordinates that can be isolated simultaneously: max over vectors v of
|{i : some s in S satisfies supp(s . v) = {i}}|.  Binary v suffice, and the
quantity equals the side of the largest permutation submatrix of the
incidence matrix.  It is the parameter every sketch in this package scales
with, so the exact (small-n) solver here doubles as the test oracle for the
space bounds.

Two representations:

* `SetSystem` stores every member set explicitly as its sorted coordinate
  tuple, with a tuple -> set id map for resolving queries and a coordinate
  -> set ids index for updates, built once as CSR arrays (which the bulk
  sampler paths read) and turned into a dict; bitmasks, which only the
  dimension solvers and the set algebra need, are computed on first use.
  Fine up to a few thousand sets.
* `IntervalSystem` represents all intervals with lengths in [min_len,
  max_len] implicitly; samplers exploit the structure instead of enumerating
  the (possibly quadratic) family.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import UniverseMismatch, UniverseTooLarge
from .rng import derive_seed

EXACT_SEARCH_MAX_N = 24
_MATERIALIZE_MAX_SETS = 500_000
# cells of the k x n uniform draw behind `family_random` (256 MiB of floats)
FAMILY_RANDOM_MAX_CELLS = 1 << 25
# largest universe of `hh_dim_greedy_lower`, which holds `restarts` column
# orders of n ints at once (`hhdim` on two small sets at this n: about 2 s
# and 130 MB peak RSS, numpy included, on one 2-vCPU x86 machine)
GREEDY_MAX_N = 1 << 18


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


def _canonical(coords, n: int) -> tuple[int, ...]:
    """Sorted, deduplicated coordinate tuple, range-checked against [1, n]."""
    cs = tuple(sorted(set(map(int, coords))))
    if cs and (cs[0] < 1 or cs[-1] > n):
        bad = cs[0] if cs[0] < 1 else cs[-1]
        raise ValueError(f"coordinate {bad} outside universe [1, {n}]")
    return cs


def as_interval(q) -> tuple[int, int] | None:
    """Return (lo, hi) if q denotes a contiguous 1-based range, else None."""
    if isinstance(q, range):
        if q.step != 1 or len(q) == 0:
            return None
        return q.start, q.stop - 1
    coords = sorted(int(c) for c in q)
    if not coords:
        return None
    lo, hi = coords[0], coords[-1]
    if hi - lo + 1 == len(set(coords)):
        return lo, hi
    return None


class MemberCoords(tuple):
    """A member set's coordinate tuple, tagged with the system it was resolved
    in and its set id there, so that the samplers answering one query do not
    look the set up again."""

    system: SetSystem | None = None
    sid: int | None = None


class SetSystem:
    """Explicit set system; duplicate member sets are dropped (first wins).

    Sets may be given as coordinate collections or as bitmasks (bit c-1 for
    coordinate c).
    """

    def __init__(self, n: int, sets) -> None:
        if n < 0:
            raise ValueError("universe size must be nonnegative")
        self.n = n
        coords: list[tuple[int, ...]] = []
        ids: dict[tuple[int, ...], int] = {}
        given_masks: dict[int, int] = {}
        for s in sets:
            if isinstance(s, int):
                if s >> n:
                    raise ValueError("set mask exceeds universe")
                cs = _coords_from_mask(s)
            else:
                cs = _canonical(s, n)
            if cs not in ids:
                if isinstance(s, int):
                    given_masks[len(coords)] = s
                ids[cs] = len(coords)
                coords.append(cs)
        self._coords = coords
        self._id_by_coords = ids
        self._given_masks = given_masks
        self.reverse_csr = self._build_csr()
        covered, indptr, owners = self.reverse_csr
        owners, bounds = owners.tolist(), indptr.tolist()
        self._rev = {c: tuple(owners[bounds[k]:bounds[k + 1]])
                     for k, c in enumerate(covered.tolist())}
        # declared here rather than added on first use: a key added to the
        # instance dict later slows every attribute read of this object
        self._fwd = None

    @cached_property
    def masks(self) -> list[int]:
        given = self._given_masks
        return [given[j] if j in given else _mask_from_coords(cs, self.n)
                for j, cs in enumerate(self._coords)]

    @cached_property
    def _id_by_mask(self) -> dict[int, int]:
        return {m: j for j, m in enumerate(self.masks)}

    def _build_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The reverse index as int64 arrays (coords, indptr, ids): coords
        holds, ascending, every coordinate of some member set, and
        `ids_containing(coords[k])` is ids[indptr[k]:indptr[k + 1]]."""
        sizes = np.fromiter(map(len, self._coords), dtype=np.int64,
                            count=len(self._coords))
        flat = np.fromiter(chain.from_iterable(self._coords),
                           dtype=np.int64, count=int(sizes.sum()))
        order = np.argsort(flat, kind="stable")
        coords, per_coord = np.unique(flat[order], return_counts=True)
        indptr = np.zeros(coords.size + 1, dtype=np.int64)
        np.cumsum(per_coord, out=indptr[1:])
        owners = np.repeat(np.arange(len(self._coords), dtype=np.int64), sizes)
        return coords, indptr, owners[order]

    @property
    def forward_index(self) -> tuple[dict[int, int], list[np.ndarray], np.ndarray]:
        """(pos, by_set, degree), built on first use: pos maps every covered
        coordinate to its position in `reverse_csr`'s coords, by_set[j]
        holds, ascending, the positions of set j's coordinates, and
        degree[k] counts the sets containing the coordinate at position k."""
        if self._fwd is None:
            coords, indptr, ids = self.reverse_csr
            pos = dict(zip(coords.tolist(), range(coords.size)))
            degree = np.diff(indptr)
            owners = np.repeat(np.arange(coords.size), degree)
            flat = owners[np.argsort(ids, kind="stable")]
            ends = np.cumsum(np.bincount(ids, minlength=self.num_sets))
            by_set = np.split(flat, ends[:-1]) if self.num_sets else []
            self._fwd = pos, by_set, degree
        return self._fwd

    @property
    def num_sets(self) -> int:
        return len(self._coords)

    def coords_of(self, j: int) -> tuple[int, ...]:
        return self._coords[j]

    def member(self, j: int) -> MemberCoords:
        """coords_of(j), tagged with this system and the set id j."""
        m = MemberCoords(self._coords[j])
        m.system, m.sid = self, j
        return m

    def ids_containing(self, coord: int) -> tuple[int, ...]:
        return self._rev.get(coord, ())

    def member_id(self, q) -> int | None:
        """Set id of q inside the system, or None.

        q is a bitmask or a coordinate collection in any order, possibly
        with repeats; a coordinate outside [1, n] raises ValueError.
        """
        if isinstance(q, int):
            return self._id_by_mask.get(q)
        if isinstance(q, tuple):
            sid = self._id_by_coords.get(q)
            if sid is not None:
                return sid
        return self._id_by_coords.get(_canonical(q, self.n))

    def to_lines(self) -> list[str]:
        lines = [f"n={self.n}"]
        for cs in self._coords:
            lines.append(" ".join(str(c) for c in cs))
        return lines

    def fingerprint(self) -> str:
        return fingerprint_lines(self.to_lines())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetSystem)
            and self.n == other.n
            and self._coords == other._coords
        )

    def __repr__(self) -> str:
        return f"SetSystem(n={self.n}, sets={self.num_sets})"


class IntervalSystem:
    """All intervals over [1..n] with length in [min_len, max_len], implicitly.

    The sampler backend only needs the minimum length: every member of the
    family that contains a coordinate i also contains a window of exactly
    min_len coordinates through i, and that window is itself a member, so
    budget checks reduce to windows of the minimum length.
    """

    def __init__(self, n: int, min_len: int, max_len: int | None = None) -> None:
        max_len = max(n, min_len) if max_len is None else max_len
        if not 1 <= min_len <= max_len:
            raise ValueError("need 1 <= min_len <= max_len")
        self.n = n
        self.min_len = min_len
        self.max_len = min(max_len, n)  # min_len > n leaves the family empty

    @property
    def num_sets(self) -> int:
        a, b = self.min_len, self.max_len
        if a > self.n:
            return 0
        # sum of n - L + 1 over L in [a, b], in closed form
        return (b - a + 1) * (self.n + 1) - (a + b) * (b - a + 1) // 2

    def is_member(self, lo: int, hi: int) -> bool:
        return 1 <= lo <= hi <= self.n and self.min_len <= hi - lo + 1 <= self.max_len

    def member_interval(self, q) -> tuple[int, int] | None:
        iv = as_interval(q)
        if iv is None or not self.is_member(*iv):
            return None
        return iv

    def to_explicit(self) -> SetSystem:
        if self.num_sets > _MATERIALIZE_MAX_SETS:
            raise UniverseTooLarge(
                f"refusing to materialize {self.num_sets} interval sets"
            )
        masks = []
        for length in range(self.min_len, self.max_len + 1):
            base = (1 << length) - 1
            for lo in range(1, self.n - length + 2):
                masks.append(base << (lo - 1))
        return SetSystem(self.n, masks)

    def fingerprint(self) -> str:
        return fingerprint_lines(
            [f"intervals n={self.n} min={self.min_len} max={self.max_len}"]
        )

    def __repr__(self) -> str:
        return f"IntervalSystem(n={self.n}, len in [{self.min_len}, {self.max_len}])"


def fingerprint_lines(lines: list[str]) -> str:
    h = hashlib.blake2b("\n".join(lines).encode(), digest_size=8)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# text format


def parse_sets_lines(lines) -> SetSystem:
    """Parse the sets file format: `n=<int>` first, one set per line,
    space-separated ascending 1-based indices, `#` comments skipped."""
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
    return SetSystem(n, sets)


def read_sets_file(path) -> SetSystem:
    with open(path, "r", encoding="utf-8") as f:
        return parse_sets_lines(f)


def write_sets_file(path, system: SetSystem) -> None:
    # an IntervalSystem has no sets file text: its n alone reads back empty
    if not isinstance(system, SetSystem):
        raise TypeError(f"a sets file holds a SetSystem, got {type(system).__name__}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(system.to_lines()) + "\n")


# ---------------------------------------------------------------------------
# dimension computations


def _as_explicit(system) -> SetSystem:
    return system.to_explicit() if isinstance(system, IntervalSystem) else system


def _check_exact_budget(n: int) -> None:
    if n > EXACT_SEARCH_MAX_N:
        raise UniverseTooLarge(
            f"exact search supports n <= {EXACT_SEARCH_MAX_N}, got {n}"
        )


def hh_dim_exact(system) -> int:
    """Exact heavy-hitter dimension by search over binary vectors (n <= 24).

    Binary vectors suffice: isolation only depends on the support of v.
    """
    system = _as_explicit(system)
    _check_exact_budget(system.n)
    n, masks = system.n, system.masks
    best = 0
    for vm in range(1, 1 << n):
        if vm.bit_count() <= best:
            continue
        isolated = 0
        for m in masks:
            t = m & vm
            if t and t & (t - 1) == 0:
                isolated |= t
        if isolated.bit_count() > best:
            best = isolated.bit_count()
    return best


def hh_dim_greedy_lower(system, restarts: int = 8, seed: int = 0) -> int:
    """Greedy lower bound on the heavy-hitter dimension.

    Builds a permutation submatrix directly: keep columns C and one row per
    column with row . C = {column}; a new column c needs a row through c
    avoiding C, and c must avoid all used rows.  Multiple seeded column
    orders, best kept.  Refused for n above GREEDY_MAX_N.
    """
    if system.n > GREEDY_MAX_N:
        raise UniverseTooLarge(
            f"greedy lower bound supports n <= {GREEDY_MAX_N}, got {system.n}")
    system = _as_explicit(system)
    n, masks = system.n, system.masks
    if n == 0 or not masks:
        return 0
    orders = [list(range(1, n + 1))]
    rng = np.random.default_rng(derive_seed(seed, 0x9E37))
    for _ in range(max(0, restarts - 1)):
        perm = list(rng.permutation(n) + 1)
        orders.append([int(c) for c in perm])
    best = 0
    for order in orders:
        cols_mask = 0
        used_rows_union = 0
        count = 0
        for c in order:
            bit = 1 << (c - 1)
            if used_rows_union & bit:
                continue
            for m in masks:
                if m & bit and not (m & cols_mask):
                    cols_mask |= bit
                    used_rows_union |= m
                    count += 1
                    break
        best = max(best, count)
    return best


def vc_dim_exact(system) -> int:
    """Exact VC dimension via hereditary search over shattered sets (n <= 24)."""
    system = _as_explicit(system)
    _check_exact_budget(system.n)
    n, masks = system.n, system.masks
    if not masks:
        return 0
    current = [0]  # the empty set is shattered iff there is at least one set
    d = 0
    while True:
        nxt = set()
        for a in current:
            top = a.bit_length()
            for c in range(top, n):
                b = a | (1 << c)
                if b in nxt:
                    continue
                need = 1 << b.bit_count()
                traces = set()
                for m in masks:
                    traces.add(m & b)
                    if len(traces) == need:
                        break
                if len(traces) == need:
                    nxt.add(b)
        if not nxt:
            return d
        current = list(nxt)
        d += 1


# ---------------------------------------------------------------------------
# families


def family_singletons(n: int) -> SetSystem:
    if n > _MATERIALIZE_MAX_SETS:
        raise UniverseTooLarge(f"refusing to materialize {n} singleton sets")
    return SetSystem(n, ([i] for i in range(1, n + 1)))


def family_intervals(n: int, k: int) -> IntervalSystem:
    """All intervals [i..i'] with i' - i + 1 >= k."""
    return IntervalSystem(n, max(1, k))


def family_half_intervals(n: int) -> IntervalSystem:
    """The n/2 intervals [a, a + n/2] for a = 1..n/2 (n even): the family
    whose heavy-hitter dimension stays <= 3 while any turnstile-capable
    summary would need linear space."""
    if n % 2 or n < 2:
        raise ValueError("n must be even and >= 2")
    return IntervalSystem(n, n // 2 + 1, n // 2 + 1)


def family_missing_few(n: int, k: int) -> SetSystem:
    """All sets of size >= n - k."""
    if n > EXACT_SEARCH_MAX_N:
        raise UniverseTooLarge("missing-few family enumerates subsets; n <= 24")
    full = (1 << n) - 1
    lim = max(0, n - k)
    return SetSystem(n, (m for m in range(full, -1, -1) if m.bit_count() >= lim))


def family_random(n: int, k: int, q: float, seed: int) -> SetSystem:
    """k random sets, each coordinate included independently with density q.

    q is restricted to (0, 1/2]; dense random sets make the family trivial.
    The k x n draw is refused above FAMILY_RANDOM_MAX_CELLS cells.
    Reproducible from the seed.
    """
    if not 0.0 < q <= 0.5:
        raise ValueError(f"density q must be in (0, 1/2], got {q}")
    if k * n > FAMILY_RANDOM_MAX_CELLS:
        raise ValueError(f"{k} x {n} random family exceeds "
                         f"{FAMILY_RANDOM_MAX_CELLS} cells")
    rng = np.random.default_rng(derive_seed(seed, 0xFA11))
    rows = rng.random((k, n)) < q
    return SetSystem(n, [(np.flatnonzero(row) + 1).tolist() for row in rows])


def union_systems(s1, s2) -> SetSystem:
    """Union of two systems over the same universe (dedup preserved)."""
    s1, s2 = _as_explicit(s1), _as_explicit(s2)
    if s1.n != s2.n:
        raise UniverseMismatch(f"universe sizes differ: {s1.n} vs {s2.n}")
    return SetSystem(s1.n, s1.masks + s2.masks)


def union_product(s1, s2) -> SetSystem:
    """All pairwise unions {a | b : a in s1, b in s2}."""
    s1, s2 = _as_explicit(s1), _as_explicit(s2)
    if s1.n != s2.n:
        raise UniverseMismatch(f"universe sizes differ: {s1.n} vs {s2.n}")
    if s1.num_sets * s2.num_sets > _MATERIALIZE_MAX_SETS:
        raise UniverseTooLarge("union-product family too large to enumerate")
    return SetSystem(s1.n, (a | b for a in s1.masks for b in s2.masks))
