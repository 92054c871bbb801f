"""Budget-bounded coordinate sampler over a set system.

The sampler keeps a set H of (sampled) stream coordinates and evicts any
coordinate the declared set system no longer needs: i is needed while some
member set s containing i still has |s . H| <= budget.  Eviction is prompt
and proceeds in ascending coordinate order; since removing a coordinate only
lowers intersection counts, an eviction can never create a new eviction, so
one ascending sweep per insertion settles H.

Guarantees used by everything downstream (with xi the sampling indicators
and v the arrival indicator vector): |H| <= budget * hhdim, and per member
set s either all of supp(xi . s . v) landed in H, or |H . s| >= budget.

Two backends:

* explicit systems: per-set intersection counts, plus per covered
  coordinate (indexed by its position in `SetSystem.reverse_csr`) the kept
  coordinates over it and a slack counter, the number of its sets still at
  or below the budget.  Slack follows the counts alone and changes only
  when a set crosses between budget and budget + 1, by one update over the
  set's positions (`SetSystem.forward_index`); kept coordinates over an
  origin with zero slack are evictable.  No per-set copy of the kept
  coordinates exists: a member-set query reads its count, and a query that
  `subset_l0.resolve_member` tagged with its set id (`MemberCoords`) is
  answered from that id without a lookup.
* interval systems: neededness reduces to windows of the minimum member
  length L, since any member interval through i contains such a window
  through i and the window is itself a member.  Window counts live in one
  array updated by slice; eviction scans trigger only when a window
  crosses the budget.  A kept coordinate is evictable when none of the L
  windows over its origin holds at most the budget; one prefix count of
  the windows at or below it answers that for a whole run of origins, both
  after a live insertion and when a restored support is checked.

A `project` hook lets a caller run the sampler over a larger virtual
universe whose coordinates map many-to-one onto system coordinates; counts
and neededness are computed on the projected side, H stores virtual
coordinates.  The hook is arithmetic: it maps an int and, elementwise, an
int64 array.  It must map ascending blocks of virtual coordinates onto
ascending origins (as `l1_adapter`'s block map does), so that the smallest
kept coordinate over a set of origins lies over the smallest of them.  Both
backends evict alike: among the origins an insertion can have made
evictable, repeatedly the smallest kept coordinate of the smallest
evictable origin.

Counts only grow between evictions, and an arrival adds at most 1 to any
count.  So while room = budget - max(count) is at least `_BULK_MIN_ROOM`,
the next `room` distinct arrivals not already in H can neither evict, nor
be skipped as saturated, nor freeze the sampler: `insert_sampled`, given
arrivals whose xi is 1, commits them in one array pass per backend
(`add_many`), and only the rest goes through `insert_presampled`.
`restore_support` rebuilds a sampler from a saved support with the same
`add_many` on a fresh state, then checks that the result is settled.
`_SamplerPool` makes the xi decisions of many samplers, a block per
`coeff_mod_values` call; every support-sketch layer is a `_PoolFed`, fed
through one pool packed over its samplers (a `BoundedSampler` is a pool of
one), and `restore_support` checks a snapshot against the same decision.
"""

from __future__ import annotations

import heapq
from functools import cached_property

import numpy as np

from .hashing import PairwiseHash, bernoulli_threshold, coeff_mod_values
from .setsystem import IntervalSystem, SetSystem, as_interval

# the smallest room (and xi-filtered batch) that `insert_sampled` commits in
# bulk; below it the array passes cost more than per-coordinate inserts
_BULK_MIN_ROOM = 16


def checked_coords(coords, universe: int) -> np.ndarray:
    """`coords` as an int64 array, or ValueError naming the first coordinate
    outside [1, universe]."""
    try:
        arr = np.asarray(coords, dtype=np.int64)
        bad = arr[(arr < 1) | (arr > universe)]
    except OverflowError:  # beyond int64, so outside every universe
        bad = [c for c in coords if not 1 <= int(c) <= universe]
    if len(bad):
        raise ValueError(f"coordinate {bad[0]} outside universe [1, {universe}]")
    return arr


# xi decisions (samplers x batch items) that one hash call of a pool makes
_POOL_CHUNK_CELLS = 1 << 14


def _xi(coef: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """The sampling indicators over the coordinates `arr` of the samplers
    whose `sampling_coefficients` are the uint64 rows of `coef`, a row each."""
    return coeff_mod_values(coef[:, 0], coef[:, 1], arr) < coef[:, 2:]


class _SamplerPool:
    """Columnar xi decisions for a list of samplers over one universe.

    Packs each sampler's hash coefficients and acceptance threshold once;
    a batch is hashed for a block of samplers at a time (unless all are
    frozen), and each unfrozen one takes its hits, in stream order,
    through `insert_sampled`.
    A rate-1 sampler's threshold, 2^61 - 1, is above every hash value, so
    it takes every item.  Blocks group samplers, not items: a batch of m
    items is hashed for max(1, _POOL_CHUNK_CELLS // m) samplers per call,
    which bounds the hits held at once to one block's.
    """

    def __init__(self, samplers, universe: int) -> None:
        self.samplers = list(samplers)
        self.universe = universe
        self._coef = np.array([s.sampling_coefficients for s in self.samplers],
                              dtype=np.uint64).reshape(-1, 3)

    def update_many(self, coords) -> None:
        arr = checked_coords(coords, self.universe)
        step = max(1, _POOL_CHUNK_CELLS // max(arr.size, 1))
        for lo in range(0, len(self.samplers), step):
            part = slice(lo, lo + step)
            block = self.samplers[part]
            if all(s._frozen for s in block):
                continue
            xi = _xi(self._coef[part], arr)
            for i in np.flatnonzero(xi.any(axis=1)).tolist():
                if not block[i]._frozen:
                    block[i].insert_sampled(arr[xi[i]])


class _PoolFed:
    """A layer fed through one `_SamplerPool` over its `samplers` (set by
    the subclass, with `universe`), packed on first use: `update_many` is
    the pool's, and `update(c)` is `update_many((c,))`."""

    @cached_property
    def pool(self) -> _SamplerPool:
        return _SamplerPool(self.samplers, self.universe)

    def update(self, coord: int) -> None:
        self.update_many((coord,))

    def update_many(self, coords) -> None:
        self.pool.update_many(coords)


class BoundedSampler(_PoolFed):
    def __init__(
        self,
        system,
        budget: int,
        rate: float,
        seed: int,
        *,
        universe: int | None = None,
        project=None,
        vote_only: bool = False,
    ) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if not 0.0 < rate <= 1.0:
            raise ValueError("sampling rate must be in (0, 1]")
        if not isinstance(system, (IntervalSystem, SetSystem)):
            raise TypeError(f"unsupported system type: {type(system).__name__}")
        self.system = system
        self.budget = budget
        self.rate = rate
        self.seed = seed
        self.universe = system.n if universe is None else universe
        self.project = project
        # vote_only: the caller promises to only ever test intersection counts
        # against thresholds at most the budget.  Eviction preconditions keep a
        # set's count from ever dropping below the budget once reached, so an
        # arrival whose sets are all at the budget cannot flip any such test
        # and is skipped; once every member set is at the budget the sampler
        # freezes.  The subset-or-saturated guarantee survives: a skipped
        # coordinate's sets are all saturated.
        self.vote_only = bool(vote_only)
        self._impl = self._fresh_state()
        self._frozen = False
        self._hash = PairwiseHash(seed, n_max=self.universe)
        self._threshold = bernoulli_threshold(rate)
        self._h: set[int] = set()

    def _fresh_state(self):
        projected = self.project is not None
        if isinstance(self.system, IntervalSystem):
            return _IntervalState(self.system, self.budget, projected=projected,
                                  track_saturation=self.vote_only)
        return _ExplicitState(self.system, self.budget, projected=projected)

    # -- sampling ------------------------------------------------------------

    def sampled(self, coord: int) -> bool:
        """The fixed sampling indicator xi for a coordinate."""
        if self.rate >= 1.0:
            return True
        return self._hash.value(coord) < self._threshold

    @property
    def sampling_coefficients(self) -> tuple[int, int, int]:
        """(a, b, threshold): xi(c) = 1 iff (a*c + b) mod (2^61 - 1) < threshold.

        Lets a `_SamplerPool` batch the xi decisions of many samplers and
        hand each its hits through `insert_sampled`.
        """
        return self._hash.a, self._hash.b, self._threshold

    @property
    def samplers(self) -> list[BoundedSampler]:  # fed on its own, a pool of one
        return [self]

    # -- stream --------------------------------------------------------------

    def insert_presampled(self, coord: int) -> None:
        """Insert a coordinate whose sampling decision was made externally."""
        if self._frozen or coord in self._h:
            return
        orig = coord if self.project is None else self.project(coord)
        if not self._impl.has_sets(orig):
            return
        if self.vote_only and self._impl.saturated_for(orig):
            return
        self._h.add(coord)
        self._impl.insert(coord, orig)
        for victim in self._impl.drain_evictions():
            self._h.discard(victim)
        if self.vote_only and self._impl.fully_saturated:
            self._frozen = True

    def insert_sampled(self, arr: np.ndarray) -> None:
        """Insert, in stream order, an int64 array of arrivals whose xi the
        caller found to be 1: the eviction-free leading ones in bulk, the
        rest through `insert_presampled`."""
        if arr.size >= _BULK_MIN_ROOM:
            arr = arr[self._commit_bulk(arr):]
        for c in arr.tolist():
            if self._frozen:
                break
            self.insert_presampled(c)

    def _commit_bulk(self, arr: np.ndarray) -> int:
        """Commit the leading eviction-free arrivals of a sampled batch in
        array passes; return the position where per-coordinate inserts
        must resume.

        With room = budget - max(count), the next `room` fresh arrivals
        (distinct, not in H, in some member set) leave every count at most
        the budget, so none of them evicts or is skipped as saturated and
        the sampler can freeze only after the last; everything between them
        repeats a coordinate of H or touches no set, and is dropped.
        """
        room = self.budget - self._impl.max_count()
        if room < _BULK_MIN_ROOM:
            return 0
        uniq, first = np.unique(arr, return_index=True)
        origs = uniq if self.project is None else self.project(uniq)
        fresh = self._impl.touches_sets(origs)
        if self._h:
            h = self._h
            fresh &= np.fromiter((c not in h for c in uniq.tolist()),
                                 dtype=bool, count=uniq.size)
        order = np.argsort(first[fresh])
        pos = first[fresh][order]
        coords, origs = uniq[fresh][order], origs[fresh][order]
        done = 0
        while room >= _BULK_MIN_ROOM and done < coords.size:
            part = slice(done, done + room)
            self._impl.add_many(coords[part], origs[part])
            self._h.update(coords[part].tolist())
            done = min(done + room, coords.size)
            room = self.budget - self._impl.max_count()
        if self.vote_only and self._impl.fully_saturated:
            self._frozen = True
        return int(pos[done]) if done < coords.size else arr.size

    def restore_support(self, coords) -> None:
        """Rebuild bookkeeping from a settled support snapshot, in bulk.

        The result equals inserting the snapshot coordinate by coordinate
        in ascending order, sampling and saturation skips bypassed.  Counts
        only grow during such a replay, so it evicts something exactly when
        the final bookkeeping has an evictable coordinate; the bulk path
        computes that final bookkeeping directly and rejects the snapshot
        in that case.  It also rejects entries that are not ints,
        duplicates, coordinates outside the universe, coordinates this
        sampler's xi never samples and coordinates in no member set, none
        of which a saved sampler can hold.  A rejected snapshot leaves the
        sampler fresh.
        """
        if self._h:
            raise ValueError("restore requires a fresh sampler")
        coords = list(coords)
        if not set(map(type, coords)) <= {int}:
            bad = next(c for c in coords if type(c) is not int)
            raise ValueError(f"snapshot entry {bad!r} is not an integer coordinate")
        if not coords:
            return
        coords.sort()
        lo, hi = coords[0], coords[-1]
        if lo < 1 or hi > self.universe:
            bad = lo if lo < 1 else hi
            raise ValueError(f"snapshot coordinate {bad} outside universe [1, {self.universe}]")
        arr = np.array(coords, dtype=np.int64)
        dup = np.flatnonzero(arr[1:] == arr[:-1])
        if dup.size:
            raise ValueError(f"snapshot coordinate {arr[dup[0]]} appears twice")
        xi = _xi(np.array([self.sampling_coefficients], dtype=np.uint64), arr)[0]
        if not xi.all():
            raise ValueError(f"snapshot coordinate {arr[~xi][0]} is never sampled here")
        origs = arr if self.project is None else self.project(arr)
        hit = self._impl.touches_sets(origs)
        if not hit.all():
            raise ValueError(f"snapshot coordinate {arr[~hit][0]} touches no member set")
        try:
            self._impl.restore(arr, origs)
        except ValueError:
            self._impl = self._fresh_state()
            raise
        self._h = set(coords)
        if self.vote_only and self._impl.fully_saturated:
            self._frozen = True

    # -- queries ---------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._h)

    def support(self) -> list[int]:
        return sorted(self._h)

    def __contains__(self, coord: int) -> bool:
        return coord in self._h

    def intersection_count(self, q) -> int:
        """|H . s| for a coordinate collection q (projected side)."""
        return self._impl.intersection_count(q)


class _OriginState:
    """What both backends share: per origin, `per_orig` counts the kept
    coordinates; evictions queue in `_evicted` until drained.

    An eviction removes the smallest kept coordinate of the smallest
    candidate origin.  Unprojected, that coordinate is the origin itself;
    projected, `heaps` holds each origin's kept virtual coordinates as a
    `heapq` min-heap and the coordinate is its root.  `heaps` is None when
    the sampler is not projected."""

    def __init__(self, projected: bool) -> None:
        self.heaps: dict[int, list[int]] | None = {} if projected else None
        self._evicted: list[int] = []

    def _hold(self, coords: np.ndarray, origs: np.ndarray) -> None:
        if self.heaps is not None:
            for c, o in zip(coords.tolist(), origs.tolist()):
                heapq.heappush(self.heaps.setdefault(o, []), c)

    def _victim(self, origs: np.ndarray) -> tuple[int, int]:
        """The smallest kept coordinate over the candidate origins `origs`,
        and the index in `origs` of its origin."""
        i = int(origs.argmin())
        o = int(origs[i])
        return (o if self.heaps is None else self.heaps[o][0]), i

    def _forget(self, victim: int, vorig: int) -> None:
        if self.heaps is not None:
            heap = self.heaps[vorig]
            heapq.heappop(heap)
            if not heap:
                del self.heaps[vorig]
        self._evicted.append(victim)

    def drain_evictions(self):
        out = self._evicted
        self._evicted = []
        return out


class _ExplicitState(_OriginState):
    """Set-count backend.  `counts[j]` is |H . s_j| (projected side); the
    per-origin arrays are indexed by a coordinate's position in
    `SetSystem.reverse_csr`, so their size follows the covered coordinates.
    `slack` counts, for every covered coordinate, its sets at or below the
    budget: kept coordinates over an origin with zero slack are evictable."""

    def __init__(self, system: SetSystem, budget: int, *,
                 projected: bool = False) -> None:
        super().__init__(projected)
        self.system = system
        self.budget = budget
        self.counts = [0] * system.num_sets
        self._covered = system.reverse_csr[0]
        self._pos, self._by_set, degree = system.forward_index
        self.slack = degree.copy()
        self.per_orig = np.zeros(self._covered.size, dtype=np.int64)
        self._sat = 0  # member sets whose count has reached the budget

    def has_sets(self, orig: int) -> bool:
        return bool(self.system.ids_containing(orig))

    def saturated_for(self, orig: int) -> bool:
        u = self.budget
        return all(self.counts[j] >= u for j in self.system.ids_containing(orig))

    @property
    def fully_saturated(self) -> bool:
        return self.system.num_sets > 0 and self._sat == self.system.num_sets

    def insert(self, coord: int, orig: int) -> None:
        u = self.budget
        k = self._pos[orig]
        self.per_orig[k] += 1
        if self.heaps is not None:
            heapq.heappush(self.heaps.setdefault(orig, []), coord)
        counts = self.counts
        crossed = []
        for j in self.system.ids_containing(orig):
            c = counts[j] + 1
            counts[j] = c
            if c == u:
                self._sat += 1
            elif c == u + 1:
                crossed.append(j)
        if crossed:
            by_set = self._by_set
            for j in crossed:
                self.slack[by_set[j]] -= 1
            self._evict_region(np.concatenate([by_set[j] for j in crossed]))
        elif self.slack[k] == 0:
            self._evict_region(np.array([k]))

    def _evict_region(self, region: np.ndarray) -> None:
        # Only coordinates over `region` can have turned evictable, and
        # evictions only raise slack, so refiltering the same region after
        # each eviction implements repeated removal of the smallest
        # evictable coordinate.
        u = self.budget
        counts, slack, per_orig = self.counts, self.slack, self.per_orig
        while True:
            cand = region[(slack[region] == 0) & (per_orig[region] > 0)]
            if cand.size == 0:
                return
            origs = self._covered[cand]
            victim, i = self._victim(origs)
            vorig = int(origs[i])
            per_orig[cand[i]] -= 1
            for j in self.system.ids_containing(vorig):
                c = counts[j] - 1
                counts[j] = c
                if c == u - 1:
                    self._sat -= 1
                elif c == u:
                    slack[self._by_set[j]] += 1
            self._forget(victim, vorig)

    def max_count(self) -> int:
        return max(self.counts, default=0)

    def touches_sets(self, origs: np.ndarray) -> np.ndarray:
        covered = self._covered
        at = np.searchsorted(covered, origs)
        hit = at < covered.size
        hit[hit] = covered[at[hit]] == origs[hit]
        return hit

    def add_many(self, coords: np.ndarray, origs: np.ndarray) -> np.ndarray:
        """Insert distinct coordinates not held, each in some member set,
        and return the new counts as an array.  Slack is left as it was,
        which is right only where no set passes the budget (and then
        nothing is evicted)."""
        covered, indptr, index = self.system.reverse_csr
        at = np.searchsorted(covered, origs)
        starts = indptr[at]
        lens = indptr[at + 1] - starts
        # the set ids of every coordinate, one row after another
        row_at = np.cumsum(lens) - lens
        ids = index[np.arange(int(lens.sum())) + np.repeat(starts - row_at, lens)]
        added = np.bincount(ids, minlength=self.system.num_sets)
        counts = np.array(self.counts, dtype=np.int64) + added
        u = self.budget
        self._sat += int(np.count_nonzero((counts >= u) & (counts - added < u)))
        self.counts = counts.tolist()
        self.per_orig += np.bincount(at, minlength=covered.size)
        self._hold(coords, origs)
        return counts

    def restore(self, coords: np.ndarray, origs: np.ndarray) -> None:
        """Bookkeeping of a fresh state after inserting the ascending
        `coords` (with origins `origs`, each in some member set), or
        ValueError if that would evict."""
        counts = self.add_many(coords, origs)
        _, indptr, index = self.system.reverse_csr
        self.slack = np.add.reduceat(counts[index] <= self.budget, indptr[:-1],
                                     dtype=np.int64)
        if ((self.slack == 0) & (self.per_orig > 0)).any():
            raise ValueError("snapshot is not a settled support")

    def intersection_count(self, q) -> int:
        if self.system.n == 0:
            return 0
        if getattr(q, "system", None) is self.system:
            return self.counts[q.sid]
        sid = self.system.member_id(q)
        if sid is not None:
            return self.counts[sid]
        if isinstance(q, int):
            raise TypeError("mask queries must name a member set")
        pos, per_orig = self._pos, self.per_orig
        return sum(int(per_orig[pos[c]]) for c in map(int, q) if c in pos)


class _IntervalState(_OriginState):
    """Window-count backend; `w[t]` counts kept coordinates whose projection
    lies in the length-L window starting at t+1, L the minimum member length."""

    def __init__(self, system: IntervalSystem, budget: int, *,
                 projected: bool = False, track_saturation: bool = False) -> None:
        super().__init__(projected)
        self.system = system
        self.budget = budget
        self.n = system.n
        self.length = system.min_len
        self.num_windows = self.n - self.length + 1
        # int32 halves these per-sampler arrays of n entries; counts are <= n
        self.w = np.zeros(max(self.num_windows, 0), dtype=np.int32)
        self.per_orig = np.zeros(self.n + 1, dtype=np.int32)
        self._track = track_saturation
        self._sat_windows = 0

    def has_sets(self, orig: int) -> bool:
        return self.num_windows >= 1 and 1 <= orig <= self.n

    def saturated_for(self, orig: int) -> bool:
        # every member interval through orig contains a minimum-length window
        # through orig, and those windows are member sets themselves
        lo, hi = self._window_range(orig)
        return bool(self.w[lo : hi + 1].min() >= self.budget)

    @property
    def fully_saturated(self) -> bool:
        return (
            self._track
            and self.num_windows > 0
            and self._sat_windows == self.num_windows
        )

    def _window_range(self, orig: int) -> tuple[int, int]:
        lo = max(0, orig - self.length)
        hi = min(self.num_windows - 1, orig - 1)
        return lo, hi

    def insert(self, coord: int, orig: int) -> None:
        u = self.budget
        lo, hi = self._window_range(orig)
        self.w[lo : hi + 1] += 1
        if self._track:
            self._sat_windows += int(np.count_nonzero(self.w[lo : hi + 1] == u))
        self.per_orig[orig] += 1
        if self.heaps is not None:
            heapq.heappush(self.heaps.setdefault(orig, []), coord)
        sl = self.w[lo : hi + 1]
        if int(sl.min()) > u or bool((sl == u + 1).any()):
            self._evict_region(lo, hi)

    def max_count(self) -> int:
        return int(self.w.max()) if self.w.size else 0

    def touches_sets(self, origs: np.ndarray) -> np.ndarray:
        return (origs >= 1) & (origs <= self.n) & (self.num_windows >= 1)

    def add_many(self, coords: np.ndarray, origs: np.ndarray) -> None:
        """Insert distinct coordinates not held, each in some window, where
        no window passes the budget: nothing is evicted."""
        per_orig = np.bincount(origs, minlength=self.n + 1)
        below = np.cumsum(per_orig)  # below[c]: arrivals over [1, c]
        added = below[self.length :] - below[: self.num_windows]
        if self._track:
            u = self.budget
            self._sat_windows += int(np.count_nonzero(
                (self.w < u) & (self.w + added >= u)))
        self.w += added
        self.per_orig += per_orig
        self._hold(coords, origs)

    def restore(self, coords: np.ndarray, origs: np.ndarray) -> None:
        """Bookkeeping of a fresh state after inserting the ascending
        `coords` (with origins `origs`, each in some window), or ValueError
        if that would evict."""
        self.add_many(coords, origs)
        if self._evictable(1, self.n).size:
            raise ValueError("snapshot is not a settled support")

    def _evictable(self, clo: int, chi: int) -> np.ndarray:
        """The occupied origins c in [clo, chi] none of whose windows
        [c-L, c-1] holds at most the budget, ascending.  Window slots outside
        [0, num_windows) do not exist, so they never hold at most it."""
        length = self.length
        base = clo - length  # the window slot counted by under[1]
        lo, hi = max(0, base), min(self.num_windows, chi)
        # under[j]: windows at or below the budget among slots [base, base + j)
        under = np.zeros(chi - base + 1, dtype=np.int32)
        under[lo - base + 1 : hi - base + 1] = self.w[lo:hi] <= self.budget
        np.cumsum(under, dtype=np.int32, out=under)
        none_under = under[length:] == under[:-length]
        return np.nonzero(none_under & (self.per_orig[clo : chi + 1] > 0))[0] + clo

    def _evict_region(self, wlo: int, whi: int) -> None:
        # Only coordinates over windows [wlo, whi] can have turned evictable,
        # and evictions never create new evictable coordinates, so rescanning
        # the same origins after each eviction implements repeated removal of
        # the smallest evictable coordinate.
        u = self.budget
        clo, chi = wlo + 1, min(self.n, whi + self.length)
        while True:
            cand_origs = self._evictable(clo, chi)
            if cand_origs.size == 0:
                return
            victim, i = self._victim(cand_origs)
            vorig = int(cand_origs[i])
            lo, hi = self._window_range(vorig)
            self.w[lo : hi + 1] -= 1
            if self._track:
                self._sat_windows -= int(np.count_nonzero(self.w[lo : hi + 1] == u - 1))
            self.per_orig[vorig] -= 1
            self._forget(victim, vorig)

    def intersection_count(self, q) -> int:
        iv = as_interval(q)
        if iv is None:
            coords = sorted(set(int(c) for c in q))
            return int(sum(self.per_orig[c] for c in coords if 1 <= c <= self.n))
        a, b = iv
        a, b = max(1, a), min(self.n, b)
        if a > b:
            return 0
        return int(self.per_orig[a : b + 1].sum())
