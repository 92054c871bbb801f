import gc
import weakref

import numpy as np
import pytest

from subsetsketch.bounded_sampler import BoundedSampler, _ExplicitState, _IntervalState
from subsetsketch.hashing import PairwiseHash, bernoulli_threshold
from subsetsketch.setsystem import (
    IntervalSystem,
    SetSystem,
    family_intervals,
    hh_dim_exact,
)


class NaiveSampler:
    """Reference implementation straight from the contract: after each
    sampled insertion, repeatedly evict the smallest coordinate whose every
    containing set intersects the kept set in more than `budget` items."""

    def __init__(self, system: SetSystem, budget: int, rate: float, seed: int,
                 universe: int | None = None):
        self.system = system
        self.budget = budget
        self.rate = rate
        self.universe = system.n if universe is None else universe
        self._hash = PairwiseHash(seed, n_max=self.universe)
        self._thr = bernoulli_threshold(rate)
        self.h: set[int] = set()

    def sampled(self, i: int) -> bool:
        return self.rate >= 1.0 or self._hash.value(i) < self._thr

    def _evictable(self, c: int) -> bool:
        ids = self.system.ids_containing(c)
        return all(
            len(set(self.system.coords_of(j)) & self.h) > self.budget for j in ids
        )

    def update(self, i: int) -> None:
        if i in self.h or not self.sampled(i):
            return
        if not self.system.ids_containing(i):
            return
        self.h.add(i)
        while True:
            victim = next((c for c in sorted(self.h) if self._evictable(c)), None)
            if victim is None:
                return
            self.h.discard(victim)

    def support(self):
        return sorted(self.h)


def random_system(rng, n_max=24, sets_max=8):
    n = int(rng.integers(3, n_max))
    k = int(rng.integers(1, sets_max))
    masks = [int(rng.integers(1, 1 << n)) for _ in range(k)]
    return SetSystem(n, masks)


def test_matches_naive_on_random_explicit_systems():
    rng = np.random.default_rng(42)
    for trial in range(40):
        sys_ = random_system(rng)
        budget = int(rng.integers(1, 4))
        rate = [1.0, 0.5, 0.25][trial % 3]
        seed = trial * 7 + 1
        real = BoundedSampler(sys_, budget, rate, seed)
        ref = NaiveSampler(sys_, budget, rate, seed)
        stream = rng.integers(1, sys_.n + 1, size=150)
        for i, x in enumerate(stream):
            real.update(int(x))
            ref.update(int(x))
            assert real.support() == ref.support(), (trial, i)


def test_interval_backend_matches_explicit_backend():
    rng = np.random.default_rng(77)
    for trial in range(25):
        n = int(rng.integers(6, 36))
        lo = int(rng.integers(1, max(2, n // 2)))
        hi = int(rng.integers(lo, n + 1))
        fam = IntervalSystem(n, lo, hi)
        budget = int(rng.integers(1, 5))
        rate = [1.0, 0.4][trial % 2]
        seed = 1000 + trial
        a = BoundedSampler(fam, budget, rate, seed)
        b = BoundedSampler(fam.to_explicit(), budget, rate, seed)
        stream = rng.integers(1, n + 1, size=200)
        for i, x in enumerate(stream):
            a.update(int(x))
            b.update(int(x))
            assert a.support() == b.support(), (trial, i, n, lo, hi)


def test_budget_times_dimension_bounds_kept_set():
    rng = np.random.default_rng(5)
    for trial in range(20):
        sys_ = random_system(rng, n_max=14, sets_max=6)
        budget = int(rng.integers(1, 4))
        s = BoundedSampler(sys_, budget, 1.0, trial)
        for x in rng.integers(1, sys_.n + 1, size=300):
            s.update(int(x))
        assert s.size <= budget * hh_dim_exact(sys_)


def test_per_set_dichotomy():
    # every member set either kept all its sampled arrivals or already
    # intersects H in at least `budget` coordinates
    rng = np.random.default_rng(9)
    for trial in range(20):
        sys_ = random_system(rng, n_max=20, sets_max=7)
        budget = int(rng.integers(1, 4))
        rate = [1.0, 0.5][trial % 2]
        s = BoundedSampler(sys_, budget, rate, trial + 50)
        arrived: set[int] = set()
        stream = rng.integers(1, sys_.n + 1, size=250)
        for step, x in enumerate(stream):
            s.update(int(x))
            arrived.add(int(x))
            if step % 25 != 24:
                continue
            kept = set(s.support())
            for j in range(sys_.num_sets):
                coords = set(sys_.coords_of(j))
                sampled_arrivals = {
                    i for i in coords & arrived if s.sampled(i)
                }
                if len(sampled_arrivals) <= budget:
                    assert sampled_arrivals <= kept
                else:
                    assert len(kept & coords) >= budget


def test_eviction_order_hand_case():
    s = BoundedSampler(SetSystem(3, [[1, 2, 3]]), 2, 1.0, 0)
    for x in [1, 2, 3]:
        s.update(x)
    assert s.support() == [2, 3]


def test_evicted_coordinate_reenters_and_reevicts():
    s = BoundedSampler(SetSystem(3, [[1, 2, 3]]), 1, 1.0, 0)
    s.update(1)
    s.update(2)
    assert s.support() == [2]
    s.update(1)
    assert s.support() == [2]
    s.update(2)  # duplicate of kept coordinate: no-op
    assert s.support() == [2]


def test_coordinates_in_no_set_dropped():
    s = BoundedSampler(SetSystem(3, [[2]]), 2, 1.0, 0)
    s.update(1)
    s.update(3)
    assert s.size == 0
    s.update(2)
    assert s.support() == [2]


def test_update_many_equals_loop():
    rng = np.random.default_rng(12)
    sys_ = random_system(rng)
    stream = rng.integers(1, sys_.n + 1, size=400)
    a = BoundedSampler(sys_, 2, 0.5, 3)
    b = BoundedSampler(sys_, 2, 0.5, 3)
    a.update_many(stream)
    for x in stream:
        b.update(int(x))
    assert a.support() == b.support()


def test_projection_matches_naive_on_expanded_system():
    # virtual coordinate (i-1)*m + j projects to i; the expanded system has
    # one virtual set per original set
    n, m = 6, 4
    orig = SetSystem(n, [[1, 2, 3], [3, 4], [5, 6], [2, 5]])
    expanded = SetSystem(
        n * m,
        [
            [(i - 1) * m + j for i in orig.coords_of(t) for j in range(1, m + 1)]
            for t in range(orig.num_sets)
        ],
    )
    rng = np.random.default_rng(8)
    for budget in [1, 2, 3]:
        for rate in [1.0, 0.5]:
            seed = budget * 10 + int(rate * 2)
            real = BoundedSampler(orig, budget, rate, seed, block=m)
            ref = NaiveSampler(expanded, budget, rate, seed, universe=n * m)
            for x in rng.integers(1, n * m + 1, size=200):
                real.update(int(x))
                ref.update(int(x))
                assert real.support() == ref.support()


def test_projected_batches_match_naive_with_bulk_and_evictions(monkeypatch):
    # five virtual coordinates per origin, budgets above the bulk room, fed
    # in update_many batches: bulk commits, crossings and evictions that
    # choose among several virtual coordinates of one origin
    bulk_commits, shared_evictions = [], []
    add_many, forget = _ExplicitState.add_many, _ExplicitState._forget
    monkeypatch.setattr(_ExplicitState, "add_many", lambda self, c, o: (
        bulk_commits.append(c.size), add_many(self, c, o))[1])
    monkeypatch.setattr(_ExplicitState, "_forget", lambda self, v, o: (
        shared_evictions.append(len(self.heaps[o]) > 1), forget(self, v, o))[1])
    n, m = 24, 5
    rng = np.random.default_rng(31)
    orig = SetSystem(n, [np.flatnonzero(rng.random(n) < q) + 1
                         for q in (0.3, 0.5, 0.6, 0.7, 0.9)])
    expanded = SetSystem(n * m, [
        [(i - 1) * m + j for i in orig.coords_of(t) for j in range(1, m + 1)]
        for t in range(orig.num_sets)
    ])
    for budget in (16, 40):
        for rate in (1.0, 0.7):
            seed = budget + int(rate * 10)
            real = BoundedSampler(orig, budget, rate, seed, block=m)
            ref = NaiveSampler(expanded, budget, rate, seed, universe=n * m)
            for _ in range(30):
                batch = rng.integers(1, n * m + 1, size=int(rng.integers(1, 60)))
                real.update_many(batch)
                for x in batch:
                    ref.update(int(x))
                assert real.support() == ref.support()
    assert len(bulk_commits) >= 4
    assert sum(shared_evictions) >= 10


def test_projection_on_intervals_matches_expanded_naive():
    n, m = 6, 3
    fam = IntervalSystem(n, 2, 4)
    explicit = fam.to_explicit()
    expanded = SetSystem(
        n * m,
        [
            [(i - 1) * m + j for i in explicit.coords_of(t) for j in range(1, m + 1)]
            for t in range(explicit.num_sets)
        ],
    )
    rng = np.random.default_rng(21)
    real = BoundedSampler(fam, 2, 1.0, 5, block=m)
    ref = NaiveSampler(expanded, 2, 1.0, 5, universe=n * m)
    for x in rng.integers(1, n * m + 1, size=250):
        real.update(int(x))
        ref.update(int(x))
        assert real.support() == ref.support()


_ORIGINS = 60
_HEAP_SYSTEMS = {
    "explicit": SetSystem(_ORIGINS, [
        np.flatnonzero(np.random.default_rng(7).random(_ORIGINS) < q) + 1
        for q in (0.3, 0.5, 0.7, 0.9)]),
    "interval": IntervalSystem(_ORIGINS, 20),
}


@pytest.mark.parametrize("backend", list(_HEAP_SYSTEMS))
@pytest.mark.parametrize("m", [None, 4], ids=["unprojected", "projected"])
def test_heaps_hold_the_support_grouped_by_origin(monkeypatch, backend, m):
    # random batches with bulk commits and evictions: an unprojected sampler
    # keeps no heaps, a projected one keeps exactly each origin's kept
    # virtual coordinates
    system = _HEAP_SYSTEMS[backend]
    state = _IntervalState if backend == "interval" else _ExplicitState
    bulk, evicted = [], []
    add_many, forget = state.add_many, state._forget
    monkeypatch.setattr(state, "add_many", lambda self, c, o: (
        bulk.append(c.size), add_many(self, c, o))[1])
    monkeypatch.setattr(state, "_forget", lambda self, v, o: (
        evicted.append(v), forget(self, v, o))[1])
    universe = _ORIGINS * (m or 1)
    rng = np.random.default_rng(41)
    for budget, rate in ((16, 1.0), (24, 0.7)):
        s = BoundedSampler(system, budget, rate, budget, block=m or 1)
        for _ in range(30):
            s.update_many(rng.integers(1, universe + 1, size=int(rng.integers(1, 60))))
            if m is None:
                assert s._impl.heaps is None
                continue
            grouped: dict[int, list[int]] = {}
            for c in s.support():
                grouped.setdefault((c - 1) // m + 1, []).append(c)
            assert {o: sorted(h) for o, h in s._impl.heaps.items()} == grouped
    assert bulk and len(evicted) >= 10


def test_intersection_count_paths():
    sys_ = SetSystem(6, [[1, 2, 3], [4, 5]])
    s = BoundedSampler(sys_, 3, 1.0, 1)
    for x in [1, 2, 4, 6]:
        s.update(x)
    assert s.intersection_count([1, 2, 3]) == 2
    assert s.intersection_count([4, 5]) == 1
    assert s.intersection_count([2, 4]) == 2  # not a member set: counted directly

    fam = IntervalSystem(8, 2)
    t = BoundedSampler(fam, 5, 1.0, 2)
    for x in [1, 3, 3, 7]:
        t.update(x)
    assert t.intersection_count(range(1, 4)) == 2
    assert t.intersection_count(range(6, 9)) == 1
    assert t.intersection_count([1, 7]) == 2


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("vote_only", [False, True], ids=["plain", "vote_only"])
def test_interval_counts_follow_every_write(monkeypatch, block, vote_only):
    # interval counts read a prefix count kept between writes: query after
    # every bulk commit, single insert, eviction and restore, so that a
    # prefix surviving any of those writes shows as a wrong count
    writes = dict.fromkeys(("add_many", "insert", "_forget"), 0)
    for name in writes:
        def counted(self, *args, _name=name, _method=getattr(_IntervalState, name)):
            writes[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(_IntervalState, name, counted)
    n, length, budget = 150, 20, 16
    system = IntervalSystem(n, length)
    rng = np.random.default_rng(23 + block)
    ranges = [(1, n), (1, length), (n - length + 1, n), (13, 47), (30, 30)]
    ranges += [tuple(sorted(rng.integers(1, n + 1, size=2).tolist())) for _ in range(8)]

    def check(s):
        held = np.array(s.support(), dtype=np.int64)
        origs = (held - 1) // block + 1
        for lo, hi in ranges:
            want = int(np.count_nonzero((origs >= lo) & (origs <= hi)))
            assert s.intersection_count(range(lo, hi + 1)) == want

    def fresh():
        return BoundedSampler(system, budget, 1.0, 5, block=block, vote_only=vote_only)

    s = fresh()
    for step in range(90):
        if step % 15 == 14:
            restored = fresh()
            check(restored)  # builds the empty sampler's prefix first
            restored.restore_support(s.support())
            s = restored
        elif step % 3:
            s.update(int(rng.integers(1, n * block + 1)))
        else:
            s.update_many(rng.integers(1, n * block + 1, size=int(rng.integers(1, 40))))
        check(s)
    assert writes["add_many"] >= 4 and writes["insert"] >= 10 and writes["_forget"] >= 5


def test_sampling_rate_thins_stream():
    fam = family_intervals(1000, 1000)
    dense = BoundedSampler(fam, 10**9, 1.0, 3)
    thin = BoundedSampler(fam, 10**9, 0.1, 3)
    xs = np.arange(1, 1001)
    dense.update_many(xs)
    thin.update_many(xs)
    assert dense.size == 1000
    assert 40 <= thin.size <= 250
    kept = set(thin.support())
    assert all(thin.sampled(i) == (i in kept) for i in range(1, 1001))


def test_trailing_window_min_alignment():
    # _IntervalState._evictable against its definition: an occupied origin c
    # is evictable when no existing trailing window slot t in [c-L, c-1]
    # holds at most the budget
    rng = np.random.default_rng(2)
    n = 40
    for L in [1, 2, 3, 4, 5, 8, 13]:
        st = _IntervalState(IntervalSystem(n, L), 1)
        nw = st.num_windows
        for _ in range(30):
            st.budget = int(rng.integers(1, 6))
            st.w[:] = rng.integers(0, 8, size=nw)
            st.per_orig[1:] = rng.integers(0, 3, size=n)
            a, b = sorted(int(c) for c in rng.integers(1, n + 1, size=2))
            for clo, chi in [(1, n), (1, b), (a, n), (a, b), (nw, n), (nw, nw), (1, 1)]:
                naive = [c for c in range(clo, chi + 1)
                         if st.per_orig[c] > 0
                         and all(st.w[t] > st.budget
                                 for t in range(max(0, c - L), min(nw, c)))]
                assert st._evictable(clo, chi).tolist() == naive, (L, clo, chi)


def test_validation():
    sys_ = SetSystem(4, [[1, 2]])
    with pytest.raises(ValueError):
        BoundedSampler(sys_, 0, 1.0, 1)
    with pytest.raises(ValueError):
        BoundedSampler(sys_, 1, 0.0, 1)
    with pytest.raises(ValueError):
        BoundedSampler(sys_, 1, 1.5, 1)
    s = BoundedSampler(sys_, 1, 1.0, 1)
    with pytest.raises(ValueError):
        s.update(0)
    with pytest.raises(ValueError):
        s.update(5)
    with pytest.raises(ValueError):
        s.update(10**30)
    with pytest.raises(TypeError):
        BoundedSampler([[1, 2]], 1, 1.0, 1)
    for block in (0, -2, 2.0, 1.5, True, "3"):
        with pytest.raises(ValueError, match="block"):
            BoundedSampler(sys_, 1, 1.0, 1, block=block)


@pytest.mark.parametrize("system", [SetSystem(8, [[1, 2, 3], [3, 4]]), IntervalSystem(8, 3)],
                         ids=["explicit", "interval"])
def test_standalone_sampler_is_freed_without_the_cycle_collector(system):
    # fed on its own, a sampler is its own pool of one; that pool must not
    # keep the sampler alive once the caller drops it
    s = BoundedSampler(system, 2, 1.0, 1)
    s.update(3)
    s.update_many([1, 2, 4, 5])
    ref = weakref.ref(s)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del s
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_vote_only_clamped_counts_match_canonical_explicit():
    system = SetSystem(40, [range(1, 21), range(10, 36), [3, 7, 39]])
    u = 5
    a = BoundedSampler(system, u, 0.7, seed=11)
    b = BoundedSampler(system, u, 0.7, seed=11, vote_only=True)
    sampled_by_set = [set() for _ in range(system.num_sets)]
    rng = np.random.default_rng(2)
    for step, c in enumerate(rng.integers(1, 41, size=600)):
        c = int(c)
        a.update(c)
        b.update(c)
        if b.sampled(c):
            for j in system.ids_containing(c):
                sampled_by_set[j].add(c)
        if step % 7 == 0:
            for j in range(system.num_sets):
                q = system.coords_of(j)
                ca, cb = a.intersection_count(q), b.intersection_count(q)
                assert min(ca, u) == min(cb, u)
                # subset-or-saturated survives the skips
                assert sampled_by_set[j] <= set(b.support()) or cb >= u


def test_vote_only_clamped_counts_match_canonical_interval():
    system = IntervalSystem(40, 8)
    u = 4
    a = BoundedSampler(system, u, 0.6, seed=5)
    b = BoundedSampler(system, u, 0.6, seed=5, vote_only=True)
    queries = [range(1, 9), range(17, 25), range(30, 40), range(1, 41)]
    rng = np.random.default_rng(9)
    for step, c in enumerate(rng.integers(1, 41, size=700)):
        a.update(int(c))
        b.update(int(c))
        if step % 11 == 0:
            for q in queries:
                ca, cb = a.intersection_count(q), b.intersection_count(q)
                assert min(ca, u) == min(cb, u)


def test_vote_only_freezes_when_everything_saturates():
    system = SetSystem(30, [range(1, 16), range(10, 31)])
    u = 5
    b = BoundedSampler(system, u, 1.0, seed=3, vote_only=True)
    for c in range(1, 31):
        b.update(c)
    assert b._frozen
    snapshot = (b.support(), b.intersection_count(range(1, 16)))
    for c in range(1, 31):
        b.update(c + 0)  # frozen: no-ops
    b.update_many(list(range(1, 31)))
    assert (b.support(), b.intersection_count(range(1, 16))) == snapshot
    assert b.intersection_count(range(1, 16)) >= u
    assert b.intersection_count(range(10, 31)) >= u


def test_explicit_state_sized_by_covered_coordinates():
    from subsetsketch.serialize import sketch_from_state, sketch_state
    from subsetsketch.subset_l0 import L0UniversalSketch

    n = 10**12
    system = SetSystem(n, [[1, 7, n], [7, 5 * 10**11]])
    s = BoundedSampler(system, 2, 1.0, 3)
    s.update_many([1, 7, n, 7, 5 * 10**11])
    assert s.support() == [7, 5 * 10**11, n]  # 1 left when its only set passed 2
    again = BoundedSampler(system, 2, 1.0, 3)
    again.restore_support(s.support())
    for samp in (s, again):
        assert samp._impl.per_orig.size == samp._impl.slack.size == 4
        assert [samp.intersection_count(system.member(j)) for j in range(2)] == [2, 2]
        assert samp.intersection_count([1, 5 * 10**11, n]) == 2

    sk = L0UniversalSketch(system, 0.3, seed=3)
    sk.update_many([1, 7, n, 7, 5 * 10**11])
    loaded = sketch_from_state(sketch_state(sk))
    assert [loaded.query(system.member(j)) for j in range(2)] == [3.0, 2.0]
