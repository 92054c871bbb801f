"""Bulk sampler restore against the per-coordinate replay it replaces, and
the snapshots it refuses."""

import numpy as np
import pytest

from restore_oracle import bookkeeping, replay_restore
from subsetsketch.bounded_sampler import BoundedSampler
from subsetsketch.l1_adapter import L1UniversalSketch
from subsetsketch.serialize import _l0_slots, sketch_from_state, sketch_state
from subsetsketch.setsystem import IntervalSystem, SetSystem, family_random
from subsetsketch.subset_l0 import L0UniversalSketch


def _load_both(state, monkeypatch):
    """The sketch loaded by the bulk restore and by the replay."""
    bulk = sketch_from_state(state)
    with monkeypatch.context() as m:
        m.setattr(BoundedSampler, "restore_support", replay_restore)
        replayed = sketch_from_state(state)
    return bulk, replayed


def _samplers(sk):
    return [s for _, s in _l0_slots(getattr(sk, "inner", sk))]


def _assert_same_bookkeeping(state, monkeypatch):
    bulk, replayed = _load_both(state, monkeypatch)
    pairs = list(zip(_samplers(bulk), _samplers(replayed)))
    for a, b in pairs:
        assert bookkeeping(a) == bookkeeping(b)
    return pairs


def _explicit_l0():
    sk = L0UniversalSketch(family_random(150, 20, 0.3, seed=4), 0.3, seed=8)
    sk.update_many(np.random.default_rng(1).integers(1, 151, size=3000))
    return sk


def _interval_l0():
    sk = L0UniversalSketch(IntervalSystem(600, 150), 0.3, seed=2)
    sk.update_many(np.random.default_rng(2).integers(1, 601, size=3000))
    return sk


def _projected_l1():
    sk = L1UniversalSketch(family_random(80, 15, 0.3, seed=6), 0.3, seed=5,
                           stream_capacity=20_000)
    rng = np.random.default_rng(3)
    for c in rng.integers(1, 81, size=200):
        sk.update(int(c), int(rng.integers(1, 40)))
    return sk


def test_bulk_matches_replay_explicit_l0(monkeypatch):
    pairs = _assert_same_bookkeeping(sketch_state(_explicit_l0()), monkeypatch)
    assert sum(a.size for a, _ in pairs) > 0


def test_bulk_matches_replay_interval_l0(monkeypatch):
    pairs = _assert_same_bookkeeping(sketch_state(_interval_l0()), monkeypatch)
    # the exact detector saw every window reach the budget
    assert any(a._frozen for a, _ in pairs)


def test_bulk_matches_replay_projected_l1(monkeypatch):
    pairs = _assert_same_bookkeeping(sketch_state(_projected_l1()), monkeypatch)
    # virtual coordinates, each projected onto its block's origin
    assert any(c != o for a, _ in pairs
               for o, held in a._impl.heaps.items() for c in held)


def test_bulk_matches_replay_all_empty(monkeypatch):
    for sk in (L0UniversalSketch(IntervalSystem(300, 40), 0.3, seed=1),
               L0UniversalSketch(family_random(60, 10, 0.3, seed=1), 0.3, seed=1)):
        pairs = _assert_same_bookkeeping(sketch_state(sk), monkeypatch)
        assert all(a.size == 0 and not a._frozen for a, _ in pairs)


@pytest.mark.parametrize("system", [
    SetSystem(12, [[1, 2, 3, 4], [3, 4, 5, 6, 7], [8, 9, 10], [10, 11, 12]]),
    IntervalSystem(12, 4),
], ids=["explicit", "interval"])
def test_frozen_vote_only_sampler_matches_replay(system):
    live = BoundedSampler(system, 2, 1.0, 3, vote_only=True)
    for c in range(1, 13):
        live.update(c)
    assert live._frozen
    bulk = BoundedSampler(system, 2, 1.0, 3, vote_only=True)
    bulk.restore_support(live.support())
    replayed = BoundedSampler(system, 2, 1.0, 3, vote_only=True)
    replay_restore(replayed, live.support())
    assert bookkeeping(bulk) == bookkeeping(replayed)
    assert bulk._frozen


@pytest.mark.parametrize("make", [_explicit_l0, _interval_l0, _projected_l1],
                         ids=["explicit-l0", "interval-l0", "l1"])
def test_loaded_sketch_keeps_consuming_like_the_original(make):
    live = make()
    loaded = sketch_from_state(sketch_state(live))
    rng = np.random.default_rng(9)
    if isinstance(live, L1UniversalSketch):
        for c in rng.integers(1, live.system.n + 1, size=60):
            live.update(int(c), 5)
            loaded.update(int(c), 5)
    else:
        more = rng.integers(1, live.system.n + 1, size=2000)
        live.update_many(more)
        loaded.update_many(more)
    assert sketch_state(loaded) == sketch_state(live)


# ---------------------------------------------------------------------------
# snapshots the bulk restore refuses, on both backends

EXPLICIT = SetSystem(10, [[1, 2, 3, 4], [3, 4, 5, 6], [7, 8]])
INTERVALS = IntervalSystem(10, 3)


def _fresh(system, rate=1.0):
    return BoundedSampler(system, 2, rate, 11)


@pytest.fixture(params=[EXPLICIT, INTERVALS], ids=["explicit", "interval"])
def system(request):
    return request.param


@pytest.mark.parametrize("entry", [2.5, True, None, "3", [3]])
def test_rejects_non_integer_entry(system, entry):
    with pytest.raises(ValueError, match="not an integer"):
        _fresh(system).restore_support([1, entry])


def test_rejects_duplicate(system):
    with pytest.raises(ValueError, match="appears twice"):
        _fresh(system).restore_support([2, 1, 2])


@pytest.mark.parametrize("coord", [0, -4, 11, 2**70])
def test_rejects_coordinate_outside_universe(system, coord):
    with pytest.raises(ValueError, match="outside universe"):
        _fresh(system).restore_support([1, coord])


def test_rejects_coordinate_never_sampled(system):
    samp = _fresh(system, rate=0.5)
    never = next(c for c in range(1, 11) if not samp.sampled(c))
    kept = next(c for c in range(1, 11) if samp.sampled(c))
    samp.restore_support([kept])  # the same sampler takes a sampled one
    with pytest.raises(ValueError, match="never sampled"):
        _fresh(system, rate=0.5).restore_support([kept, never])


def test_rejects_coordinate_in_no_member_set():
    with pytest.raises(ValueError, match="no member set"):
        _fresh(EXPLICIT).restore_support([1, 9])
    with pytest.raises(ValueError, match="no member set"):
        _fresh(IntervalSystem(10, 11)).restore_support([1])


@pytest.mark.parametrize("system,support", [
    (EXPLICIT, [1, 2, 3]),      # the set [1, 2, 3, 4] holds 3 > budget 2
    (EXPLICIT, [1, 2, 3, 4]),   # every set through 1 and 2 is over budget
    (INTERVALS, [1, 2, 3]),     # the only window through 1 holds 3
    (INTERVALS, [4, 5, 6, 7, 8]),  # every window through 6 holds 3
], ids=["explicit", "explicit-full", "interval", "interval-middle"])
def test_rejects_unsettled_snapshot(system, support):
    for restore in (BoundedSampler.restore_support, replay_restore):
        with pytest.raises(ValueError, match="not a settled support"):
            restore(_fresh(system), support)


def test_failed_restore_leaves_sampler_fresh(system):
    samp = _fresh(system)
    with pytest.raises(ValueError):
        samp.restore_support([1, 2, 3])
    samp.restore_support([1, 2])
    assert samp.support() == [1, 2]
