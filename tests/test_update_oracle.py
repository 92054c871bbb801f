"""Bulk `BoundedSampler.update_many`, and the sampler pool of a whole
sketch, against the per-coordinate insert loop they replace: every
bookkeeping field must agree after every batch."""

import json

import numpy as np
import pytest

from restore_oracle import bookkeeping, update_per_coordinate
from subsetsketch import bounded_sampler
from subsetsketch.bounded_sampler import BoundedSampler
from subsetsketch.cli import main
from subsetsketch.l1_adapter import L1UniversalSketch
from subsetsketch.serialize import _l0_slots, sketch_state
from subsetsketch.setsystem import IntervalSystem, SetSystem, family_random
from subsetsketch.subset_l0 import L0UniversalSketch


@pytest.fixture
def calls(monkeypatch):
    """Counts of bulk commits and of evicted coordinates from now on."""
    seen = {"add_many": 0, "evicted": 0}
    for cls in (bounded_sampler._ExplicitState, bounded_sampler._IntervalState):
        add, forget = cls.add_many, cls._forget

        def counted_add(self, coords, origs, add=add):
            seen["add_many"] += coords.size > 0
            return add(self, coords, origs)

        def counted_forget(self, victim, vorig, forget=forget):
            seen["evicted"] += 1
            forget(self, victim, vorig)

        monkeypatch.setattr(cls, "add_many", counted_add)
        monkeypatch.setattr(cls, "_forget", counted_forget)
    return seen


def _assert_batches_agree(make, batches):
    bulk, oracle = make(), make()
    for batch in batches:
        bulk.update_many(batch)
        update_per_coordinate(oracle, batch)
        assert bookkeeping(bulk) == bookkeeping(oracle)
    return bulk


EXPLICIT = family_random(150, 8, 0.4, seed=4)
INTERVALS = IntervalSystem(300, 60)


@pytest.mark.parametrize("system", [EXPLICIT, INTERVALS], ids=["explicit", "interval"])
@pytest.mark.parametrize("vote_only", [False, True], ids=["plain", "vote-only"])
@pytest.mark.parametrize("budget", [5, 15, 16, 40])
def test_batches_match_per_coordinate_inserts(calls, system, vote_only, budget):
    rng = np.random.default_rng(budget)
    # repeats inside a batch, and re-arrivals in later batches
    batches = [rng.integers(1, system.n + 1, size=m) for m in (300, 40, 17, 500)]
    for rate in (1.0, 0.5):
        _assert_batches_agree(
            lambda: BoundedSampler(system, budget, rate, 7, vote_only=vote_only),
            batches)
    if budget < bounded_sampler._BULK_MIN_ROOM:
        assert calls["add_many"] == 0
    else:
        assert calls["add_many"] > 0
    if not vote_only:
        assert calls["evicted"] > 0  # bulk first, then the evicting inserts


def test_rearrival_after_eviction_within_and_across_batches(calls):
    # one set: every arrival past the budget evicts the smallest kept
    # coordinate, which the second pass then brings back
    system = SetSystem(40, [range(1, 41)])
    batch = np.concatenate([np.arange(1, 41), np.arange(1, 41)])
    samp = _assert_batches_agree(lambda: BoundedSampler(system, 20, 1.0, 3),
                                 [batch, batch[::-1], batch])
    assert calls["add_many"] > 0 and calls["evicted"] > 40
    assert samp.size == 20


@pytest.mark.parametrize("system", [
    SetSystem(30, [range(1, 17)]),
    IntervalSystem(16, 16),
], ids=["explicit", "interval"])
def test_freeze_at_the_end_of_a_bulk_commit(calls, system):
    # the 16 fresh arrivals fill the one member set to the budget
    batch = [5, 5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 3, 1, 2]
    samp = _assert_batches_agree(
        lambda: BoundedSampler(system, 16, 1.0, 2, vote_only=True), [batch, batch])
    assert samp._frozen and calls["add_many"] == 1


@pytest.mark.parametrize("system", [
    SetSystem(60, [range(1, 31), range(20, 51), range(31, 61)]),
    IntervalSystem(60, 20),
], ids=["explicit", "interval"])
def test_freeze_in_the_per_coordinate_rest(calls, system):
    # every coordinate three times over: all sets saturate during the first
    # pass, after the bulk commit, and the rest of the batch is skipped
    batch = np.tile(np.random.default_rng(5).permutation(60) + 1, 3)
    samp = _assert_batches_agree(
        lambda: BoundedSampler(system, 16, 1.0, 2, vote_only=True), [batch])
    assert samp._frozen and calls["add_many"] == 1


def test_coordinates_in_no_set_and_no_windows(calls):
    rng = np.random.default_rng(8)
    batches = [rng.integers(1, 41, size=200) for _ in range(3)]
    holes = SetSystem(40, [range(1, 11), range(5, 21), [22, 24, 26]])  # 27..40 in none
    samp = _assert_batches_agree(lambda: BoundedSampler(holes, 20, 1.0, 1), batches)
    assert max(samp.support()) <= 26 and calls["add_many"] > 0
    too_long = IntervalSystem(40, 41)  # min_len > n: no member sets at all
    samp = _assert_batches_agree(lambda: BoundedSampler(too_long, 20, 1.0, 1), batches)
    assert samp.size == 0


@pytest.mark.parametrize("system", [EXPLICIT, INTERVALS], ids=["explicit", "interval"])
def test_projected_samplers(calls, system):
    cap = 30
    rng = np.random.default_rng(2)
    batches = [rng.integers(1, system.n * cap + 1, size=m) for m in (400, 25, 900)]
    for vote_only in (False, True):
        _assert_batches_agree(
            lambda: BoundedSampler(system, 20, 1.0, 9, block=cap, vote_only=vote_only),
            batches)
    assert calls["add_many"] > 0 and calls["evicted"] > 0


def _samplers(sk):
    return [s for _, s in _l0_slots(getattr(sk, "inner", sk))]


def _per_sampler(layer, coords):
    for s in layer.samplers:
        update_per_coordinate(s, coords)


@pytest.mark.parametrize("make", [
    lambda: L0UniversalSketch(family_random(80, 12, 0.3, seed=2), 0.3, seed=4),
    lambda: L0UniversalSketch(IntervalSystem(400, 100), 0.3, seed=4),
    lambda: L1UniversalSketch(family_random(60, 10, 0.3, seed=3), 0.3, seed=6,
                              stream_capacity=50_000),
], ids=["explicit-l0", "interval-l0", "l1"])
def test_whole_sketches_match(monkeypatch, make):
    # the oracle side feeds every sampler of the sketch's pool on its own,
    # with its own xi filter, in place of the pool's columnar decisions
    rng = np.random.default_rng(11)
    bulk, oracle = make(), make()
    n = bulk.system.n
    coords = rng.integers(1, n + 1, size=400)
    values = rng.integers(1, 30, size=400)
    l1 = isinstance(bulk, L1UniversalSketch)

    def batches(sk, part):
        if l1:
            sk.update_many(coords[part], values[part])
        else:
            sk.update_many(np.repeat(coords[part], 3))

    def one_item(sk, part):  # one unit per call
        for c in coords[part].tolist():
            if l1:
                sk.update(c, 1)
            else:
                sk.update(c)

    for feed, part in ((batches, slice(0, 150)), (batches, slice(150, 400)),
                       (one_item, slice(0, 80))):
        feed(bulk, part)
        with monkeypatch.context() as m:
            m.setattr(bounded_sampler._PoolFed, "update_many", _per_sampler)
            feed(oracle, part)
        for a, b in zip(_samplers(bulk), _samplers(oracle)):
            assert bookkeeping(a) == bookkeeping(b)


def _random_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 150))
    if rng.random() < 0.4:
        system = IntervalSystem(n, int(rng.integers(1, n + 3)))
    else:
        system = SetSystem(n, [np.flatnonzero(rng.random(n) < rng.uniform(0.02, 0.6)) + 1
                               for _ in range(int(rng.integers(1, 25)))])
    block = int(rng.integers(2, 40)) if rng.random() < 0.3 else 1
    budget = int(rng.choice([1, 3, 10, 15, 16, 17, 20, 40, 100]))
    rate = float(rng.choice([1.0, 1.0, 0.5, 0.25]))
    vote_only = bool(rng.random() < 0.5)
    top = system.n * block
    batches = [rng.integers(1, int(rng.integers(1, top + 1)) + 1,
                            size=int(rng.integers(0, 300)))
               for _ in range(int(rng.integers(1, 5)))]
    return (lambda: BoundedSampler(system, budget, rate, seed, block=block,
                                   vote_only=vote_only)), batches


@pytest.mark.parametrize("block", range(4))
def test_random_cases(block):
    for seed in range(50 * block, 50 * (block + 1)):
        _assert_batches_agree(*_random_case(seed))


def test_cli_l1_state_equals_per_unit_updates(tmp_path, capsys):
    system = family_random(50, 12, 0.3, seed=5)
    sets = tmp_path / "sets.txt"
    sets.write_text("\n".join(system.to_lines()) + "\n")
    rng = np.random.default_rng(6)
    pairs = [(int(c), int(v)) for c, v in zip(rng.integers(1, 51, size=120),
                                              rng.integers(1, 40, size=120))]
    stream = tmp_path / "stream.txt"
    stream.write_text("# model=insertion n=50\n"
                      + "".join(f"{c} {v}\n" for c, v in pairs))
    out = tmp_path / "state.json"
    assert main(["build", "--sketch", "l1", "--stream", str(stream), "--sets", str(sets),
                 "--eps", "0.3", "--seed", "4", "--capacity", "10000",
                 "--out", str(out)]) == 0
    state = json.loads(out.read_text())
    per_unit = L1UniversalSketch(system, 0.3, state["seeds"]["master"],
                                 stream_capacity=10_000)
    for c, v in pairs:
        for _ in range(v):
            per_unit.update(c, 1)
    assert sketch_state(per_unit) == state
