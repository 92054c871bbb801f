"""Value-stream adapter: expansion arithmetic, model guards, estimate quality."""

import numpy as np
import pytest

from subsetsketch.bounded_sampler import origin
from subsetsketch.errors import (
    ModelMismatch,
    StreamLengthExceeded,
    UniverseTooLarge,
)
from subsetsketch.l1_adapter import L1UniversalSketch, encode_arrival
from subsetsketch.setsystem import (
    IntervalSystem,
    SetSystem,
    family_random,
    hh_dim_exact,
)


def test_encode_decode_block_layout():
    cap = 7
    assert encode_arrival(1, 1, cap) == 1
    assert encode_arrival(1, 7, cap) == 7
    assert encode_arrival(2, 1, cap) == 8
    assert encode_arrival(3, 7, cap) == 21
    # the samplers' origin map sends each coordinate's ticks back to it
    sk = L1UniversalSketch(SetSystem(9, [range(1, 10)]), 0.5, seed=1, stream_capacity=cap)
    block = sk.inner.ladder[0].block
    ticks = np.arange(1, cap + 1)
    for coord in (1, 4, 9):
        assert (origin(encode_arrival(coord, ticks, cap), block) == coord).all()
        for tick in (1, 3, 7):
            assert origin(encode_arrival(coord, tick, cap), block) == coord


def test_small_stream_totals_exact():
    system = SetSystem(20, [range(1, 11), range(5, 18), [2, 9, 20]])
    sk = L1UniversalSketch(system, 0.2, seed=3)
    updates = [(1, 4), (9, 2), (9, 1), (20, 5), (13, 3), (2, 1)]
    totals = {}
    for coord, delta in updates:
        sk.update(coord, delta)
        totals[coord] = totals.get(coord, 0) + delta
    assert sk.clock == sum(d for _, d in updates)
    for j in range(system.num_sets):
        coords = system.coords_of(j)
        truth = sum(totals.get(c, 0) for c in coords)
        assert sk.query(coords) == float(truth)


def test_value_validation():
    system = SetSystem(8, [[1, 2, 3]])
    sk = L1UniversalSketch(system, 0.3, seed=1)
    with pytest.raises(ModelMismatch):
        sk.update(1, -2)
    with pytest.raises(ValueError):
        sk.update(1, 2.5)
    with pytest.raises(ValueError):
        sk.update(0, 1)
    with pytest.raises(ValueError):
        sk.update(9, 1)
    sk.update(2, 0)
    assert sk.clock == 0
    sk.update(2)
    assert sk.clock == 1
    sk.update(2, 3.0)  # integral floats are fine
    assert sk.clock == 4


def test_stream_capacity_enforced():
    system = SetSystem(5, [[1, 2]])
    sk = L1UniversalSketch(system, 0.3, seed=2, stream_capacity=10)
    sk.update(1, 6)
    sk.update(2, 4)
    assert sk.clock == 10
    with pytest.raises(StreamLengthExceeded):
        sk.update(1, 1)


def test_expanded_universe_guard():
    system = IntervalSystem(2 ** 21, 10)
    with pytest.raises(UniverseTooLarge):
        L1UniversalSketch(system, 0.3, seed=1)  # default capacity n**3 is too big
    with pytest.raises(ValueError):
        L1UniversalSketch(system, 0.3, seed=1, stream_capacity=0)


def test_unit_vs_batched_updates_match():
    system = IntervalSystem(30, 6)
    a = L1UniversalSketch(system, 0.4, seed=9, stream_capacity=500)
    b = L1UniversalSketch(system, 0.4, seed=9, stream_capacity=500)
    rng = np.random.default_rng(4)
    for _ in range(40):
        coord = int(rng.integers(1, 31))
        delta = int(rng.integers(1, 6))
        a.update(coord, delta)
        for _ in range(delta):
            b.update(coord)
    assert a.clock == b.clock
    assert a.inner.coarse.exact.support() == b.inner.coarse.exact.support()
    assert [s.support() for s in a.inner.ladder] == [s.support() for s in b.inner.ladder]
    q = range(3, 20)
    assert a.query(q) == b.query(q)


def _expanded_explicit(system, cap):
    sets = []
    for j in range(system.num_sets):
        coords = []
        for i in system.coords_of(j):
            coords.extend(range((i - 1) * cap + 1, i * cap + 1))
        sets.append(coords)
    return SetSystem(system.n * cap, sets)


def test_expansion_preserves_hh_dimension():
    for trial in range(8):
        system = family_random(6, 4, 0.4, seed=100 + trial)
        expanded = _expanded_explicit(system, 3)
        assert hh_dim_exact(expanded) == hh_dim_exact(system)


def test_interval_queries_exact_in_band():
    system = IntervalSystem(40, 8)
    sk = L1UniversalSketch(system, 0.3, seed=5)
    sk.update(3, 7)
    sk.update(12, 4)
    sk.update(36, 2)
    assert sk.query(range(1, 16)) == 11.0
    assert sk.query(range(30, 40)) == 2.0
    assert sk.query(range(16, 30)) == 0.0
    assert sk.coarse_query(range(16, 30)) == 0


def test_repeated_coordinate_accumulates():
    system = SetSystem(10, [[4], [4, 5]])
    sk = L1UniversalSketch(system, 0.25, seed=8)
    for _ in range(30):
        sk.update(4, 2)
    sk.update(5, 19)
    assert sk.query([4]) == 60.0
    assert sk.query([4, 5]) == 79.0


def test_query_resolves_member_once(member_id_calls):
    system = family_random(30, 8, 0.3, seed=3)
    sk = L1UniversalSketch(system, 0.5, seed=4, stream_capacity=2000)
    rng = np.random.default_rng(5)
    for c in rng.integers(1, 31, size=80):
        sk.update(int(c), int(rng.integers(1, 9)))
    for j in range(system.num_sets):
        before = len(member_id_calls)
        sk.query(system.coords_of(j))
        assert len(member_id_calls) == before + 1


def test_estimates_within_tolerance_bulk():
    system = family_random(100, 10, 0.35, seed=6)
    ok = total = 0
    for seed in range(12):
        sk = L1UniversalSketch(system, 0.2, seed=1000 + seed)
        rng = np.random.default_rng(seed)
        counts = np.zeros(101, dtype=np.int64)
        budget = 2000
        while budget > 0:
            coord = int(rng.integers(1, 101))
            delta = int(min(rng.zipf(1.8), 50, budget))
            sk.update(coord, delta)
            counts[coord] += delta
            budget -= delta
        for j in range(system.num_sets):
            coords = list(system.coords_of(j))
            truth = int(counts[coords].sum())
            total += 1
            if abs(sk.query(coords) - truth) <= 0.2 * max(truth, 1):
                ok += 1
    assert ok >= 0.9 * total


def test_seed_determinism():
    system = SetSystem(12, [range(1, 7), range(4, 13)])
    results = []
    for _ in range(2):
        sk = L1UniversalSketch(system, 0.3, seed=77)
        for coord, delta in [(2, 9), (5, 1), (11, 14), (2, 2)]:
            sk.update(coord, delta)
        results.append([sk.query(system.coords_of(j)) for j in range(2)])
    assert results[0] == results[1]


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 16])
def test_batch_in_chunks_equals_one_update_per_pair(monkeypatch, chunk):
    from subsetsketch import l1_adapter
    from subsetsketch.serialize import sketch_state

    system = family_random(40, 8, 0.3, seed=2)
    rng = np.random.default_rng(chunk)
    coords = rng.integers(1, 41, size=60)
    values = rng.integers(0, 25, size=60)  # zeros included
    per_pair = L1UniversalSketch(system, 0.4, seed=3, stream_capacity=5000)
    for c, v in zip(coords, values):
        per_pair.update(int(c), int(v))
    monkeypatch.setattr(l1_adapter, "_CHUNK_UNITS", chunk)
    batched = L1UniversalSketch(system, 0.4, seed=3, stream_capacity=5000)
    batched.update_many(coords[:25], values[:25])
    batched.update_many(coords[25:], values[25:])
    assert sketch_state(batched) == sketch_state(per_pair)


def test_batch_checked_whole_before_ingesting():
    system = SetSystem(5, [[1, 2]])
    sk = L1UniversalSketch(system, 0.3, seed=2, stream_capacity=10)
    with pytest.raises(StreamLengthExceeded):
        sk.update_many([1, 2, 1], [4, 5, 2])  # the third pair passes capacity
    with pytest.raises(ValueError):
        sk.update_many([1, 6], [1, 1])
    with pytest.raises(ModelMismatch):
        sk.update_many([1, 2], [1, -1])
    with pytest.raises(ValueError):
        sk.update_many([1, 2], [1])
    assert sk.clock == 0 and sk.inner.ladder[0].size == 0
    sk.update_many([1, 2], [6, 4])
    assert sk.clock == 10 and sk.query([1, 2]) == 10.0
