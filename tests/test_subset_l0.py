"""Threshold detectors, the coarse bracket, and the full support-size sketch."""

import logging

import numpy as np
import pytest

from restore_oracle import bookkeeping
from subsetsketch import subset_l0
from subsetsketch.bounded_sampler import BoundedSampler
from subsetsketch.ensemble import MedianEnsemble
from subsetsketch.errors import QueryNotInSystem
from subsetsketch.l1_adapter import L1UniversalSketch
from subsetsketch.serialize import _l0_slots
from subsetsketch.setsystem import IntervalSystem, SetSystem, family_random
from subsetsketch.subset_l0 import (
    DETECTOR_BUDGET,
    CoarseL0Estimator,
    L0UniversalSketch,
    ThresholdDetector,
    detector_repetitions,
    resolve_member,
)

TINY = SetSystem(16, [range(1, 17)])
FULL_400 = SetSystem(400, [range(1, 401)])
FULL_10K = SetSystem(10_000, [range(1, 10_001)])


def _planted_stream(n, count, seed):
    """Support of the given size plus ~30% duplicate arrivals, shuffled."""
    rng = np.random.default_rng(seed)
    support = rng.choice(np.arange(1, n + 1), size=count, replace=False)
    stream = np.concatenate([support, rng.choice(support, size=count // 3)])
    rng.shuffle(stream)
    return support, stream


@pytest.mark.parametrize(
    "n,expect",
    [(2, 5), (16, 5), (1000, 7), (10_000, 9), (10**6, 9), (10**8, 11)],
)
def test_detector_repetitions_frozen(n, expect):
    assert detector_repetitions(n) == expect
    assert detector_repetitions(n) % 2 == 1


def test_resolve_member_interval_forms():
    system = IntervalSystem(30, 5)
    assert resolve_member(system, range(3, 11)) == range(3, 11)
    assert resolve_member(system, [7, 8, 9, 10, 11]) == range(7, 12)
    with pytest.raises(QueryNotInSystem):
        resolve_member(system, [7, 9, 10, 11, 13])  # not contiguous
    with pytest.raises(QueryNotInSystem):
        resolve_member(system, range(2, 5))  # shorter than min_len


def test_resolve_member_explicit_forms():
    system = SetSystem(8, [[1, 2, 5], [3, 4]])
    assert tuple(resolve_member(system, [5, 1, 2])) == (1, 2, 5)
    with pytest.raises(QueryNotInSystem):
        resolve_member(system, [1, 2])


def test_explicit_query_resolves_member_once(member_id_calls):
    system = family_random(60, 12, 0.3, seed=4)
    sk = L0UniversalSketch(system, 0.5, seed=2)
    sk.update_many(np.random.default_rng(1).integers(1, 61, size=400))
    for j in range(system.num_sets):
        before = len(member_id_calls)
        sk.query(list(reversed(system.coords_of(j))))
        assert len(member_id_calls) == before + 1


def test_tagged_member_of_another_system_is_looked_up():
    a = SetSystem(8, [[1, 2], [3, 4]])
    b = SetSystem(8, [[3, 4], [1, 2]])
    samp = BoundedSampler(b, 5, 1.0, seed=0)
    samp.update_many([1, 2, 3])
    assert samp.intersection_count(a.member(0)) == 2
    assert samp.intersection_count(a.member(1)) == 1
    assert samp.intersection_count(b.member(0)) == 1


def test_exact_detector_matches_truth():
    system = SetSystem(60, [range(1, 31), range(20, 55), [3, 9, 40, 58]])
    rng = np.random.default_rng(17)
    support = rng.choice(np.arange(1, 61), size=25, replace=False)
    sup = set(int(c) for c in support)
    for r in (1, 2, 5, 17, 30):
        det = ThresholdDetector(system, r, seed=r)
        det.update_many(support)
        for j in range(system.num_sets):
            coords = system.coords_of(j)
            truth = len(sup & set(coords)) >= r
            assert det.query(coords) is truth


def test_exact_detector_saturation_boundary():
    system = SetSystem(300, [range(1, 301)])
    full = np.arange(1, 301)
    det = ThresholdDetector(system, 100, seed=1)
    det.update_many(full[:250])  # capped at the budget, still >= 100
    assert det.query(range(1, 301)) is True

    det = ThresholdDetector(system, 100, seed=2)
    det.update_many(full[:99])
    assert det.query(range(1, 301)) is False

    det = ThresholdDetector(system, 99, seed=3)
    det.update_many(full[:99])
    assert det.query(range(1, 301)) is True


def test_sampled_detector_votes_above_and_below():
    q = range(1, 10_001)
    for seed in range(25):
        det = ThresholdDetector(FULL_10K, 400, seed=seed)
        assert det.rate == 0.25
        _, stream = _planted_stream(10_000, 800, 5_000 + seed)
        det.update_many(stream)
        assert det.query(q) is True
    for seed in range(25):
        det = ThresholdDetector(FULL_10K, 400, seed=seed)
        _, stream = _planted_stream(10_000, 200, 6_000 + seed)
        det.update_many(stream)
        assert det.query(q) is False


def test_shared_exact_update_is_owner_driven():
    shared = BoundedSampler(FULL_400, DETECTOR_BUDGET, 1.0, seed=1)
    det = ThresholdDetector(FULL_400, 5, seed=2, shared_exact=shared)
    assert det.samplers == []
    det.update(7)
    assert shared.size == 0  # the owner feeds the shared sampler
    shared.update(7)
    assert det.query(range(1, 401)) is False  # one arrival < threshold 5


@pytest.mark.parametrize("count,expect", [(0, 0), (1, 8), (4, 32), (5, 32), (15, 64)])
def test_coarse_hand_traces(count, expect):
    # n=16 keeps every bank at rate 1, so these traces are deterministic
    est = CoarseL0Estimator(TINY, seed=5)
    est.update_many(np.arange(1, count + 1))
    assert est.query(range(1, 17)) == expect


def test_coarse_fallback_logs_anomaly(caplog):
    est = CoarseL0Estimator(TINY, seed=5)
    est.update_many(np.arange(1, 17))  # full power-of-two universe
    with caplog.at_level(logging.WARNING):
        z = est.query(range(1, 17))
    assert z == 128
    assert any("fallback" in rec.message for rec in caplog.records)


def test_coarse_bracket_monte_carlo():
    # count 150 sits between fuzzy bands, so z = 1024 except on rare seeds
    in_bracket = 0
    exact_z = 0
    for seed in range(100):
        est = CoarseL0Estimator(FULL_400, seed=seed)
        _, stream = _planted_stream(400, 150, 9_000 + seed)
        est.update_many(stream)
        z = est.query(range(1, 401))
        if 150 < z < 8 * 150:
            in_bracket += 1
        if z == 1024:
            exact_z += 1
    assert in_bracket >= 95
    assert exact_z >= 90


def test_coarse_deterministic_below_budget():
    # counts under the budget cannot saturate any sampled bank, so the
    # bracket is seed-independent: first dissent at threshold 128
    for seed in (1, 2, 3):
        est = CoarseL0Estimator(FULL_400, seed=seed)
        est.update_many(np.arange(10, 80))  # 70 occupied coordinates
        assert est.query(range(1, 401)) == 512


def test_sketch_exact_regime_matches_truth():
    system = family_random(200, 12, 0.3, seed=4)
    for seed in (11, 12, 13):
        sk = L0UniversalSketch(system, 0.5, seed)
        rng = np.random.default_rng(100 + seed)
        support = rng.choice(np.arange(1, 201), size=100, replace=False)
        sk.update_many(support)
        sup = set(int(c) for c in support)
        for j in range(system.num_sets):
            coords = system.coords_of(j)
            assert sk.query(coords) == float(len(sup & set(coords)))


def test_sketch_sampled_level_estimates():
    ok = 0
    levels_used = set()
    for seed in range(60):
        sk = L0UniversalSketch(FULL_400, 0.5, 777 + seed)
        _, stream = _planted_stream(400, 150, 20_000 + seed)
        sk.update_many(stream)
        levels_used.add(sk.level_for(sk.coarse_query(range(1, 401))))
        if abs(sk.query(range(1, 401)) - 150) <= 0.5 * 150:
            ok += 1
    assert max(levels_used) >= 2  # the rescaled sampled path is exercised
    assert ok >= 45


def test_sketch_large_universe_smoke():
    for seed in (0, 1, 2):
        sk = L0UniversalSketch(FULL_10K, 0.5, seed)
        _, stream = _planted_stream(10_000, 1200, 31 + seed)
        sk.update_many(stream)
        z = sk.coarse_query(range(1, 10_001))
        assert 1200 < z < 8 * 1200
        assert abs(sk.query(range(1, 10_001)) - 1200) <= 0.5 * 1200


def test_sketch_interval_system_queries():
    system = IntervalSystem(60, 10)
    sk = L0UniversalSketch(system, 0.5, seed=3)
    sk.update_many(np.arange(1, 13))
    assert sk.query(range(1, 11)) == 10.0
    assert sk.query(list(range(5, 15))) == 8.0
    with pytest.raises(QueryNotInSystem):
        sk.query(range(1, 8))
    with pytest.raises(QueryNotInSystem):
        sk.query(range(1, 75))


def test_update_one_vs_many_equivalence(monkeypatch):
    # from one sampler per pool hash call (on a shorter stream: one-item
    # updates then cost a hash call per sampler), through the default
    # blocks, to every sampler in one call
    rng = np.random.default_rng(8)
    stream = rng.integers(1, 301, size=900)
    values = rng.integers(1, 4, size=900)
    explicit = family_random(300, 20, 0.3, seed=5)
    cases = [
        (lambda: L0UniversalSketch(IntervalSystem(300, 120), 0.4, seed=42),
         range(50, 200)),
        (lambda: L0UniversalSketch(explicit, 0.4, seed=42), explicit.coords_of(3)),
        (lambda: L1UniversalSketch(explicit, 0.4, seed=42, stream_capacity=5000),
         explicit.coords_of(3)),
    ]
    runs = [(1, 200), (subset_l0._POOL_CHUNK_CELLS, 900), (1 << 30, 900)]
    for make, q in cases:
        seen = {}
        for cells, m in runs:
            monkeypatch.setattr(subset_l0, "_POOL_CHUNK_CELLS", cells)
            a, b = make(), make()
            if isinstance(a, L1UniversalSketch):
                for c, v in zip(stream[:m].tolist(), values[:m].tolist()):
                    a.update(c, v)
                b.update_many(stream[:m], values[:m])
            else:
                for c in stream[:m].tolist():
                    a.update(c)
                b.update_many(stream[:m])
            for sk in (a, b):
                inner = getattr(sk, "inner", sk)
                seen.setdefault(m, []).append(
                    ([bookkeeping(s) for _, s in _l0_slots(inner)], sk.query(q)))
        for states in seen.values():
            assert all(x == states[0] for x in states[1:])
        if isinstance(a.system, IntervalSystem):
            # the full stream saturates a window of the exact sampler, so it
            # evicts, skips saturated arrivals and leaves bulk commits for
            # per-coordinate inserts
            assert a.coarse.exact._impl.max_count() >= DETECTOR_BUDGET


def test_space_saturates_at_budget():
    system = IntervalSystem(1200, 1200)  # single member: the whole universe
    sk = L0UniversalSketch(system, 0.9, seed=6)
    sk.update_many(np.arange(1, 1201))
    assert sk.coarse.exact.size == DETECTOR_BUDGET
    assert sk.ladder[0].size == sk.budget
    assert sk.ladder_stored() <= sk.levels * sk.budget


def test_level_selection_frozen_values():
    sk = L0UniversalSketch(FULL_10K, 0.5, 3)
    assert sk.budget == 1600
    assert sk.levels == 15
    zs = (0, 8, 512, 1024, 8192, 2**40)
    assert [sk.level_for(z) for z in zs] == [1, 1, 1, 2, 5, 15]


def test_empty_stream_reports_zero():
    sk = L0UniversalSketch(FULL_400, 0.5, 2)
    assert sk.coarse_query(range(1, 401)) == 0
    assert sk.query(range(1, 401)) == 0.0


def test_seed_determinism():
    _, stream = _planted_stream(400, 150, 123)
    a = L0UniversalSketch(FULL_400, 0.5, seed=9)
    b = L0UniversalSketch(FULL_400, 0.5, seed=9)
    a.update_many(stream)
    b.update_many(stream)
    assert a.query(range(1, 401)) == b.query(range(1, 401))
    assert a.coarse.exact.support() == b.coarse.exact.support()


def test_ensemble_defaults_and_median():
    system = family_random(500, 16, 0.25, seed=2)
    ens = MedianEnsemble(lambda s: L0UniversalSketch(system, 0.5, s), seed=77,
                         num_sets=system.num_sets)
    assert ens.replicas == 13  # ceil(3 * log2(16)) forced odd
    rng = np.random.default_rng(5)
    support = rng.choice(np.arange(1, 501), size=120, replace=False)
    ens.update_many(support)
    sup = set(int(c) for c in support)
    for j in range(system.num_sets):
        coords = system.coords_of(j)
        truth = len(sup & set(coords))
        assert abs(ens.query(coords) - truth) <= 0.5 * max(truth, 1)


def test_validation_errors():
    with pytest.raises(ValueError):
        L0UniversalSketch(FULL_400, 0.0, 1)
    with pytest.raises(ValueError):
        L0UniversalSketch(FULL_400, 1.0, 1)
    for eps in (1e-300, 1e-160):  # eps^2 underflows; 400/eps^2 overflows
        with pytest.raises(ValueError):
            L0UniversalSketch(FULL_400, eps, 1)
    for sk in (L0UniversalSketch(FULL_400, 0.5, 1), CoarseL0Estimator(FULL_400, 1),
               ThresholdDetector(FULL_400, 400, 1)):
        for c in (0, 401, 10**30):
            with pytest.raises(ValueError):
                sk.update(c)
    with pytest.raises(ValueError):
        ThresholdDetector(FULL_400, 0, 1)
