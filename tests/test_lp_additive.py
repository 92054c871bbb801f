import math

import numpy as np
import pytest
from reference import query_exact, update_dense

from subsetsketch.ensemble import MedianEnsemble
from subsetsketch.errors import UniverseTooLarge
from subsetsketch.lp_additive import (
    LpSetSketch,
    error_param,
    sample_rows,
    selection_statistic,
)


def test_query_in_chunks_matches_one_call(monkeypatch):
    import subsetsketch.lp_additive as lp

    sk = LpSetSketch(60, 1.0, 0.5, seed=3, k=16)
    rng = np.random.default_rng(4)
    sk.update_many(rng.integers(1, 61, size=200), rng.standard_normal(200))
    coords = np.arange(1, 61, dtype=np.uint64)
    whole = selection_statistic(np.abs(sk.cs.estimate_many(coords, sk._offsets)), sk.k)
    # chunks of 7 coordinates: 9 calls, the last one short
    monkeypatch.setattr(lp, "_QUERY_CHUNK_CELLS", 7 * sk.k * sk.cs.depth)
    calls = []
    original = sk.cs.estimate_many
    monkeypatch.setattr(sk.cs, "estimate_many",
                        lambda c, t: calls.append(len(c)) or original(c, t))
    assert sk.query(coords) == 2.0 ** (-1.0 / sk.p) * whole
    assert calls == [7] * 8 + [4]


def test_parameter_validation():
    with pytest.raises(ValueError, match="not supported"):
        LpSetSketch(10, 0.0, 0.2, seed=1)
    with pytest.raises(ValueError):
        LpSetSketch(10, -1.0, 0.2, seed=1)
    with pytest.raises(ValueError):
        LpSetSketch(10, float("nan"), 0.2, seed=1)
    with pytest.raises(ValueError):
        LpSetSketch(10, 1.0, 0.0, seed=1)
    with pytest.raises(ValueError):
        LpSetSketch(10, 1.0, 1.0, seed=1)
    with pytest.raises(ValueError):
        LpSetSketch(10, 1.0, 0.2, seed=1, k=7)  # odd
    with pytest.raises(ValueError):
        LpSetSketch(0, 1.0, 0.2, seed=1)
    with pytest.raises(UniverseTooLarge):
        LpSetSketch(2**21, 1.0, 0.2, seed=1)


def test_sizing_helpers():
    assert sample_rows(0.2) == 1250
    assert sample_rows(0.2) % 2 == 0
    assert error_param(1.0, 1000, 0.2) == pytest.approx(0.04)
    assert error_param(2.0, 1000, 0.2) == pytest.approx(0.04 / math.log2(1000))
    assert error_param(4.0, 1000, 0.2) == pytest.approx(0.04 * 1000 ** (-0.25))


def test_zero_delta_is_a_no_op():
    sk = LpSetSketch(20, 1.0, 0.5, seed=3)
    sk.update(5, 0.0)
    assert not sk.cs.counters.any()


def test_insert_then_delete_cancels():
    sk = LpSetSketch(20, 1.0, 0.5, seed=3)
    sk.update(5, 1.0)
    sk.update(5, -1.0)
    assert np.all(sk.cs.counters == 0.0)
    assert sk.query(range(1, 21)) == 0.0


def test_single_coordinate_matches_hand_computation():
    # with one live coordinate and a wide sketch relative to k virtual
    # entries, every estimate is exact, so the query equals the
    # floor(k/2)-th largest |X_{r,1}| * |c| scaled by 2^(-1/p)
    p, c = 1.5, -7.25
    sk = LpSetSketch(4, p, 0.9, seed=21, k=10)
    sk.update(1, c)
    x = sk.scalers_for([1]).ravel()
    vals = np.sort(np.abs(x * c))[::-1]
    want = 2.0 ** (-1.0 / p) * vals[10 // 2 - 1]
    est = sk.cs.estimate_many([1], sk._offsets)
    if np.array_equal(np.sort(np.abs(est)), np.sort(np.abs(x * c))):
        assert sk.query([1]) == want
    assert sk.query([1]) == pytest.approx(want, rel=1e-9)


def test_single_coordinate_monte_carlo():
    p, c = 1.0, 3.0
    hits = 0
    for seed in range(100):
        sk = LpSetSketch(8, p, 0.5, seed=seed)
        sk.update(3, c)
        if abs(sk.query([3]) - c) <= 0.5 * c:
            hits += 1
    assert hits >= 85


def test_query_exact_matches_brute_force():
    rng = np.random.default_rng(4)
    n, k, p = 50, 20, 0.5
    v = np.round(rng.standard_normal(n), 2)
    sk = LpSetSketch(n, p, 0.3, seed=11, k=k)
    subset = rng.choice(n, 23, replace=False) + 1
    x = sk.scalers_for(np.sort(subset))
    scaled = np.abs(x * v[np.sort(subset) - 1][None, :]).ravel()
    want = 2.0 ** (-1.0 / p) * float(
        np.sort(scaled)[::-1][k // 2 - 1]
    )
    assert query_exact(sk, subset, v) == want


def test_queries_are_side_effect_free():
    rng = np.random.default_rng(8)
    sk = LpSetSketch(60, 1.0, 0.4, seed=2)
    v = rng.standard_normal(60)
    update_dense(sk, v)
    before = sk.cs.counters.copy()
    q1 = sk.query(range(1, 31))
    q2 = sk.query(range(1, 31))
    assert q1 == q2
    assert np.array_equal(sk.cs.counters, before)


def test_turnstile_batches_match_dense_ingest():
    # eighth-grid deltas keep all arithmetic exact, so split turnstile
    # updates with repeats land on bit-identical counters
    rng = np.random.default_rng(12)
    n = 40
    coords = rng.integers(1, n + 1, size=300)
    deltas = rng.integers(-40, 41, size=300) / 8.0
    a = LpSetSketch(n, 1.0, 0.5, seed=33)
    b = LpSetSketch(n, 1.0, 0.5, seed=33)
    for lo in range(0, 300, 37):
        a.update_many(coords[lo : lo + 37], deltas[lo : lo + 37])
    dense = np.zeros(n)
    np.add.at(dense, coords - 1, deltas)
    update_dense(b, dense)
    assert np.array_equal(a.cs.counters, b.cs.counters)


def test_subset_argument_forms():
    rng = np.random.default_rng(19)
    sk = LpSetSketch(30, 1.0, 0.5, seed=5)
    update_dense(sk, rng.standard_normal(30))
    mask = np.zeros(30, dtype=bool)
    mask[[2, 6, 17]] = True
    assert sk.query(mask) == sk.query([3, 7, 18])
    assert sk.query([3, 7, 18, 18]) == sk.query([3, 7, 18])
    assert sk.query([]) == 0.0
    with pytest.raises(ValueError):
        sk.query([0])
    with pytest.raises(ValueError):
        sk.query([31])
    with pytest.raises(ValueError):
        sk.query(np.zeros(29, dtype=bool))


def test_additive_error_at_module_scale():
    # light version of the headline guarantee: |est - ||v o s||_p| <= eps ||v||_p
    rng = np.random.default_rng(77)
    n, p, eps = 200, 1.0, 0.3
    v = rng.standard_normal(n) * (1.0 + rng.pareto(1.5, n))
    norm = float(np.sum(np.abs(v)))
    hits = 0
    for seed in range(40):
        sk = LpSetSketch(n, p, eps, seed=seed)
        update_dense(sk, v)
        s = np.random.default_rng(1000 + seed).random(n) < 0.5
        truth = float(np.sum(np.abs(v[s])))
        if abs(sk.query(s) - truth) <= eps * norm:
            hits += 1
    assert hits >= 34


def test_p_above_two_is_usable():
    rng = np.random.default_rng(23)
    sk = LpSetSketch(100, 3.0, 0.4, seed=9)
    v = rng.standard_normal(100)
    update_dense(sk, v)
    assert sk.query(range(1, 101)) >= 0.0


def test_selection_statistic_ranks():
    vals = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
    assert selection_statistic(vals, 4) == 4.0  # 2nd largest
    assert selection_statistic(vals, 10) == 1.0  # 5th largest of 5
    assert selection_statistic(np.zeros(2), 10) == 0.0  # fewer than rank


def test_ensemble_median_and_defaults():
    ens = MedianEnsemble(lambda s: LpSetSketch(30, 1.0, 0.5, s), seed=4, num_sets=16)
    assert len(ens.sketches) % 2 == 1
    assert len(ens.sketches) == 13
    rng = np.random.default_rng(3)
    v = rng.standard_normal(30)
    ens.update_many(np.arange(1, 31), v)
    qs = sorted(sk.query(range(1, 16)) for sk in ens.sketches)
    assert ens.query(range(1, 16)) == qs[len(qs) // 2]
