import hashlib
import math

import numpy as np
import pytest

from subsetsketch.count_sketch import P31, CountSketch, sketch_dimensions


def test_constructor_validation():
    with pytest.raises(ValueError):
        CountSketch(0, 16, 7, seed=1)
    with pytest.raises(ValueError):
        CountSketch(P31, 16, 7, seed=1)
    with pytest.raises(ValueError):
        CountSketch(100, 0, 7, seed=1)
    with pytest.raises(ValueError):
        CountSketch(100, 16, 6, seed=1)  # even depth has no median row
    with pytest.raises(ValueError):
        CountSketch(100, 16, 0, seed=1)


def test_coordinate_range_checked():
    cs = CountSketch(50, 32, 3, seed=2)
    with pytest.raises(ValueError):
        cs.update(0, 1.0)
    with pytest.raises(ValueError):
        cs.update(51, 1.0)
    with pytest.raises(ValueError):
        cs.estimate(0)
    with pytest.raises(ValueError):
        cs.estimate_many([1, 2, 51])


def test_zero_delta_is_a_no_op():
    cs = CountSketch(100, 64, 5, seed=3)
    cs.update(7, 0.0)
    assert not cs.counters.any()


def test_single_coordinate_exact():
    for seed in range(10):
        cs = CountSketch(1000, 256, 5, seed=seed)
        cs.update(123, 4.5)
        cs.update(123, -1.25)
        assert cs.estimate(123) == pytest.approx(3.25, abs=0.0)


def test_insert_then_delete_cancels_exactly():
    cs = CountSketch(1000, 128, 7, seed=11)
    rng = np.random.default_rng(0)
    coords = rng.integers(1, 1001, size=500).astype(np.uint64)
    deltas = rng.standard_normal(500)
    cs.update_many(coords, deltas)
    cs.update_many(coords, -deltas)
    assert np.all(cs.counters == 0.0)


def test_linearity_of_counters():
    # deltas are multiples of 1/8 so every partial sum is exact and the
    # counter equality is bitwise, not up to rounding order
    rng = np.random.default_rng(5)
    c1 = rng.integers(1, 2001, size=800).astype(np.uint64)
    d1 = rng.integers(-160, 161, size=800) / 8.0
    c2 = rng.integers(1, 2001, size=600).astype(np.uint64)
    d2 = rng.integers(-160, 161, size=600) / 8.0
    a = CountSketch(2000, 512, 5, seed=42)
    b = CountSketch(2000, 512, 5, seed=42)
    both = CountSketch(2000, 512, 5, seed=42)
    a.update_many(c1, d1)
    b.update_many(c2, d2)
    both.update_many(np.concatenate([c1, c2]), np.concatenate([d1, d2]))
    assert np.array_equal(a.counters + b.counters, both.counters)


def test_sign_symmetry():
    rng = np.random.default_rng(9)
    coords = rng.integers(1, 501, size=300).astype(np.uint64)
    deltas = rng.standard_normal(300)
    pos = CountSketch(500, 256, 7, seed=13)
    neg = CountSketch(500, 256, 7, seed=13)
    pos.update_many(coords, deltas)
    neg.update_many(coords, -deltas)
    q = np.arange(1, 501, dtype=np.uint64)
    assert np.array_equal(pos.estimate_many(q), -neg.estimate_many(q))


def test_update_paths_agree():
    # scalar loop, one big batch, and several small batches (the add.at
    # path) must all land on bit-identical counters
    rng = np.random.default_rng(17)
    coords = rng.integers(1, 301, size=200)
    deltas = np.round(rng.standard_normal(200), 3)
    one = CountSketch(300, 8192, 3, seed=7)
    two = CountSketch(300, 8192, 3, seed=7)
    three = CountSketch(300, 8192, 3, seed=7)
    for c, d in zip(coords, deltas):
        one.update(int(c), float(d))
    two.update_many(coords, deltas)
    for lo in range(0, 200, 10):
        three.update_many(coords[lo : lo + 10], deltas[lo : lo + 10])
    assert np.array_equal(one.counters, two.counters)
    assert np.array_equal(one.counters, three.counters)
    q = rng.integers(1, 301, size=50)
    assert np.array_equal(
        np.array([one.estimate(int(c)) for c in q]), one.estimate_many(q)
    )


def test_determinism_across_instances():
    a = CountSketch(100, 64, 5, seed=99)
    b = CountSketch(100, 64, 5, seed=99)
    a.update(42, 2.0)
    b.update(42, 2.0)
    assert np.array_equal(a.counters, b.counters)
    c = CountSketch(100, 64, 5, seed=100)
    c.update(42, 2.0)
    assert not np.array_equal(a.counters, c.counters)


def test_point_error_against_residual_tail():
    # 32 planted heavy coordinates among 10^4 light ones, w = 6k, d = 7:
    # per seed, at least 99% of coordinates estimate within
    # sqrt(F2(tail_k)/k).  The maximum error does exceed that bound (a
    # top-k collision in half the rows is routine at this depth), so the
    # guarantee is per-coordinate, not uniform.
    n, k = 10_000, 32
    w, d = 6 * k, 7
    rng = np.random.default_rng(7)
    heavy = rng.choice(n, size=k, replace=False) + 1
    v = rng.normal(0, 1.0, size=n)
    v[heavy - 1] = rng.choice([-1.0, 1.0], k) * 100.0
    tail = np.sort(np.abs(v))[: n - k]
    bound = math.sqrt(float(np.sum(tail**2)) / k)
    coords = np.arange(1, n + 1, dtype=np.uint64)
    fracs = []
    for seed in range(60):
        cs = CountSketch(n, w, d, seed=seed)
        cs.update_many(coords, v)
        err = np.abs(cs.estimate_many(coords) - v)
        fracs.append(float(np.mean(err <= bound)))
    fracs = np.asarray(fracs)
    assert fracs.min() >= 0.97
    assert np.mean(fracs >= 0.99) >= 0.95


def test_sizing_rule():
    w, d = sketch_dimensions(1250, 0.04, 1000)
    assert (w, d) == (250_000, 7)

    eps_prime = 0.04 / math.log2(1000)
    w2, d2 = sketch_dimensions(1250, eps_prime, 1000)
    assert w2 == max(200 * 1250, math.ceil(24.0 / eps_prime**2))
    q = 1250 / w2 + 1.0 / (w2 * eps_prime**2)
    per_row = 2.0 * math.sqrt(q * (1.0 - q))
    want = max(7, math.ceil(math.log(100.0 * 1000) / math.log(1.0 / per_row)))
    if want % 2 == 0:
        want += 1
    assert d2 == want
    assert d2 % 2 == 1

    with pytest.raises(ValueError):
        sketch_dimensions(0, 0.1, 10)
    with pytest.raises(ValueError):
        sketch_dimensions(10, 0.0, 10)


def test_empty_batches_are_no_ops():
    cs = CountSketch(10, 8, 3, seed=1)
    cs.update_many([], [])
    assert not cs.counters.any()
    assert cs.estimate_many([]).size == 0


def test_golden_batch():
    # sha256 of the counters after a large (bincount) and a small (add.at)
    # batch, and of the estimates' magnitudes, from fixed seeds
    cs = CountSketch(1000, 301, 7, seed=5)
    rng = np.random.default_rng(3)
    cs.update_many(rng.integers(1, 1001, size=300), rng.standard_normal(300))
    cs.update_many(rng.integers(1, 1001, size=5), rng.standard_normal(5))
    est = np.abs(cs.estimate_many(np.arange(1, 1001)))
    assert hashlib.sha256(cs.counters.tobytes()).hexdigest() == \
        "775a38069f4c1911667d23c0c7f38b3011581789e6a38760dedeb9fd3926bab3"
    assert hashlib.sha256(est.tobytes()).hexdigest() == \
        "a47628684cc7d990e9218274756168822286a578ba48516c7d4f711463347776"


def _reference_rows(cs, keys):
    # per-row signed counters of each key, hashed with Python integers
    rows = np.empty((cs.depth, len(keys)))
    for r in range(cs.depth):
        ba, bb, sa, sb = (int(x[r, 0]) for x in (cs._ba, cs._bb, cs._sa, cs._sb))
        for j, key in enumerate(keys):
            bucket = (ba * key + bb) % P31 % cs.width
            sign = 1.0 - 2.0 * ((sa * key + sb) % P31 % 2)
            rows[r, j] = cs.counters[r, bucket] * sign
    return rows


@pytest.mark.parametrize("width", [13, 8009])  # rows one by one, all at once
@pytest.mark.parametrize("depth", [1, 3, 7, 9, 15])
def test_estimate_is_median_of_rows(depth, width):
    cs = CountSketch(500, width, depth, seed=depth)
    rng = np.random.default_rng(depth)
    # few distinct small values: ties and zeros in every column
    cs.counters[:] = rng.integers(-2, 3, size=cs.counters.shape)
    keys = list(range(1, 501))
    want = np.abs(np.median(_reference_rows(cs, keys), axis=0))
    assert np.array_equal(np.abs(cs.estimate_many(keys)), want)

    # keys given as offsets plus base coordinates hash as the keys themselves
    table = cs.offset_table([0, 100, 250])
    est = cs.estimate_many([1, 7, 250], table).reshape(3, 3)
    for i, c in enumerate([1, 7, 250]):
        for j, off in enumerate([0, 100, 250]):
            assert abs(est[i, j]) == want[off + c - 1]


def test_offset_keys_range_checked():
    cs = CountSketch(100, 32, 3, seed=4)
    table = cs.offset_table([0, 60])
    cs.update_many([40], [[1.0], [2.0]], table)  # keys 40 and 100
    for bad in ([0], [41], [1, 41]):
        with pytest.raises(ValueError):
            cs.update_many(bad, np.ones((2, len(bad))), table)
        with pytest.raises(ValueError):
            cs.estimate_many(bad, table)
    with pytest.raises(ValueError):
        cs.offset_table([0, 100])  # no coordinate fits above offset 100
    with pytest.raises(ValueError):
        cs.update_many([1, 2], [1.0, 2.0], table)  # one delta per key needed
