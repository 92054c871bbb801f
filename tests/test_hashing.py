import math

import numpy as np
import pytest

from reference import (
    alpha_inverse_cdf,
    alpha_inverse_value,
    bernoulli_mask,
    bernoulli_predicate,
    uniform01,
)
from subsetsketch.hashing import (
    ALPHA_INVERSE_CAP,
    MERSENNE61,
    AlphaInverseSource,
    PairwiseHash,
    bernoulli_threshold,
    coeff_mod_values,
)


def test_scalar_matches_reference_formula():
    for seed in range(20):
        h = PairwiseHash(seed)
        for x in [0, 1, 2, 17, 2**31 - 1, 2**32 - 1]:
            assert h.value(x) == (h.a * x + h.b) % MERSENNE61


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(7)
    inputs = [
        rng.integers(0, 2**32, size=5000, dtype=np.uint64),
        # either side of the bit-31 split and of 32-bit keys
        np.array([2**31 - 1, 2**31, 2**32 - 1, 2**32], dtype=np.uint64),
    ]
    for xs in inputs:
        for seed in [3, 11, 400]:
            h = PairwiseHash(seed)
            vec = h.values(xs)
            ref = np.array([h.value(int(x)) for x in xs], dtype=np.uint64)
            assert np.array_equal(vec, ref)


def test_vectorized_wide_keys_match_scalar():
    rng = np.random.default_rng(31)
    xs = rng.integers(2**32, MERSENNE61, size=3000, dtype=np.uint64)
    xs[0] = MERSENNE61 - 1
    xs[1] = 2**32
    xs[2] = 2**60 + 12345
    for seed in [1, 88]:
        h = PairwiseHash(seed)
        vec = h.values(xs)
        ref = np.array([h.value(int(x)) for x in xs], dtype=np.uint64)
        assert np.array_equal(vec, ref)


def test_vectorized_rejects_out_of_field_keys():
    h = PairwiseHash(1)
    with pytest.raises(ValueError):
        h.values(np.array([MERSENNE61], dtype=np.uint64))


def test_values_in_field():
    h = PairwiseHash(5)
    xs = np.arange(1, 10000, dtype=np.uint64)
    v = h.values(xs)
    assert v.max() < MERSENNE61
    u = uniform01(h, 123)
    assert 0.0 <= u < 1.0


def test_determinism_across_instances():
    a = PairwiseHash(42).values(np.arange(100, dtype=np.uint64))
    b = PairwiseHash(42).values(np.arange(100, dtype=np.uint64))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, PairwiseHash(43).values(np.arange(100, dtype=np.uint64)))


def test_n_max_guard():
    with pytest.raises(ValueError):
        PairwiseHash(1, n_max=2**61)


def test_marginal_rate_close_to_uniform():
    h = PairwiseHash(2024)
    xs = np.arange(1, 200001, dtype=np.uint64)
    u = h.values(xs).astype(np.float64) / MERSENNE61
    assert abs(u.mean() - 0.5) < 0.01
    assert abs((u < 0.25).mean() - 0.25) < 0.01


def test_bernoulli_threshold_exact():
    from fractions import Fraction

    assert bernoulli_threshold(0.0) == 0
    assert bernoulli_threshold(1.0) == MERSENNE61
    for p in [0.5, 0.1, 1 / 3, 0.999, 2**-40, 0.734]:
        frac = Fraction(p)
        expected = -((-frac.numerator * MERSENNE61) // frac.denominator)
        assert bernoulli_threshold(p) == expected


def test_bernoulli_edge_rates():
    h = PairwiseHash(9)
    xs = np.arange(1, 1001, dtype=np.uint64)
    assert bernoulli_mask(h, xs, 1.0).all()
    assert not bernoulli_mask(h, xs, 0.0).any()
    hits = bernoulli_mask(h, xs, 0.5)
    ref = np.array([bernoulli_predicate(h, int(x), 0.5) for x in xs], dtype=bool)
    assert np.array_equal(hits, ref)


def test_bernoulli_rate_monte_carlo():
    h = PairwiseHash(77)
    xs = np.arange(1, 100001, dtype=np.uint64)
    for p in [0.1, 0.5, 0.9]:
        rate = bernoulli_mask(h, xs, p).mean()
        assert abs(rate - p) < 0.01


def test_alpha_inverse_range():
    src = AlphaInverseSource(seed=5, alpha=1.0, n_max=1000)
    rows = np.repeat(np.arange(10), 1000)
    coords = np.tile(np.arange(1, 1001), 10)
    vals = src.values(rows, coords)
    assert vals.min() >= 2
    assert vals.max() <= ALPHA_INVERSE_CAP
    assert np.isfinite(vals).all()


def test_alpha_inverse_scalar_matches_vector():
    src = AlphaInverseSource(seed=8, alpha=0.5, n_max=50)
    for row in range(3):
        for i in range(1, 51):
            assert src.value(row, i) == src.values(np.array([row]), np.array([i]))[0]
            assert alpha_inverse_value(src, (row, i)) == src.value(row, i)
    rows = [0, 1, 2, 7, 2**20, 2**40]
    want = [src.hash.a * r * src.n_max % MERSENNE61 for r in rows]
    assert src.row_shifts(np.array(rows, dtype=np.uint64)).tolist() == want


def test_alpha_inverse_cap_under_tiny_alpha():
    src = AlphaInverseSource(seed=3, alpha=0.01, n_max=200)
    vals = src.values(np.zeros(200, dtype=np.int64), np.arange(1, 201))
    assert np.isfinite(vals).all()
    assert vals.max() == ALPHA_INVERSE_CAP


@pytest.mark.parametrize(
    "alpha,x,expected",
    [(1.0, 4, 0.75), (0.5, 4, 0.5), (2.0, 2, 0.75), (1.0, 2, 0.5)],
)
def test_alpha_inverse_cdf_monte_carlo(alpha, x, expected):
    assert alpha_inverse_cdf(x, alpha) == pytest.approx(expected, abs=1e-9)
    src = AlphaInverseSource(seed=21, alpha=alpha, n_max=100000)
    vals = src.values(np.zeros(100000, dtype=np.int64), np.arange(1, 100001))
    assert abs((vals <= x).mean() - expected) < 0.01


def test_alpha_inverse_cdf_below_support():
    assert alpha_inverse_cdf(0.5, 1.0) == 0.0
    assert alpha_inverse_cdf(1.0, 1.0) == 0.0


def test_alpha_inverse_pairwise_tail():
    # Pr[X > x] = x^(-alpha); heavy tail visible at moderate x
    src = AlphaInverseSource(seed=13, alpha=1.0, n_max=200000)
    vals = src.values(np.zeros(200000, dtype=np.int64), np.arange(1, 200001))
    assert abs((vals > 100).mean() - 0.01) < 0.004
    assert math.isclose((vals > 10).mean(), 0.1, abs_tol=0.01)


def test_coeff_mod_values_matches_scalar_hashes():
    rng = np.random.default_rng(77)
    hashes = [PairwiseHash(seed=int(s)) for s in rng.integers(0, 2**62, size=64)]
    a = np.array([h.a for h in hashes], dtype=np.uint64)
    b = np.array([h.b for h in hashes], dtype=np.uint64)
    keys = [1, 2, 2**31 - 1, 2**31, 2**32, 2**45 + 991, MERSENNE61 - 1]
    keys += [int(k) for k in rng.integers(0, MERSENNE61, size=40)]
    got = coeff_mod_values(a, b, np.array(keys, dtype=np.uint64))
    want = np.array([[h.value(x) for x in keys] for h in hashes], dtype=np.uint64)
    assert np.array_equal(got, want)
    assert coeff_mod_values(a, b, []).shape == (64, 0)


def test_coeff_mod_values_rejects_out_of_field_key():
    h = PairwiseHash(seed=5)
    a = np.array([h.a], dtype=np.uint64)
    b = np.array([h.b], dtype=np.uint64)
    for keys in ([MERSENNE61], [3, -1], np.array([3, -1], dtype=np.int64)):
        with pytest.raises(ValueError):
            coeff_mod_values(a, b, keys)
