"""Acceptance suite: eleven end-to-end checks at full stated scale.

Each test prints one PASS/FAIL line with its measured numbers (run with -s
to see them on success).  Thresholds are the contract; nothing here adapts
to the data.  Master seed 42; every other seed derives from it.
"""

import math
import time

import numpy as np
import pytest
from reference import counter_hash_array, query_exact, update_dense

from subsetsketch.bounded_sampler import BoundedSampler
from subsetsketch.hashing import PairwiseHash, bernoulli_threshold
from subsetsketch.l1_adapter import L1UniversalSketch
from subsetsketch.lp_additive import LpSetSketch
from subsetsketch.priority_sampling import PrioritySketch
from subsetsketch.rng import derive_seed
from subsetsketch.serialize import sketch_from_state, sketch_state
from subsetsketch.setsystem import (
    IntervalSystem,
    SetSystem,
    family_half_intervals,
    family_intervals,
    family_missing_few,
    family_random,
    family_singletons,
    hh_dim_exact,
    union_product,
    union_systems,
    vc_dim_exact,
)
from subsetsketch.streams import gen_stream, replay
from subsetsketch.subset_l0 import L0UniversalSketch

MASTER = 42


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 1. permutation dimension of the reference families


def test_a01_dimension_of_reference_families():
    ok = True
    for k in range(1, 13):
        ok &= hh_dim_exact(family_singletons(k)) == k
    for n in range(2, 13):
        for k in range(0, min(n, 4) + 1):
            ok &= hh_dim_exact(family_missing_few(n, k)) == min(k + 1, n)
    # interval families: exhaustive values must fall with k and rise with n
    dims = {}
    for n in range(4, 13):
        for k in range(1, n + 1):
            dims[n, k] = hh_dim_exact(family_intervals(n, k))
    for (n, k), d in dims.items():
        if (n, k + 1) in dims:
            ok &= dims[n, k + 1] <= d
        if (n + 1, k) in dims:
            ok &= dims[n + 1, k] >= d
    ok &= dims[8, 2] == 5 and dims[9, 3] == 4 and dims[12, 4] == 4
    ok &= dims[10, 2] == 6
    for n in range(4, 13, 2):
        ok &= hh_dim_exact(family_half_intervals(n)) <= 3
    _verdict("families", ok, "singletons, few-missing, intervals, long intervals")


# ---------------------------------------------------------------------------
# 2. sampler vs the offline eviction oracle


class _OfflineOracle:
    """Contract verbatim: after each sampled insertion, repeatedly evict the
    smallest coordinate whose every containing set intersects the kept set
    in more than `budget` items."""

    def __init__(self, system, budget, rate, seed):
        self.system, self.budget = system, budget
        self.rate = rate
        self._hash = PairwiseHash(seed, n_max=system.n)
        self._thr = bernoulli_threshold(rate)
        self.h: set[int] = set()

    def sampled(self, i):
        return self.rate >= 1.0 or self._hash.value(i) < self._thr

    def update(self, i):
        if i in self.h or not self.sampled(i) or not self.system.ids_containing(i):
            return
        self.h.add(i)
        while True:
            victim = next(
                (c for c in sorted(self.h)
                 if all(len(set(self.system.coords_of(j)) & self.h) > self.budget
                        for j in self.system.ids_containing(c))),
                None,
            )
            if victim is None:
                return
            self.h.discard(victim)


def test_a02_sampler_space_and_dichotomy_oracle():
    rng = np.random.default_rng(derive_seed(MASTER, "a2"))
    violations = 0
    for trial in range(500):
        n = int(rng.integers(3, 13))
        masks = [int(rng.integers(1, 1 << n)) for _ in range(int(rng.integers(1, 7)))]
        system = SetSystem(n, masks)
        budget = int(rng.integers(1, 4))
        rate = [1.0, 0.5, 0.25][trial % 3]
        seed = derive_seed(MASTER, "a2", trial)
        dim = hh_dim_exact(system)
        real = BoundedSampler(system, budget, rate, seed)
        ref = _OfflineOracle(system, budget, rate, seed)
        arrived: set[int] = set()
        for x in rng.integers(1, n + 1, size=40):
            x = int(x)
            real.update(x)
            ref.update(x)
            arrived.add(x)
            kept = set(real.support())
            if kept != ref.h or len(kept) > budget * dim:
                violations += 1
                break
            for j in range(system.num_sets):
                coords = set(system.coords_of(j))
                sampled = {i for i in coords & arrived if real.sampled(i)}
                if len(sampled) <= budget:
                    if not sampled <= kept:
                        violations += 1
                elif len(kept & coords) < budget:
                    violations += 1
    _verdict("sampler-oracle", violations == 0,
             f"500 randomized triples, stepwise; violations={violations}")


# ---------------------------------------------------------------------------
# 3. pairwise sampling estimator moments


def test_a03_sampling_estimator_moments():
    universe = 1 << 20
    rate = 0.01
    seeds = 10_000
    rng = np.random.default_rng(derive_seed(MASTER, "a3", "support"))
    support = rng.choice(
        np.arange(1, universe + 1, dtype=np.uint64), size=10_000, replace=False
    )
    thr = np.uint64(bernoulli_threshold(rate))
    est = np.empty(seeds)
    for i in range(seeds):
        h = PairwiseHash(derive_seed(MASTER, "a3", i), n_max=universe)
        est[i] = np.count_nonzero(h.values(support) < thr) / rate

    # the sampler exposes exactly these decisions
    sup_list = [int(c) for c in support]
    system = SetSystem(universe, [sup_list])
    for i in (0, 1):
        samp = BoundedSampler(system, 10**5, rate, derive_seed(MASTER, "a3", i))
        samp.update_many(support.astype(np.int64))
        assert samp.size / rate == est[i]

    target_var = 10_000 * (1 - rate) / rate
    mean_off = abs(est.mean() - 10_000) / 10_000
    var_off = abs(est.var(ddof=1) - target_var) / target_var
    ok = mean_off <= 0.01 and var_off <= 0.15
    _verdict("sampling-moments", ok,
             f"{seeds} seeds: mean off {mean_off:.4f} (<=0.01), "
             f"variance off {var_off:.4f} (<=0.15)")


# ---------------------------------------------------------------------------
# 4 + 5. support sketch end-to-end on interval families, and its coarse bracket


@pytest.fixture(scope="module")
def interval_runs():
    n = 10_000
    system = IntervalSystem(n, n // 4)
    rng = np.random.default_rng(derive_seed(MASTER, "a45", "v"))
    support = rng.choice(np.arange(1, n + 1), size=6000, replace=False)
    queries = [
        (int(lo), int(lo + length - 1))
        for lo, length in zip(rng.integers(1, 6500, 10), rng.integers(2500, 3500, 10))
    ]
    sup = set(int(c) for c in support)
    truths = [len([c for c in sup if lo <= c <= hi]) for lo, hi in queries]
    results = []  # per seed: list of (estimate, bracket) per query
    for i in range(200):
        sk = L0UniversalSketch(system, 0.1, derive_seed(MASTER, "a45", i))
        sk.update_many(rng.permutation(support))
        per_seed = []
        for lo, hi in queries:
            q = range(lo, hi + 1)
            per_seed.append((sk.query(q), sk.coarse_query(q)))
        results.append(per_seed)
    return truths, results


def test_a04_interval_support_estimates(interval_runs):
    truths, results = interval_runs
    eps = 0.1
    rates = []
    for qi, truth in enumerate(truths):
        hits = sum(
            abs(per_seed[qi][0] - truth) <= eps * truth for per_seed in results
        )
        rates.append(hits / len(results))
    ok = all(r >= 0.75 for r in rates)
    _verdict("interval-estimates", ok,
             f"200 seeds x 10 queries, per-query success {min(rates):.3f}..{max(rates):.3f} (>=0.75)")


def test_a05_coarse_bracket(interval_runs):
    truths, results = interval_runs
    rates = []
    for qi, truth in enumerate(truths):
        hits = sum(truth < per_seed[qi][1] < 8 * truth for per_seed in results)
        rates.append(hits / len(results))
    ok = all(r >= 0.95 for r in rates)
    _verdict("coarse-bracket", ok,
             f"strict (1,8)x bracket per query {min(rates):.3f}..{max(rates):.3f} (>=0.95)")


# ---------------------------------------------------------------------------
# 6. summed-value sketch


def test_a06_summed_value_accuracy_and_exactness():
    n, eps, seeds = 100, 0.1, 100
    system = family_random(n, 20, 0.3, seed=derive_seed(MASTER, "a6", "sys"))
    succ = exact = 0
    for i in range(seeds):
        rng = np.random.default_rng(derive_seed(MASTER, "a6", "stream", i))
        stream = rng.integers(1, n + 1, size=10_000)
        sk = L1UniversalSketch(system, eps, derive_seed(MASTER, "a6", i),
                               stream_capacity=10_000)
        for c in stream:
            sk.update(int(c), 1)
        counts = np.bincount(stream, minlength=n + 1)
        all_close = all_exact = True
        for j in range(system.num_sets):
            coords = system.coords_of(j)
            truth = int(sum(counts[c] for c in coords))
            est = sk.query(coords)
            if abs(est - truth) > eps * truth:
                all_close = False
            if truth <= 100 / eps**2 and est != truth:
                all_exact = False
        succ += all_close
        exact += all_exact
    ok = succ >= 0.75 * seeds and exact == seeds
    _verdict("summed-value", ok,
             f"{seeds} runs: within-eps {succ}/{seeds} (>=75), "
             f"exact-in-band {exact}/{seeds} (=={seeds})")


# ---------------------------------------------------------------------------
# 7. priority sampling moments


def test_a07_priority_sampling_moments():
    k, m, seeds = 101, 600, 10_000
    rng = np.random.default_rng(derive_seed(MASTER, "a7", "v"))
    weights = np.exp(rng.normal(0.0, 1.0, size=m))
    coords = np.arange(101, 101 + m, dtype=np.int64)
    total = weights.sum()
    scale = 2.0**-53

    def estimate(seed: int) -> float:
        ubase = derive_seed(seed, "uniform")
        u = (counter_hash_array(ubase, coords) >> np.uint64(11)) * scale
        u[u == 0.0] = scale
        pri = weights / u
        idx = np.argpartition(pri, m - k - 1)
        tau = pri[idx[m - k - 1]]
        return float(np.maximum(weights[idx[m - k:]], tau).sum())

    est = np.array([estimate(derive_seed(MASTER, "a7", i)) for i in range(seeds)])

    # the closed form above is the sketch: spot-weld them together
    signs = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    system = SetSystem(800, [[int(c) for c in coords]])
    for i in (0, 1, 2):
        seed = derive_seed(MASTER, "a7", i)
        sk = PrioritySketch(system, 1.0, k, seed)
        for c, w, s in zip(coords, weights, signs):
            sk.update(int(c), float(s * w))
        assert sk.query([int(c) for c in coords]) == pytest.approx(est[i], rel=1e-12)

    mean_off = abs(est.mean() - total) / total
    var_ratio = est.var(ddof=1) / (total**2 / (k - 1))
    ok = mean_off <= 0.01 and var_ratio <= 1.1
    _verdict("priority-moments", ok,
             f"{seeds} seeds: mean off {mean_off:.5f} (<=0.01), "
             f"variance/bound {var_ratio:.3f} (<=1.1)")


# ---------------------------------------------------------------------------
# 8. additive-error subset lp estimation


A8_N, A8_EPS, A8_SUPPORT, A8_SEEDS = 1000, 0.2, 250, 200

# residual-tail constants frozen from 300 held-out instances (master seed
# 1311): 1.15 x the 97th percentile of the observed ratio, per exponent
A8_TAIL_CONST = {0.5: 0.60, 1.0: 1.37, 1.5: 3.61, 2.0: 0.86}


def _a8_instance(i: int):
    rng = np.random.default_rng(derive_seed(MASTER, "inst", i) & 0xFFFFFFFF)
    v = np.zeros(A8_N)
    sup = rng.choice(A8_N, A8_SUPPORT, replace=False)
    v[sup] = rng.choice([-1.0, 1.0], A8_SUPPORT) * rng.lognormal(0.0, 0.75, A8_SUPPORT)
    s = rng.random(A8_N) < 0.5
    return v, s


def _pnorm(x: np.ndarray, p: float) -> float:
    ax = np.abs(x[x != 0.0])
    return float(np.sum(ax**p) ** (1.0 / p)) if ax.size else 0.0


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0])
def test_a08_additive_lp_sketch(p):
    sketch_hits = exact_hits = tail_hits = 0
    cp = A8_TAIL_CONST[p]
    all_coords = np.arange(1, A8_N + 1)
    for i in range(A8_SEEDS):
        v, s = _a8_instance(i)
        full = _pnorm(v, p)
        subset = _pnorm(v * s, p)
        sk = LpSetSketch(A8_N, p, A8_EPS, seed=derive_seed(MASTER, "sk", i))
        update_dense(sk, v)
        sketch_hits += abs(sk.query(s) - subset) <= A8_EPS * full
        exact_hits += abs(query_exact(sk, all_coords, v) - full) <= A8_EPS * full

        sq = (sk.scalers_for(all_coords) * v[None, :]).ravel() ** 2
        top = np.partition(sq, sq.size - sk.k)[sq.size - sk.k:]
        tail = float(sq.sum() - top.sum())
        bound = sk.k * full**2 if p < 2 else sk.k * math.log2(A8_N) * full**2
        tail_hits += tail <= cp * bound

    need = int(0.85 * A8_SEEDS)
    ok = sketch_hits >= need and exact_hits >= need and tail_hits >= need
    _verdict(f"additive-lp p={p}", ok,
             f"{A8_SEEDS} seeds: sketch {sketch_hits}, exact-path {exact_hits}, "
             f"residual-tail {tail_hits} (each >= {need})")


# ---------------------------------------------------------------------------
# 9. shatter dimension never beats permutation dimension; composition bounds


def test_a09_dimension_inequalities():
    rng = np.random.default_rng(derive_seed(MASTER, "a9"))
    violations = 0
    systems = []
    for _ in range(200):
        n = int(rng.integers(3, 11))
        masks = [int(rng.integers(1, 1 << n)) for _ in range(int(rng.integers(1, 7)))]
        system = SetSystem(n, masks)
        systems.append(system)
        if vc_dim_exact(system) > hh_dim_exact(system):
            violations += 1
    for a, b in zip(systems[::2], systems[1::2]):
        if a.n != b.n:
            m = max(a.n, b.n)
            a = SetSystem(m, a.masks)
            b = SetSystem(m, b.masks)
        da, db = hh_dim_exact(a), hh_dim_exact(b)
        if hh_dim_exact(union_systems(a, b)) > da + db:
            violations += 1
        if hh_dim_exact(union_product(a, b)) > da + db:
            violations += 1
    _verdict("dimension-inequalities", violations == 0,
             f"200 systems + 100 pairs; violations={violations}")


# ---------------------------------------------------------------------------
# 10. the model boundary is real


def test_a10_model_boundary():
    n, seeds = 1024, 40
    family = IntervalSystem(n, n // 2)
    defeated = within = 0
    for i in range(seeds):
        stream = gen_stream("adversarial-turnstile", {"n": n},
                            seed=derive_seed(MASTER, "a10s", i))
        lo, hi = stream.meta["interval"]
        truth = 1.0  # single surviving coordinate in the planted interval

        l0 = L0UniversalSketch(family, 0.5, derive_seed(MASTER, "a10", i, 0))
        for c in stream.coords.tolist():  # deletions replayed sign-blind
            l0.update(c)
        defeated += abs(l0.query(range(lo, hi + 1)) - truth) / truth > 1.0

        lp = LpSetSketch(n, 1.0, 0.2, derive_seed(MASTER, "a10", i, 1))
        lp.update_many(stream.coords, stream.values)
        l1 = sum(abs(x) for x in replay(stream).values.values())
        within += abs(lp.query(range(lo, hi + 1)) - truth) <= 0.2 * l1
    ok = defeated >= 0.9 * seeds and within >= 0.85 * seeds
    _verdict("model-boundary", ok,
             f"{seeds} adversarial streams: sign-blind defeated {defeated} (>=36), "
             f"turnstile sketch within bound {within} (>=34)")


# ---------------------------------------------------------------------------
# 11. state files change nothing


def test_a11_serialization_round_trips():
    rng = np.random.default_rng(derive_seed(MASTER, "a11"))
    failures = 0
    cases = 0
    for i in range(13):
        system = family_random(40, 8, 0.3, seed=derive_seed(MASTER, "a11", "sys", i))
        queries = [system.coords_of(j) for j in range(system.num_sets)]

        sk = L0UniversalSketch(system, 0.4, derive_seed(MASTER, "a11", "l0", i))
        sk.update_many(rng.integers(1, 41, size=int(rng.integers(50, 400))))
        lk = sketch_from_state(sketch_state(sk))
        failures += any(lk.query(q) != sk.query(q) for q in queries)
        cases += 1

        l1 = L1UniversalSketch(system, 0.5, derive_seed(MASTER, "a11", "l1", i),
                               stream_capacity=2000)
        for c in rng.integers(1, 41, size=150):
            l1.update(int(c), int(rng.integers(1, 4)))
        lk = sketch_from_state(sketch_state(l1))
        failures += any(lk.query(q) != l1.query(q) for q in queries)
        cases += 1

        pri = PrioritySketch(system, float(rng.choice([0.5, 1.0, 2.0])),
                             int(rng.integers(3, 9)),
                             derive_seed(MASTER, "a11", "pri", i))
        for c in rng.permutation(40)[: int(rng.integers(10, 36))] + 1:
            pri.update(int(c), float(rng.standard_normal()))
        lk = sketch_from_state(sketch_state(pri))
        failures += any(lk.query(q) != pri.query(q) for q in queries)
        cases += 1

        if i < 11:
            lp = LpSetSketch(40, float(rng.choice([0.5, 1.0, 2.0])), 0.4,
                             derive_seed(MASTER, "a11", "lp", i), k=32)
            m = int(rng.integers(20, 60))
            lp.update_many(rng.integers(1, 41, size=m), rng.standard_normal(m))
            lk = sketch_from_state(sketch_state(lp))
            failures += any(lk.query(q) != lp.query(q) for q in queries)
            cases += 1
    ok = failures == 0 and cases == 50
    _verdict("serialization", ok, f"{cases} round-trip cases; mismatches={failures}")
