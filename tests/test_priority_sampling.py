"""Priority sampling: exactness below capacity, the threshold estimator,
dedup storage bounds, and the unbiasedness/variance contract."""

import math
import random

import numpy as np
import pytest

from subsetsketch.ensemble import MedianEnsemble
from subsetsketch.errors import DuplicateEntry, QueryNotInSystem
from subsetsketch.priority_sampling import PrioritySketch, sample_budget
from subsetsketch.rng import counter_hash, derive_seed
from subsetsketch.setsystem import IntervalSystem, SetSystem, hh_dim_exact


def test_sample_budget_values():
    assert sample_budget(0.5) == 41
    assert sample_budget(0.1) == 1001
    assert sample_budget(math.sqrt(0.1)) == 101
    with pytest.raises(ValueError):
        sample_budget(0.0)


def test_zero_value_is_noop_but_counts_as_delivered():
    system = SetSystem(10, [range(1, 6)])
    sk = PrioritySketch(system, 1.0, 3, seed=4)
    sk.update(2, 0.0)
    assert sk.size == 0
    assert sk.query(range(1, 6)) == 0.0
    with pytest.raises(DuplicateEntry):
        sk.update(2, 7.0)


def test_duplicate_coordinate_rejected():
    system = SetSystem(10, [range(1, 6)])
    sk = PrioritySketch(system, 1.0, 3, seed=4)
    sk.update(3, 1.5)
    with pytest.raises(DuplicateEntry):
        sk.update(3, 1.5)


@pytest.mark.parametrize("value", [math.inf, float("nan"), 1e200],
                         ids=["inf", "nan", "weight-overflows"])
def test_refused_entry_is_not_delivered(value):
    # an entry update refuses (not finite, or |v|^2 beyond the float range)
    # is not delivered: its coordinate stays free for a valid entry
    system = SetSystem(10, [range(1, 6)])
    sk = PrioritySketch(system, 2.0, 3, seed=4)
    with pytest.raises(ValueError):
        sk.update(3, value)
    sk.update(3, 1.5)
    assert sk.query(range(1, 6)) == 1.5


def test_validation_errors():
    system = SetSystem(10, [range(1, 6)])
    with pytest.raises(ValueError):
        PrioritySketch(system, 1.0, 0, seed=1)
    with pytest.raises(ValueError):
        PrioritySketch(system, -0.5, 3, seed=1)
    sk = PrioritySketch(system, 1.0, 3, seed=1)
    with pytest.raises(ValueError):
        sk.update(0, 1.0)
    with pytest.raises(ValueError):
        sk.update(4, float("nan"))
    with pytest.raises(QueryNotInSystem):
        sk.query([1, 2])


def test_exact_below_capacity():
    system = SetSystem(30, [range(1, 11), range(8, 26)])
    values = {i: (-1.0) ** i * (0.5 + i) for i in range(1, 26)}
    for p in (1.0, 2.0):
        sk = PrioritySketch(system, p, 30, seed=7)
        for i, v in values.items():
            sk.update(i, v)
        for j in range(system.num_sets):
            coords = system.coords_of(j)
            assert sk.threshold(coords) == 0.0
            truth = sum(abs(values[c]) ** p for c in coords) ** (1.0 / p)
            assert sk.query(coords) == pytest.approx(truth, rel=1e-12)
    sk0 = PrioritySketch(system, 0.0, 30, seed=7)
    for i, v in values.items():
        sk0.update(i, v)
    assert sk0.query(range(1, 11)) == 10.0


def test_hand_simulated_single_set():
    system = SetSystem(3, [[1, 2, 3]])
    sk = PrioritySketch(system, 1.0, 1, seed=99)
    entries = [(1, 5.0), (2, 3.0), (3, 1.0)]
    for i, v in entries:
        sk.update(i, v)
    # replay the math by hand from the same seeded uniforms
    base = derive_seed(99, "uniform")
    u = {
        i: max((counter_hash(base, i) >> 11) * 2.0 ** -53, 2.0 ** -53)
        for i in (1, 2, 3)
    }
    pri = {i: v / u[i] for i, v in entries}
    order = sorted(pri, key=lambda i: (pri[i], -i), reverse=True)
    tau = pri[order[1]]
    expected = max(dict(entries)[order[0]], tau)
    assert sk.size <= 2
    assert sk.threshold([1, 2, 3]) == tau
    assert sk.query([1, 2, 3]) == pytest.approx(expected, rel=1e-12)


def test_query_resolves_member_once(member_id_calls):
    system = SetSystem(40, [range(1, 21), range(15, 36), [2, 39]])
    sk = PrioritySketch(system, 1.0, 4, seed=21)
    for i in range(1, 37):
        sk.update(i, math.sin(i) * 10)
    for j in range(system.num_sets):
        before = len(member_id_calls)
        sk.query(list(reversed(system.coords_of(j))))
        assert len(member_id_calls) == before + 1


def test_stream_order_invariance():
    system = SetSystem(40, [range(1, 21), range(15, 36), [2, 39]])
    entries = [(i, math.sin(i) * 10) for i in range(1, 37)]
    baseline = None
    for perm_seed in range(6):
        rnd = random.Random(perm_seed)
        shuffled = entries[:]
        rnd.shuffle(shuffled)
        sk = PrioritySketch(system, 1.0, 4, seed=21)
        for i, v in shuffled:
            sk.update(i, v)
        got = (
            [sk.query(system.coords_of(j)) for j in range(system.num_sets)],
            sk.stored_coordinates(),
        )
        if baseline is None:
            baseline = got
        else:
            assert got == baseline


def test_store_is_exactly_the_union_of_top_lists():
    # the minimal faithful store: a coordinate survives iff it sits in some
    # member set's true top-(k+1) by priority
    rng = np.random.default_rng(13)
    for trial in range(30):
        n = int(rng.integers(4, 13))
        sets = [int(rng.integers(1, 1 << n)) for _ in range(int(rng.integers(1, 7)))]
        system = SetSystem(n, sets)
        k = int(rng.integers(1, 4))
        sk = PrioritySketch(system, 1.0, k, seed=trial)
        values = {}
        for c in rng.permutation(np.arange(1, n + 1)):
            v = float(rng.normal()) or 1.0
            sk.update(int(c), v)
            values[int(c)] = v
            pri = {i: abs(w) / sk.uniform_for(i) for i, w in values.items()}
            union = set()
            for j in range(system.num_sets):
                members = [i for i in system.coords_of(j) if i in pri]
                members.sort(key=lambda i: (pri[i], -i), reverse=True)
                union.update(members[: k + 1])
            assert set(sk.stored_coordinates()) == union
            assert sk.size <= (k + 1) * system.num_sets


def test_store_can_exceed_budget_times_hh_dimension():
    # nested prefix chains have heavy-hitter dimension 1, yet the union of
    # per-set top lists grows with the number of distinct prefixes: the
    # k-needed witness condition fails for the faithful store, so no
    # (k + 1) * dim bound can hold
    n = 4096
    system = SetSystem(n, [range(1, 2 ** e + 1) for e in range(1, 13)])
    assert hh_dim_exact(SetSystem(12, [range(1, j + 1) for j in range(1, 13)])) == 1
    sk = PrioritySketch(system, 1.0, 1, seed=0)
    for i in range(1, n + 1):
        sk.update(i, 1.0)
    assert sk.size > 2 * 1  # (k + 1) * hh_dim would demand <= 2


def test_mean_and_variance_contract():
    # mini version of the Monte Carlo check: one set, truncating regime
    n, k = 300, 31
    system = SetSystem(n, [range(1, n + 1)])
    rng = np.random.default_rng(77)
    values = rng.uniform(0.5, 2.0, size=n)
    truth = float(values.sum())
    ests = []
    for seed in range(800):
        sk = PrioritySketch(system, 1.0, k, seed=seed)
        for i in range(1, n + 1):
            sk.update(i, float(values[i - 1]))
        assert sk.threshold(range(1, n + 1)) > 0.0
        ests.append(sk.query(range(1, n + 1)))
    ests = np.asarray(ests)
    assert abs(ests.mean() - truth) <= 0.03 * truth
    assert ests.var(ddof=1) <= 1.1 * truth ** 2 / (k - 1)


def test_interval_system_accepted():
    system = IntervalSystem(20, 5, 8)
    sk = PrioritySketch(system, 1.0, 25, seed=2)
    for i in range(1, 21):
        sk.update(i, 2.0)
    assert sk.query(range(3, 9)) == pytest.approx(12.0)
    with pytest.raises(QueryNotInSystem):
        sk.query(range(1, 20))


def test_ensemble_median():
    system = SetSystem(200, [range(1, 101), range(50, 171)])
    k = sample_budget(0.5)
    ens = MedianEnsemble(lambda s: PrioritySketch(system, 1.0, k, s), seed=31,
                         num_sets=system.num_sets)
    assert ens.replicas % 2 == 1
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 3.0, size=201)
    for i in range(1, 201):
        ens.update(i, float(values[i]))
    for j in range(system.num_sets):
        coords = system.coords_of(j)
        truth = float(sum(values[c] for c in coords))
        assert abs(ens.query(coords) - truth) <= 0.5 * truth
