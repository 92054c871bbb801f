import numpy as np
import pytest

from reference import hh_set, incidence_matrix
from subsetsketch.errors import UniverseMismatch, UniverseTooLarge
from subsetsketch.rng import derive_seed
from subsetsketch.setsystem import (
    FAMILY_RANDOM_MAX_CELLS,
    IntervalSystem,
    SetSystem,
    as_interval,
    family_half_intervals,
    family_intervals,
    family_missing_few,
    family_random,
    family_singletons,
    hh_dim_exact,
    hh_dim_greedy_lower,
    parse_sets_lines,
    union_product,
    union_systems,
    vc_dim_exact,
)


def perm_submatrix_exact(masks, n):
    """Independent oracle: largest k with a k x k permutation submatrix,
    found by branch and bound over (column, row) assignments."""
    masks = list(masks)
    best = 0

    def extend(cols_mask, rows_union, rows_used, count, start_c):
        nonlocal best
        best = max(best, count)
        if count + (n - start_c) <= best:
            return
        for c in range(start_c, n):
            bit = 1 << c
            if rows_union & bit:
                continue
            for ri, m in enumerate(masks):
                if ri in rows_used or not (m & bit) or (m & cols_mask):
                    continue
                extend(cols_mask | bit, rows_union | m, rows_used | {ri}, count + 1, c + 1)

    extend(0, 0, frozenset(), 0, 0)
    return best


# --- frozen small cases -----------------------------------------------------


def test_hh_set_hand_case():
    s = SetSystem(3, [[1, 2], [2, 3]])
    assert hh_set(s, [1, 1, 0]) == {2}
    assert hh_set(s, [1, 0, 1]) == {1, 3}
    assert hh_set(s, {1: 2.0, 3: -1.0}) == {1, 3}
    assert hh_dim_exact(s) == 2


def test_singletons_have_full_dimension():
    assert hh_dim_exact(family_singletons(6)) == 6
    assert vc_dim_exact(family_singletons(6)) == 1


def test_missing_few_dimension():
    # all sets of size >= n-k isolate at most k+1 coordinates
    assert hh_dim_exact(family_missing_few(6, 2)) == 3
    assert hh_dim_exact(family_missing_few(5, 0)) == 1
    assert hh_dim_exact(family_missing_few(4, 4)) == 4


def test_interval_family_counts():
    assert family_intervals(4, 4).num_sets == 1
    assert family_intervals(6, 3).num_sets == 10
    assert family_intervals(8, 5).num_sets == 10
    assert family_intervals(8, 9).num_sets == 0


def test_half_intervals_structure():
    fam = family_half_intervals(8)
    assert fam.num_sets == 4
    explicit = fam.to_explicit()
    assert explicit.num_sets == 4
    assert explicit.coords_of(0) == (1, 2, 3, 4, 5)
    assert explicit.coords_of(3) == (4, 5, 6, 7, 8)
    assert hh_dim_exact(fam) == 2
    with pytest.raises(ValueError):
        family_half_intervals(7)


def test_half_intervals_dimension_stays_small():
    for n in [4, 8, 12, 16]:
        assert hh_dim_exact(family_half_intervals(n)) <= 3


def test_interval_dimension_scales_inversely_with_length():
    # Theta(n/k) coordinates isolated; adjacent pairs straddle the k-gaps.
    # n=8, k=2: support {1,3,4,6,7}, windows [1,2],[2,3],[4,5],[5,6],[7,8]
    assert hh_dim_exact(family_intervals(8, 2)) == 5
    # n=9, k=3: support {1,4,5,8}, windows [1,3],[2,4],[5,7],[6,8]
    assert hh_dim_exact(family_intervals(9, 3)) == 4
    # n=12, k=4: support {1,5,6,10}
    assert hh_dim_exact(family_intervals(12, 4)) == 4
    assert hh_dim_exact(family_intervals(10, 2)) == 6


def test_greedy_lower_bound_never_exceeds_exact():
    rng = np.random.default_rng(5)
    for trial in range(25):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, 8))
        masks = [int(rng.integers(1, 1 << n)) for _ in range(k)]
        sys_ = SetSystem(n, masks)
        exact = hh_dim_exact(sys_)
        greedy = hh_dim_greedy_lower(sys_, restarts=6, seed=trial)
        assert 1 <= greedy <= exact


def test_exact_matches_independent_permutation_search():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, 9))
        masks = [int(rng.integers(1, 1 << n)) for _ in range(k)]
        sys_ = SetSystem(n, masks)
        assert hh_dim_exact(sys_) == perm_submatrix_exact(sys_.masks, n)


def test_vc_never_exceeds_hh():
    rng = np.random.default_rng(19)
    for trial in range(25):
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, 10))
        masks = [int(rng.integers(0, 1 << n)) for _ in range(k)]
        sys_ = SetSystem(n, masks)
        assert vc_dim_exact(sys_) <= hh_dim_exact(sys_) or sys_.masks == [0]


def test_vc_hand_cases():
    assert vc_dim_exact(SetSystem(4, [[1], [2], [1, 2]])) == 1
    assert vc_dim_exact(SetSystem(4, [[], [1], [2], [1, 2]])) == 2
    assert vc_dim_exact(family_missing_few(5, 2)) == 2


def test_exact_budget_guard():
    with pytest.raises(UniverseTooLarge):
        hh_dim_exact(SetSystem(25, [[1]]))
    with pytest.raises(UniverseTooLarge):
        family_missing_few(30, 1)


# --- random family ----------------------------------------------------------


def test_random_family_reproducible_and_bounded():
    a = family_random(40, 6, 0.2, seed=3)
    b = family_random(40, 6, 0.2, seed=3)
    assert a.masks == b.masks
    assert family_random(40, 6, 0.2, seed=4).masks != a.masks
    with pytest.raises(ValueError):
        family_random(10, 3, 0.75, seed=1)
    with pytest.raises(ValueError):
        family_random(10, 3, 0.0, seed=1)
    with pytest.raises(ValueError, match="cells"):
        family_random(FAMILY_RANDOM_MAX_CELLS // 2 + 1, 2, 0.3, seed=1)


def _random_family_bit_by_bit(n, k, q, seed):
    """family_random's sets built as bitmasks one bit at a time."""
    rows = np.random.default_rng(derive_seed(seed, 0xFA11)).random((k, n)) < q
    masks = []
    for r in range(k):
        m = 0
        for i in range(n):
            if rows[r, i]:
                m |= 1 << i
        masks.append(m)
    return SetSystem(n, masks)


@pytest.mark.parametrize("n,k,q,seed", [
    (40, 6, 0.2, 3), (200, 30, 0.5, 11), (97, 12, 0.05, 5),
    (3, 20, 0.5, 2),  # repeated and empty rows: first copy wins
])
def test_random_family_sets_order_and_fingerprint_unchanged(n, k, q, seed):
    want = _random_family_bit_by_bit(n, k, q, seed)
    got = family_random(n, k, q, seed)
    assert got == want
    assert [got.coords_of(j) for j in range(got.num_sets)] == \
        [want.coords_of(j) for j in range(want.num_sets)]
    assert got.masks == want.masks
    assert got.fingerprint() == want.fingerprint()


def test_random_family_dimension_is_modest():
    fam = family_random(20, 5, 0.25, seed=9)
    assert hh_dim_exact(fam) <= 20


# --- composition ------------------------------------------------------------


def test_union_dedup_and_mismatch():
    a = SetSystem(5, [[1, 2], [3]])
    b = SetSystem(5, [[3], [4, 5]])
    u = union_systems(a, b)
    assert u.num_sets == 3
    with pytest.raises(UniverseMismatch):
        union_systems(a, SetSystem(6, [[1]]))


def test_union_product_contents():
    a = SetSystem(4, [[1], [2]])
    b = SetSystem(4, [[3], [4]])
    up = union_product(a, b)
    assert up.num_sets == 4
    assert set(up.masks) == {0b0101, 0b1001, 0b0110, 0b1010}
    # dimension of the product never drops below either factor
    assert hh_dim_exact(up) >= max(hh_dim_exact(a), hh_dim_exact(b)) - 1


# --- interval system mechanics ----------------------------------------------


def test_interval_membership():
    iv = IntervalSystem(10, 3, 5)
    assert iv.is_member(2, 4)
    assert iv.is_member(6, 10)
    assert not iv.is_member(1, 2)
    assert not iv.is_member(5, 10)
    assert not iv.is_member(0, 3)
    assert iv.member_interval(range(2, 5)) == (2, 4)
    assert iv.member_interval([4, 2, 3]) == (2, 4)
    assert iv.member_interval([1, 3]) is None


def test_interval_materialize_guard():
    with pytest.raises(UniverseTooLarge):
        IntervalSystem(100000, 2).to_explicit()


def test_interval_count_closed_form_matches_loop():
    for n in range(1, 30):
        for a in range(1, n + 3):
            for b in [a, a + 1, n, n + 4]:
                if b < a:
                    continue
                iv = IntervalSystem(n, a, b)
                want = sum(n - length + 1 for length in range(a, min(b, n) + 1))
                assert iv.num_sets == want, (n, a, b)


def test_as_interval():
    assert as_interval(range(3, 6)) == (3, 5)
    assert as_interval([4, 2, 3]) == (2, 4)
    assert as_interval([7]) == (7, 7)
    assert as_interval([1, 3]) is None
    assert as_interval([]) is None
    assert as_interval(range(5, 5)) is None


# --- explicit system mechanics ----------------------------------------------


def test_dedup_and_reverse_index():
    s = SetSystem(5, [[1, 2], [1, 2], [2, 3]])
    assert s.num_sets == 2
    assert s.ids_containing(2) == (0, 1)
    assert s.ids_containing(4) == ()
    assert s.member_id([2, 1]) == 0
    assert s.member_id([1, 3]) is None
    # the index built from the CSR arrays equals one built set by set
    for s in (family_random(300, 40, 0.3, seed=6), SetSystem(3, []), SetSystem(3, [[]])):
        ref = {}
        for j in range(s.num_sets):
            for c in s.coords_of(j):
                ref.setdefault(c, []).append(j)
        for c in range(s.n + 2):
            got = s.ids_containing(c)
            assert got == tuple(ref.get(c, ())) and all(type(j) is int for j in got)


def test_member_id_accepts_every_collection_form():
    s = SetSystem(6, [[1, 3, 5], [], [2, 4]])
    for q in ([5, 1, 3], [3, 1, 5, 1, 3], np.array([5, 3, 1], dtype=np.int64),
              range(1, 6, 2), (5, 3, 1), (1, 3, 5), s.coords_of(0), 0b10101):
        assert s.member_id(q) == 0, q
    assert s.member_id([]) == 1
    assert s.member_id(()) == 1
    assert s.member_id(0) == 1
    assert s.member_id([4, 2, 2]) == 2
    assert s.member_id([1, 3]) is None
    assert s.member_id((1, 2)) is None
    assert s.member_id(0b11) is None
    with pytest.raises(ValueError):
        s.member_id([1, 7])
    with pytest.raises(ValueError):
        s.member_id((0, 1))


def test_mixed_inputs_dedup_first_wins_and_masks():
    sets = [[3, 1], 0b101, 0b10, [2, 2], (4,), 0b1000, [], 0]
    s = SetSystem(4, sets)
    assert [s.coords_of(j) for j in range(s.num_sets)] == [(1, 3), (2,), (4,), ()]
    assert s.masks == [0b101, 0b10, 0b1000, 0]
    # the bitmask of every kept set, built one coordinate at a time
    for j in range(s.num_sets):
        m = 0
        for c in s.coords_of(j):
            m |= 1 << (c - 1)
        assert s.masks[j] == m
    with pytest.raises(ValueError):
        SetSystem(4, [0b10000])


def test_coordinate_validation():
    with pytest.raises(ValueError):
        SetSystem(4, [[0]])
    with pytest.raises(ValueError):
        SetSystem(4, [[5]])


def test_incidence_matrix():
    s = SetSystem(4, [[1, 3], [2]])
    m = incidence_matrix(s)
    assert m.shape == (2, 4)
    assert m.sum(axis=1).tolist() == [2, 1]
    assert m[0].tolist() == [1, 0, 1, 0]


# --- text round trips -------------------------------------------------------


def test_sets_file_round_trip():
    s = SetSystem(6, [[1, 2, 5], [3], [4, 6]])
    lines = s.to_lines()
    back = parse_sets_lines(lines)
    assert back == s
    assert back.fingerprint() == s.fingerprint()


def test_sets_file_comments_and_errors():
    good = ["# header", "n=4", "", "1 3", "# middle", "2 4"]
    s = parse_sets_lines(good)
    assert s.num_sets == 2 and s.n == 4
    with pytest.raises(ValueError):
        parse_sets_lines(["n=4", "3 1"])
    with pytest.raises(ValueError):
        parse_sets_lines(["1 2"])
    with pytest.raises(ValueError):
        parse_sets_lines([])


def test_fingerprints_distinguish():
    a = SetSystem(5, [[1, 2]])
    b = SetSystem(5, [[1, 3]])
    c = IntervalSystem(5, 2)
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert IntervalSystem(5, 2).fingerprint() == c.fingerprint()
