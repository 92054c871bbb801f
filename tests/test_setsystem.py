import numpy as np
import pytest

from reference import SetSystemBySet, hh_set, incidence_matrix, parse_sets_lines_by_token
from subsetsketch.cli import main
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
    read_sets_file,
    union_product,
    union_systems,
    vc_dim_exact,
    write_sets_file,
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
    with pytest.raises(UniverseTooLarge, match="singleton sets"):
        family_singletons(100_000_000)  # refused before one set is built


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


def test_sets_file_refuses_an_interval_system(tmp_path):
    # an interval family has no sets file text: writing n alone would read
    # back as a system with no sets
    path = tmp_path / "sets.txt"
    with pytest.raises(TypeError, match="IntervalSystem"):
        write_sets_file(str(path), IntervalSystem(100, 30))
    assert not path.exists()


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


# --- the array build against the set-by-set reference ------------------------


def _set_forms(rng, n, k):
    """k member sets, each as (form, coordinates): coordinates unsorted,
    with repeats and with whole sets repeated, in every form `SetSystem`
    takes."""
    out = []
    for _ in range(k):
        if out and rng.random() < 0.2:
            out.append(out[int(rng.integers(len(out)))])  # a duplicate set
            continue
        form = ["list", "tuple", "range", "int64", "int32", "generator", "mask"][
            int(rng.integers(7))]
        if form == "range" and n:
            lo = int(rng.integers(1, n + 1))
            cs = list(range(lo, int(rng.integers(lo, n + 1)) + 1))
        else:
            cs = rng.integers(1, n + 1, size=int(rng.integers(0, 2 * n + 1))).tolist() if n else []
            if rng.random() < 0.5:
                cs.sort()
        out.append((form, cs))
    return out


def _materialized(forms):
    makers = {"list": list, "tuple": tuple, "int64": lambda cs: np.array(cs, dtype=np.int64),
              "int32": lambda cs: np.array(cs, dtype=np.int32),
              "generator": lambda cs: (c for c in cs),
              "range": lambda cs: range(cs[0], cs[-1] + 1) if cs else range(0),
              "mask": lambda cs: sum(1 << (c - 1) for c in set(cs))}
    return [makers[form](cs) for form, cs in forms]


@pytest.mark.parametrize("seed", range(60))
def test_array_build_matches_set_by_set_reference(seed):
    rng = np.random.default_rng(derive_seed(seed, 0x5E75))
    n = [0, 1, 5, 8, 9, 63, 64, 65, 200][seed % 9]
    forms = _set_forms(rng, n, int(rng.integers(0, 25)))
    got, want = SetSystem(n, _materialized(forms)), SetSystemBySet(n, _materialized(forms))
    assert got._coords == want._coords
    assert list(got._id_by_coords.items()) == list(want._id_by_coords.items())
    assert all(type(c) is int for cs in got._coords for c in cs)
    for a, b in zip(got.reverse_csr, want.reverse_csr):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
    for c in range(-1, n + 3):
        assert got.ids_containing(c) == want.ids_containing(c)
        assert all(type(j) is int for j in got.ids_containing(c))
    assert got.masks == want.masks
    assert got.fingerprint() == want.fingerprint()
    queries = [cs for _, cs in forms] + [
        rng.integers(1, n + 1, size=int(rng.integers(0, 4))).tolist() for _ in range(10) if n]
    for q in queries:
        for form in _materialized([(f, q) for f in ("list", "tuple", "int64", "mask")]):
            assert got.member_id(form) == want.member_id(form), (q, form)


def test_set_errors_name_the_first_bad_set():
    for sets, message in [
        ([[1, 2], [9, 0], [7]], "coordinate 0 outside universe [1, 4]"),
        ([[3, 1], 0b100000, [0]], "set mask exceeds universe"),
        ([[3, 1], [0], 0b100000], "coordinate 0 outside universe [1, 4]"),
        ([[1], [2 ** 70], [0]], f"coordinate {2 ** 70} outside universe [1, 4]"),
        ([[1], [0], [2 ** 70]], "coordinate 0 outside universe [1, 4]"),
        ([[1], [-2 ** 70, 2]], f"coordinate {-2 ** 70} outside universe [1, 4]"),
        # arrays an int64 cast would wrap or saturate: the true value named
        ([np.array([1, 2 ** 63], np.uint64)], f"coordinate {2 ** 63} outside universe [1, 4]"),
        ([np.array([2.0, 1e19])], f"coordinate {int(1e19)} outside universe [1, 4]"),
        ([[1], np.array([np.nan])], "cannot convert float NaN to integer"),
    ]:
        with pytest.raises(ValueError) as got:
            SetSystem(4, sets)
        with pytest.raises(ValueError) as want:
            SetSystemBySet(4, sets)
        assert str(got.value) == str(want.value) == message, sets
    # in range, yet past int64: a ValueError, where an OverflowError was raised
    with pytest.raises(ValueError, match="beyond int64"):
        SetSystem(10 ** 30, [[1, 2 ** 70]])


def test_masks_of_a_wide_universe():
    s = SetSystem(1000, [range(1, 1001), [1000], [], [1, 8, 9, 999], 1 << 999 | 1])
    assert s.masks == [(1 << 1000) - 1, 1 << 999, 0, 1 | 1 << 7 | 1 << 8 | 1 << 998,
                       1 << 999 | 1]
    assert s.coords_of(4) == (1, 1000)
    assert s.member_id(1 << 999) == 1 and s.member_id(1 << 998) is None


def test_masks_cost_their_own_bits_not_the_universe():
    # a dense n-bit row per set would need 125 GB here
    s = SetSystem(10 ** 12, [0b11, [5], [1, 2], [70, 3]])
    assert s.num_sets == 3 and s.coords_of(0) == (1, 2)
    assert s.member_id(0b11) == 0 and s.member_id(0b10000) == 1
    assert s.member_id(1 << 69 | 0b100) == 2 and s.member_id(0b1) is None
    assert SetSystem(10 ** 12, [[1, 2]]).member_id(0b11) == 0
    assert s.masks == SetSystemBySet(10 ** 12, [0b11, [5], [3, 70]]).masks


# --- sets files: the same results and error texts as the per-token parser ----

# Each outcome was recorded from the parser that read one token at a time
# with `int` (the reference `parse_sets_lines_by_token`): a list of sets, or
# the ValueError's text.  "huge n" is the one that changed: a coordinate past
# int64 inside a universe past int64 raised OverflowError, a traceback in the
# CLI.
SETS_FILES = {
    "non-ascending": ("n=4\n1 2\n3 1\n", "set indices must be ascending: '3 1'"),
    "float": ("n=4\n1.5\n", "invalid literal for int() with base 10: '1.5'"),
    "word": ("n=4\n1 x\n", "invalid literal for int() with base 10: 'x'"),
    "plus sign": ("n=4\n+3\n", [(3,)]),
    "underscore": ("n=20\n1_0\n", [(10,)]),
    "underscore, out of range": ("n=4\n1_0\n", "coordinate 10 outside universe [1, 4]"),
    "beyond int64": ("n=4\n99999999999999999999\n",
                     "coordinate 99999999999999999999 outside universe [1, 4]"),
    "below int64": ("n=4\n-99999999999999999999\n",
                    "coordinate -99999999999999999999 outside universe [1, 4]"),
    "int64 max": ("n=9223372036854775807\n9223372036854775807\n", [(2 ** 63 - 1,)]),
    "zero": ("n=4\n0 1\n", "coordinate 0 outside universe [1, 4]"),
    "n + 1": ("n=4\n1 5\n", "coordinate 5 outside universe [1, 4]"),
    "comments and blanks": ("# c\n\nn=4\n  \n1 3\n# mid\n\n2 4\n", [(1, 3), (2, 4)]),
    "missing n=": ("1 2\n", "sets file must start with n=<int>"),
    "empty file": ("", "empty sets file"),
    "only comments": ("# a\n\n", "empty sets file"),
    "lone minus": ("n=4\n1 -\n", "invalid literal for int() with base 10: '-'"),
    "lone plus": ("n=4\n+\n", "invalid literal for int() with base 10: '+'"),
    "sign, space": ("n=4\n- 1\n", "invalid literal for int() with base 10: '-'"),
    "plus, space": ("n=4\n+ 1\n", "invalid literal for int() with base 10: '+'"),
    "trailing plus": ("n=4\n2 +\n", "invalid literal for int() with base 10: '+'"),
    "joined by a dash": ("n=4\n1 2-3\n", "invalid literal for int() with base 10: '2-3'"),
    "tabs and double spaces": ("n=4\n1\t3\n2  4\n", [(1, 3), (2, 4)]),
    "repeats": ("n=4\n1 1 2\n2 2\n1 2\n", [(1, 2), (2,)]),
    "non-ASCII digit": ("n=4\n\u0663\n", [(3,)]),
    "NUL": ("n=4\n1\x002\n", "invalid literal for int() with base 10: '1\\x002'"),
    "bad n": ("n=abc\n1\n", "invalid literal for int() with base 10: 'abc'"),
    "negative n": ("n=-1\n", "universe size must be nonnegative"),
    "parse error before range error": ("n=4\n0\n1 x\n",
                                       "invalid literal for int() with base 10: 'x'"),
    "order error before parse error": ("n=4\n3 1\n1 x\n",
                                       "set indices must be ascending: '3 1'"),
    "parse error before order error": ("n=4\n1 x\n3 1\n",
                                       "invalid literal for int() with base 10: 'x'"),
    "first bad set": ("n=4\n1 9\n0 2\n", "coordinate 9 outside universe [1, 4]"),
    "huge n": ("n=1000000000000000000000000\n1 99999999999999999999\n",
               "set coordinates beyond int64 in a universe of 1000000000000000000000000"),
}


@pytest.mark.parametrize("case", list(SETS_FILES))
def test_sets_file_results_and_errors_unchanged(case):
    text, want = SETS_FILES[case]
    lines = text.splitlines(True)
    if isinstance(want, str):
        with pytest.raises(ValueError) as got:
            parse_sets_lines(lines)
        assert str(got.value) == want
    else:
        got = parse_sets_lines(lines)
        assert [got.coords_of(j) for j in range(got.num_sets)] == want
        assert got._coords == parse_sets_lines_by_token(lines)._coords
        assert got.fingerprint() == parse_sets_lines_by_token(lines).fingerprint()


@pytest.mark.parametrize("case", list(SETS_FILES))
def test_sets_file_cases_through_build(tmp_path, capsys, case):
    text, want = SETS_FILES[case]
    sets_path, stream_path = tmp_path / "sets.txt", tmp_path / "s.txt"
    sets_path.write_text(text, encoding="utf-8")
    stream_path.write_text("# model=entrywise n=1\n1 2.5\n")
    rc = main(["build", "--sketch", "priority", "--stream", str(stream_path),
               "--sets", str(sets_path), "--out", str(tmp_path / "x.json")])
    err = capsys.readouterr().err
    if isinstance(want, str):
        assert rc == 2 and err == f"error: sets file: {want}\n"
    else:
        assert rc == 0, err


_TOKENS = ["1", "2", "3", "4", "17", "0", "007", "+3", "-2", "-", "+", "1_0", "1.5", "x",
           "99999999999999999999", "9223372036854775807", "9223372036854775808",
           "-9223372036854775808", "\u0663", "0x1", "1e2", "#", "1-2", "3+1"]
_SEPARATORS = [" ", " ", " ", "  ", "\t", "\x0b", "\xa0", ""]


@pytest.mark.parametrize("seed", range(20))
def test_sets_file_parse_agrees_with_per_token_parse_on_junk(seed, tmp_path):
    rng = np.random.default_rng(derive_seed(seed, 0x70C5))
    for _ in range(50):
        n = [4, 20, 2 ** 63 - 1][int(rng.integers(3))]
        lines = [f"n={n}"]
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 5))
            if rng.random() < 0.5:  # mostly well-formed lines
                lines.append(" ".join(map(str, np.sort(rng.integers(1, 21, size=k)))))
                continue
            parts = [_TOKENS[int(i)] for i in rng.integers(len(_TOKENS), size=k)]
            seps = [_SEPARATORS[int(i)] for i in rng.integers(len(_SEPARATORS), size=k)]
            lines.append("".join(t + s for t, s in zip(parts, seps)))
        text = "\n".join(lines) + "\n"
        path = tmp_path / "sets.txt"
        path.write_text(text, encoding="utf-8")
        try:
            with open(path, encoding="utf-8") as f:  # lines split as the file reader splits
                want = parse_sets_lines_by_token(f)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                read_sets_file(str(path))
            assert str(got.value) == str(e), text
        else:
            got = read_sets_file(str(path))
            assert got._coords == want._coords, text
