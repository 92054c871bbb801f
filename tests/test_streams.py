"""Reference vector, stream format, and generator tests."""

import io

import numpy as np
import pytest

from subsetsketch.errors import (
    DuplicateEntry,
    ModelMismatch,
    StreamFormatError,
    UnknownKind,
)
from subsetsketch.streams import (
    MAX_STREAM_LENGTH,
    ExactVector,
    Stream,
    exact_subset_norm,
    gen_stream,
    parse_stream_lines,
    replay,
)


def test_subset_norm_reference_values():
    v = [3.0, 0.0, -4.0]
    assert exact_subset_norm(v, [1, 3], 2.0) == pytest.approx(5.0)
    assert exact_subset_norm(v, [1, 3], 0.0) == 2.0
    assert exact_subset_norm(v, [2], 2.0) == 0.0
    assert exact_subset_norm(v, [1, 3], 1.0) == pytest.approx(7.0)
    # bitset and dict forms agree with the list form
    mask = np.array([True, False, True])
    assert exact_subset_norm(v, mask, 2.0) == pytest.approx(5.0)
    assert exact_subset_norm({1: 3.0, 3: -4.0}, [1, 2, 3], 2.0) == pytest.approx(5.0)


def test_subset_norm_rejects_negative_p():
    with pytest.raises(ValueError):
        exact_subset_norm([1.0], [1], -1.0)


def test_insertion_model_validation():
    v = ExactVector(4, "insertion")
    v.apply(2)
    v.apply(2, 3)
    assert v.value(2) == 4.0
    with pytest.raises(ModelMismatch):
        v.apply(1, -1)
    with pytest.raises(ModelMismatch):
        v.apply(1, 0.5)
    with pytest.raises(ValueError):
        v.apply(5)


def test_turnstile_cancellation_clears_support():
    v = ExactVector(4, "turnstile")
    v.apply(3, 2.5)
    v.apply(3, -2.5)
    assert v.support() == []
    v.apply(1, -1.0)
    assert v.value(1) == -1.0


def test_entrywise_duplicate_rejected():
    v = ExactVector(4, "entrywise")
    v.apply(2, 7.0)
    with pytest.raises(DuplicateEntry):
        v.apply(2, 7.0)
    v.apply(3, 0.0)  # zero entry still consumes the slot
    with pytest.raises(DuplicateEntry):
        v.apply(3, 1.0)
    assert v.support() == [2]


def test_parse_round_trip_with_header():
    s = Stream("turnstile", 8, [1, 5, 1], [2.0, -1.0, -2.0])
    again = parse_stream_lines(s.lines())
    assert again.model == "turnstile"
    assert again.n == 8
    assert again.coords.tolist() == s.coords.tolist()
    assert again.values.tolist() == s.values.tolist()


def test_insertion_writer_expands_multiplicity():
    s = Stream("insertion", 4, [2, 1], [3.0, 1.0])
    assert s.lines() == ["# model=insertion n=4", "2", "2", "2", "1"]
    v = replay(parse_stream_lines(s.lines()))
    assert v.value(2) == 3.0 and v.value(1) == 1.0


def test_parse_infers_model_and_n():
    s = parse_stream_lines(["3", "1", "3"])
    assert s.model == "insertion" and s.n == 3
    t = parse_stream_lines(["3 1.5", "1 -0.5"])
    assert t.model == "turnstile" and t.n == 3


@pytest.mark.parametrize(
    "lines",
    [
        ["1 2 3"],  # too many fields
        ["zero"],  # non-integer coordinate
        ["0"],  # coordinates are 1-based
        ["2 abc"],  # bad value
        ["# model=quantum n=4", "1"],  # unknown model
        ["# model=insertion n=2", "5"],  # exceeds declared n
        [str(2**63)],  # beyond int64, so in no universe
        [str(10**30)],
    ],
)
def test_parse_rejects_malformed(lines):
    with pytest.raises(StreamFormatError):
        parse_stream_lines(lines)


def test_read_write_file(tmp_path):
    s = gen_stream("uniform", {"n": 32, "length": 100}, seed=7)
    path = tmp_path / "s.txt"
    s.write(path)
    v = replay(str(path))
    w = replay(s)
    assert v.values == w.values
    assert v.model == "insertion"


def test_replay_propagates_model_errors():
    with pytest.raises(DuplicateEntry):
        replay(["# model=entrywise n=3", "1 2.0", "1 2.0"])


def test_generators_deterministic():
    for kind, params in [
        ("uniform", {"n": 64, "length": 200}),
        ("zipf", {"n": 64, "length": 200, "theta": 1.3}),
        ("planted-subset", {"n": 64, "length": 200, "lo": 5, "hi": 12}),
        ("adversarial-turnstile", {"n": 64}),
        ("adversarial-sliding", {"n": 64}),
    ]:
        a = gen_stream(kind, params, seed=11)
        b = gen_stream(kind, params, seed=11)
        c = gen_stream(kind, params, seed=12)
        assert a.lines() == b.lines()
        assert a.lines() != c.lines()


def test_unknown_kind():
    with pytest.raises(UnknownKind):
        gen_stream("bogus", {}, seed=1)


def test_length_cap():
    with pytest.raises(ValueError, match="cap"):
        gen_stream("uniform", {"n": 10, "length": MAX_STREAM_LENGTH + 1}, seed=1)


def test_zipf_is_skewed():
    s = gen_stream("zipf", {"n": 128, "length": 5000, "theta": 1.5}, seed=3)
    counts = np.bincount(s.coords, minlength=129)
    assert counts.max() > 0.2 * len(s)


def test_planted_subset_hits_interval():
    s = gen_stream(
        "planted-subset", {"n": 100, "length": 1000, "lo": 10, "hi": 19, "inside": 0.6},
        seed=5,
    )
    lo, hi = s.meta["interval"]
    inside = int(((lo <= s.coords) & (s.coords <= hi)).sum())
    assert inside > 0.4 * len(s)


def test_adversarial_turnstile_leaves_planted_survivors():
    for seed in range(10):
        s = gen_stream("adversarial-turnstile", {"n": 128}, seed=seed)
        assert s.model == "turnstile"
        v = replay(s)
        lo, hi = s.meta["interval"]
        live = [c for c in v.support() if lo <= c <= hi]
        assert live == [s.meta["pivot"]] and lo == s.meta["pivot"]
        assert len(v.support()) == s.meta["survivors"]
        assert max(v.support()) == s.meta["pivot"]
        # a sign-blind consumer would see the deleted suffix as extra mass
        blind = ExactVector(s.n, "insertion")
        for c in s.coords.tolist():
            blind.apply(c)
        dead = [c for c in blind.support() if lo <= c <= hi]
        assert len(dead) > len(live)


def test_adversarial_sliding_phases():
    s = gen_stream("adversarial-sliding", {"n": 64}, seed=2)
    half = s.meta["window"]
    first = s.coords[:half].tolist()
    second = s.coords[half:].tolist()
    assert sorted(first) == list(range(1, half + 1))
    assert sorted(second) == list(range(half + 1, 2 * half + 1))


@pytest.mark.parametrize("model", ["insertion", "turnstile", "entrywise"])
def test_check_raises_exactly_when_replay_does(model):
    rng = np.random.default_rng(17)
    pool = np.array([-1.0, 0.0, 1.0, 2.0, 2.5, np.inf, np.nan])
    raised = 0
    for _ in range(400):
        m = int(rng.integers(0, 6))
        n = int(rng.integers(1, 5))  # few coordinates, so they repeat
        s = Stream(model, n, rng.integers(1, n + 1, size=m),
                   pool[rng.integers(0, pool.size, size=m)])
        try:
            replay(s)
            want = None
        except (ModelMismatch, DuplicateEntry, ValueError) as e:
            want = type(e)
        try:
            s.check(model)
            got = None
        except (ModelMismatch, DuplicateEntry, ValueError) as e:
            got = type(e)
        assert got is want, (s.coords.tolist(), s.values.tolist())
        raised += want is not None
    assert 0 < raised < 400


def test_check_names_the_first_offender():
    s = Stream("insertion", 5, [1, 2, 3], [1.0, 2.5, -1.0])
    with pytest.raises(ModelMismatch, match="got 2.5"):
        s.check("insertion")
    s = Stream("entrywise", 5, [4, 2, 4, 2], [1.0, 1.0, 3.0, 1.0])
    with pytest.raises(DuplicateEntry, match="coordinate 4 delivered twice"):
        s.check("entrywise")
    s.check("turnstile")  # repeats are fine there


def test_writer_refuses_a_stream_that_breaks_its_model(tmp_path):
    # written unit by unit, 2.5 would lose half a unit and -1 would vanish
    s = Stream("insertion", 3, [1, 2, 3], [2.5, -1.0, 3.0])
    with pytest.raises(ModelMismatch, match="got 2.5"):
        s.lines()
    with pytest.raises(ModelMismatch):
        s.write(tmp_path / "s.txt")
    assert not (tmp_path / "s.txt").exists()
    with pytest.raises(DuplicateEntry):
        Stream("entrywise", 3, [2, 2], [1.0, 4.0]).lines()


def test_replay_accepts_file_object_lines(tmp_path):
    text = "# model=turnstile n=4\n2 1.5\n2 -0.5\n"
    s = parse_stream_lines(io.StringIO(text))
    assert replay(s).value(2) == 1.0
    # an open file, a path object and a path string replay alike
    path = tmp_path / "s.txt"
    path.write_text(text)
    assert replay(io.StringIO(text)).values == replay(path).values == \
        replay(str(path)).values == replay(text).values == {2: 1.0}
    assert replay("12\n3\n").values == {12: 1.0, 3: 1.0}  # lines, not characters
