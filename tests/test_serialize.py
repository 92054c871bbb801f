"""State-file round trips: a loaded sketch must be bit-identical in behavior."""

import hashlib
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import subsetsketch
from subsetsketch.errors import DuplicateEntry, UnknownKind
from subsetsketch.l1_adapter import L1UniversalSketch
from subsetsketch.lp_additive import LpSetSketch, sketch_shape
from subsetsketch.priority_sampling import PrioritySketch
from subsetsketch.serialize import (
    FORMAT_VERSION,
    load_sketch,
    save_sketch,
    sketch_from_state,
    sketch_state,
    system_from_spec,
    system_spec,
)
from subsetsketch.setsystem import IntervalSystem, SetSystem, family_random
from subsetsketch.subset_l0 import L0UniversalSketch


def _l0_supports(sk):
    from subsetsketch.serialize import _l0_slots

    return {name: samp.support() for name, samp in _l0_slots(sk)}


def test_system_spec_round_trip():
    sys_a = family_random(40, 12, 0.3, seed=9)
    again = system_from_spec(system_spec(sys_a))
    assert again == sys_a
    assert again.fingerprint() == sys_a.fingerprint()

    iv = IntervalSystem(100, 8, 20)
    iv2 = system_from_spec(system_spec(iv))
    assert isinstance(iv2, IntervalSystem)
    assert (iv2.n, iv2.min_len, iv2.max_len) == (100, 8, 20)
    assert iv2.fingerprint() == iv.fingerprint()


def test_l0_round_trip(tmp_path):
    system = family_random(60, 10, 0.3, seed=4)
    sk = L0UniversalSketch(system, 0.4, seed=21)
    rng = np.random.default_rng(0)
    sk.update_many(rng.integers(1, 61, size=400))

    path = tmp_path / "l0.json"
    save_sketch(sk, path)
    lk = load_sketch(path)

    assert _l0_supports(lk) == _l0_supports(sk)
    for j in range(system.num_sets):
        q = system.coords_of(j)
        assert lk.query(q) == sk.query(q)
        assert lk.coarse_query(q) == sk.coarse_query(q)

    # future updates replay identically
    more = rng.integers(1, 61, size=300)
    sk.update_many(more)
    lk.update_many(more)
    assert _l0_supports(lk) == _l0_supports(sk)


def test_l0_interval_backend_round_trip(tmp_path):
    system = IntervalSystem(200, 12)
    sk = L0UniversalSketch(system, 0.5, seed=3)
    rng = np.random.default_rng(1)
    sk.update_many(rng.integers(1, 201, size=600))
    path = tmp_path / "l0iv.json"
    save_sketch(sk, path)
    lk = load_sketch(path)
    assert isinstance(lk.system, IntervalSystem)
    assert _l0_supports(lk) == _l0_supports(sk)
    for lo in (1, 40, 77):
        q = range(lo, lo + 15)
        assert lk.query(q) == sk.query(q)


def test_l1_round_trip(tmp_path):
    system = family_random(30, 8, 0.3, seed=7)
    sk = L1UniversalSketch(system, 0.5, seed=11, stream_capacity=5000)
    rng = np.random.default_rng(2)
    for c in rng.integers(1, 31, size=120):
        sk.update(int(c), int(rng.integers(1, 4)))

    path = tmp_path / "l1.json"
    save_sketch(sk, path)
    lk = load_sketch(path)
    assert lk.clock == sk.clock
    assert lk.capacity == sk.capacity
    assert _l0_supports(lk.inner) == _l0_supports(sk.inner)
    for j in range(system.num_sets):
        q = system.coords_of(j)
        assert lk.query(q) == sk.query(q)

    for c in rng.integers(1, 31, size=60):
        sk.update(int(c), 2)
        lk.update(int(c), 2)
    assert lk.clock == sk.clock
    assert _l0_supports(lk.inner) == _l0_supports(sk.inner)


def test_priority_round_trip(tmp_path):
    system = family_random(50, 10, 0.3, seed=13)
    sk = PrioritySketch(system, 1.5, 6, seed=5)
    rng = np.random.default_rng(3)
    coords = rng.permutation(50)[:35] + 1
    for c in coords:
        sk.update(int(c), float(rng.standard_normal()))

    path = tmp_path / "pri.json"
    save_sketch(sk, path)
    lk = load_sketch(path)

    assert lk._heaps == sk._heaps  # exact tuples, exact order
    assert lk._refs == sk._refs
    assert lk._seen == sk._seen
    for j in range(system.num_sets):
        q = system.coords_of(j)
        assert lk.query(q) == sk.query(q)
        assert lk.threshold(q) == sk.threshold(q)

    with pytest.raises(DuplicateEntry):
        lk.update(int(coords[0]), 1.0)

    # remaining arrivals displace identically on both sides
    rest = [c for c in range(1, 51) if c not in set(int(x) for x in coords)]
    for c in rest:
        v = float(rng.standard_normal())
        sk.update(c, v)
        lk.update(c, v)
    assert lk._heaps == sk._heaps


def test_lp_round_trip(tmp_path):
    sk = LpSetSketch(40, 1.0, 0.45, seed=17, k=64)
    rng = np.random.default_rng(4)
    coords = rng.integers(1, 41, size=50)
    deltas = rng.standard_normal(50)
    sk.update_many(coords, deltas)

    path = tmp_path / "lp.json"
    save_sketch(sk, path)
    lk = load_sketch(path)

    assert np.array_equal(lk.cs.counters, sk.cs.counters)
    s = list(range(5, 25))
    assert lk.query(s) == sk.query(s)

    more_c = rng.integers(1, 41, size=30)
    more_d = rng.standard_normal(30)
    sk.update_many(more_c, more_d)
    lk.update_many(more_c, more_d)
    assert np.array_equal(lk.cs.counters, sk.cs.counters)
    assert lk.query(s) == sk.query(s)


# sha256 of the counters and the exact answers of sketches built with fixed
# seeds; they pin the hashing, the update paths and the median so that state
# files written earlier load and answer the same under FORMAT_VERSION
GOLDEN_LP = {
    (0.5, 64): ("98c89cb783af76f479618040ed523f04a2425eca431163d9d9d6ae301c16db86",
                11.89496329573596, 11.894963295735963),
    (1.0, 64): ("f7cc4451f455e98ccde2cd8a3d6814a65c5eaf203217d7a59e30ff7bfa070a3b",
                2.579414518948265, 2.579414518948265),
    (2.0, 64): ("927b938801662553486e488b52cb33a07b901d855093a00bce09788fa23d1986",
                1.5589155446886256, 1.5589155446886256),
    (1.0, None): ("a0e11f2c46caa7c1fe925fcb9137d2cb0356d6490e3aea8477e0b402db072143",
                  2.572079423541711, 2.572079423541711),
}


@pytest.mark.parametrize("p,k", list(GOLDEN_LP))
def test_lp_golden_state_and_answers(tmp_path, p, k):
    n = 40
    sk = LpSetSketch(n, p, 0.45, seed=29, k=k)
    rng = np.random.default_rng(7)
    coords = rng.integers(1, n + 1, size=30)
    deltas = rng.standard_normal(30)
    dense = np.where(rng.random(n) < 0.5, rng.standard_normal(n), 0.0)
    for c, d in zip(coords[:10], deltas[:10]):
        sk.update(int(c), float(d))
    sk.update_many(coords[10:], deltas[10:])
    sk.update_dense(dense)
    values = dense.copy()
    np.add.at(values, coords - 1, deltas)

    digest, answer, exact = GOLDEN_LP[(p, k)]
    s = [3, 5, 8, 13, 21, 34]
    bits = np.zeros(n, dtype=bool)
    bits[np.array(s) - 1] = True
    path = tmp_path / "lp.json"
    save_sketch(sk, path)
    for sketch in (sk, load_sketch(path)):
        assert hashlib.sha256(sketch.cs.counters.tobytes()).hexdigest() == digest
        assert sketch.query(s) == answer
        assert sketch.query(bits) == answer
        assert sketch.query_exact(s, values) == exact


def test_header_fields(tmp_path):
    system = SetSystem(8, [[1, 2, 3], [4, 5]])
    sk = L0UniversalSketch(system, 0.5, seed=2)
    state = sketch_state(sk)
    assert state["format_version"] == FORMAT_VERSION
    assert state["sketch_kind"] == "l0"
    assert state["n"] == 8
    assert state["epsilon"] == 0.5
    assert state["p_norm"] == 0.0
    assert state["m_bar"] is None
    assert state["seeds"] == {"master": 2}
    assert state["set_system_fingerprint"] == system.fingerprint()
    # the file itself is plain JSON
    path = tmp_path / "x.json"
    save_sketch(sk, path)
    with open(path) as f:
        assert json.load(f)["sketch_kind"] == "l0"


def test_bad_version_and_kind_rejected():
    system = SetSystem(4, [[1, 2]])
    state = sketch_state(L0UniversalSketch(system, 0.5, seed=1))
    wrong = dict(state, format_version=99)
    with pytest.raises(ValueError, match="format version"):
        sketch_from_state(wrong)
    wrong = dict(state, sketch_kind="fourier")
    with pytest.raises(UnknownKind):
        sketch_from_state(wrong)


def test_projected_sketch_save_refused():
    system = SetSystem(4, [[1, 2]])
    inner = L1UniversalSketch(system, 0.5, seed=1, stream_capacity=64).inner
    with pytest.raises(ValueError, match="reduction"):
        sketch_state(inner)


def test_unserializable_type_rejected():
    with pytest.raises(TypeError):
        sketch_state(object())


# ---------------------------------------------------------------------------
# writing: save_sketch encodes piece by piece, byte-identical to json.dump


def _sketches_of_every_kind():
    rng = np.random.default_rng(12)
    system = family_random(50, 9, 0.3, seed=2)
    l0 = L0UniversalSketch(system, 0.4, seed=3)
    l0.update_many(rng.integers(1, 51, size=300))
    l0iv = L0UniversalSketch(IntervalSystem(120, 20), 0.4, seed=3)
    l0iv.update_many(rng.integers(1, 121, size=300))
    l1 = L1UniversalSketch(system, 0.4, seed=3, stream_capacity=3000)
    for c in rng.integers(1, 51, size=40):
        l1.update(int(c), 4)
    pri = PrioritySketch(system, 1.0, 5, seed=3)
    for c in rng.permutation(50)[:30] + 1:
        pri.update(int(c), float(rng.standard_normal()))
    lp = LpSetSketch(30, 1.0, 0.45, seed=3, k=16)
    lp.update_many(rng.integers(1, 31, size=40), rng.standard_normal(40))
    return {"l0": l0, "l0-intervals": l0iv, "l1": l1, "priority": pri,
            "lp_additive": lp}


@pytest.mark.parametrize("name", list(_sketches_of_every_kind()))
def test_save_bytes_equal_json_dump(tmp_path, name):
    sk = _sketches_of_every_kind()[name]
    path, again = tmp_path / "s.json", tmp_path / "again.json"
    save_sketch(sk, path)
    assert path.read_text(encoding="utf-8") == json.dumps(sketch_state(sk)) + "\n"
    # a loaded sketch writes the file it was loaded from, byte for byte
    save_sketch(load_sketch(path), again)
    assert again.read_bytes() == path.read_bytes()


# sha256 of a priority state file whose heaps share coordinates; it pins the
# file format, so that files written earlier load and save unchanged
GOLDEN_PRIORITY = "724a1c17e4801e97fd6a68e80c4175b50a66825d295371b7fbe70bc054febb37"


def test_priority_golden_state(tmp_path):
    system = family_random(40, 12, 0.5, seed=31)
    sk = PrioritySketch(system, 1.5, 4, seed=37)
    rng = np.random.default_rng(41)
    for c in rng.permutation(40)[:32] + 1:
        sk.update(int(c), float(rng.standard_normal()))
    held = [e[2] for heap in sk._heaps for e in heap]
    assert len(held) > 2 * len(set(held))  # most stored coordinates sit in several heaps
    path = tmp_path / "pri.json"
    save_sketch(sk, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_PRIORITY
    again = tmp_path / "again.json"
    save_sketch(load_sketch(path), again)
    assert hashlib.sha256(again.read_bytes()).hexdigest() == GOLDEN_PRIORITY


# ---------------------------------------------------------------------------
# reading: malformed files raise ValueError


def _l0_state():
    sk = L0UniversalSketch(IntervalSystem(300, 40), 0.4, seed=5)
    sk.update_many(np.random.default_rng(6).integers(1, 301, size=800))
    return sketch_state(sk)


def _first_nonempty(supports, prefix):
    return next(k for k, v in supports.items() if k.startswith(prefix) and v)


def _edited(state, edit):
    state = json.loads(json.dumps(state))
    edit(state)
    return state


def _set_support(prefix, value):
    def edit(st):
        sup = st["state"]["supports"]
        sup[_first_nonempty(sup, prefix)] = value
    return edit


def _append(prefix, value):
    def edit(st):
        sup = st["state"]["supports"]
        sup[_first_nonempty(sup, prefix)].append(value)
    return edit


def _never_sampled_in_ladder3(st):
    samp = L0UniversalSketch(IntervalSystem(300, 40), 0.4, seed=5).ladder[3]
    st["state"]["supports"]["ladder3"].append(
        next(c for c in range(1, 301) if not samp.sampled(c)))


def _repeat_first(st):
    sup = st["state"]["supports"]
    key = _first_nonempty(sup, "ladder")
    sup[key].append(sup[key][0])


MALFORMED = {
    "null in a support": _append("ladder", None),
    "float in a support": _append("ladder", 2.5),
    "true in a support": _append("ladder", True),
    "duplicate coordinate": _repeat_first,
    "coordinate past n": _append("ladder", 301),
    "never-sampled coordinate": _never_sampled_in_ladder3,
    "support not a list": _set_support("ladder", {"1": 2}),
    "supports a list": lambda st: st["state"].update(supports=[]),
    "state null": lambda st: st.update(state=None),
    "system null": lambda st: st.update(system=None),
    "epsilon a string": lambda st: st.update(epsilon="0.4"),
    "seeds null": lambda st: st.update(seeds=None),
    "unknown sampler": lambda st: st["state"]["supports"].update(extra=[]),
    "missing sampler": lambda st: st["state"]["supports"].pop("ladder0"),
    "version true": lambda st: st.update(format_version=True),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_l0_state_raises_value_error(case):
    with pytest.raises(ValueError):
        sketch_from_state(_edited(_l0_state(), MALFORMED[case]))


def test_state_not_an_object_raises_value_error():
    with pytest.raises(ValueError, match="JSON object"):
        sketch_from_state([1, 2])
    with pytest.raises(UnknownKind):
        sketch_from_state(dict(_l0_state(), sketch_kind=["l0"]))


@pytest.mark.parametrize("reps", [1, 5, 9, 10**12, True, 8, -7, None])
def test_detector_reps_must_match_the_copies_present(monkeypatch, reps):
    state = _l0_state()
    assert state["state"]["detector_reps"] == 7
    built = []
    monkeypatch.setattr(L0UniversalSketch, "__init__",
                        lambda *a, **k: built.append(1) or pytest.fail("built"))
    state["state"]["detector_reps"] = reps
    with pytest.raises(ValueError, match="detector_reps"):
        sketch_from_state(state)
    assert not built


def test_detector_reps_unconstrained_without_sampled_banks():
    # n <= 64: every coarse bank votes exactly, so reps names no sampler
    sk = L0UniversalSketch(SetSystem(20, [[1, 2, 3], [3, 4, 5, 6]]), 0.5, seed=1,
                           detector_reps=7)
    sk.update_many([1, 2, 3, 5])
    state = sketch_state(sk)
    assert not any(k.startswith("coarse.bank") for k in state["state"]["supports"])
    lk = sketch_from_state(state)
    assert lk.coarse.banks[0].reps == 7
    assert lk.query([1, 2, 3]) == sk.query([1, 2, 3])


def test_malformed_other_kinds_raise_value_error():
    sketches = _sketches_of_every_kind()
    edits = {
        "l1": [lambda st: st["state"].update(clock=None),
               lambda st: st["state"].update(clock=-1),
               lambda st: st.update(m_bar="3000")],
        "priority": [lambda st: st["state"].update(heaps=None),
                     lambda st: st["state"]["heaps"].append([]),
                     lambda st: st["state"]["heaps"][0].append([None, 1.0]),
                     lambda st: st["state"]["heaps"][0].append([3, 1.0, 5]),
                     lambda st: st["state"]["heaps"][0].append([0, 1.0]),
                     lambda st: st["state"].update(seen=[[1]])],
        "lp_additive": [lambda st: st["state"].update(counters=None),
                        lambda st: st["state"].update(k="16"),
                        lambda st: st["state"].update(width=None)],
    }
    for name, cases in edits.items():
        state = sketch_state(sketches[name])
        for edit in cases:
            with pytest.raises(ValueError):
                sketch_from_state(_edited(state, edit))


# ---------------------------------------------------------------------------
# parts of a state file that must agree with each other (CLI exit code 2)


def _largest_tick(state):
    cap = state["m_bar"]
    return max((v - 1) % cap + 1
               for sup in state["state"]["supports"].values() for v in sup)


def _l1_clock_below_a_tick(st):
    st["state"]["clock"] = _largest_tick(st) - 1


def _seen_without_heap_coordinate(st):
    st["state"]["seen"].remove(st["state"]["heaps"][0][0][0])


def _lp_k_with_dimensions(k):
    def edit(st):
        _, width, depth = sketch_shape(st["n"], st["p_norm"], st["epsilon"], k)
        st["state"].update(k=k, width=width, depth=depth)
    return edit


def _zero_fingerprint(st):
    st["set_system_fingerprint"] = "0" * 16


def _second_weight(st):
    """Double a coordinate's weight in the second heap that holds it."""
    held = set()
    for heap in st["state"]["heaps"]:
        for pair in heap:
            if pair[0] in held:
                pair[1] *= 2
                return
            held.add(pair[0])
    raise AssertionError("no coordinate sits in two heaps")


INCONSISTENT = {
    "l0 header n": ("l0", lambda st: st.update(n=st["n"] + 1)),
    "l0-intervals header n": ("l0-intervals", lambda st: st.update(n=st["n"] - 1)),
    "l1 header n": ("l1", lambda st: st.update(n=st["n"] + 1)),
    "priority header n": ("priority", lambda st: st.update(n=st["n"] + 1)),
    "l1 clock below a tick": ("l1", _l1_clock_below_a_tick),
    "l1 clock zero": ("l1", lambda st: st["state"].update(clock=0)),
    "seen omits a heap coordinate": ("priority", _seen_without_heap_coordinate),
    "seen past n": ("priority", lambda st: st["state"]["seen"].append(st["n"] + 1)),
    "seen zero": ("priority", lambda st: st["state"]["seen"].insert(0, 0)),
    # k sizes the counter table: 2^20 asks for about 11 GB of counters
    "lp k": ("lp_additive", lambda st: st["state"].update(k=1 << 20)),
    "lp k, width and depth": ("lp_additive", _lp_k_with_dimensions(1 << 20)),
    "l0 fingerprint": ("l0", _zero_fingerprint),
    "l0-intervals fingerprint": ("l0-intervals", _zero_fingerprint),
    "l1 fingerprint": ("l1", _zero_fingerprint),
    "priority fingerprint": ("priority", _zero_fingerprint),
    "priority coordinate with two weights": ("priority", _second_weight),
}
# the address space of the child process that loads an edited file
_CHILD_AS_LIMIT = 3 << 30
_CHILD_QUERY = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from subsetsketch.cli import main; sys.exit(main(sys.argv[2:]))")


@pytest.mark.parametrize("case", list(INCONSISTENT))
def test_inconsistent_state_exits_2(tmp_path, case):
    """The edited file is queried in a child process whose address space
    is limited, so that a load allocating by a number in the file fails
    there instead of exhausting the machine."""
    from subsetsketch.cli import main

    name, edit = INCONSISTENT[case]
    state = sketch_state(_sketches_of_every_kind()[name])
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(state))
    bad.write_text(json.dumps(_edited(state, edit)))
    token = {"l0-intervals": "1..40", "lp_additive": "1..20"}.get(name, "1")
    assert main(["query", str(good), token]) == 0
    src = os.path.dirname(os.path.dirname(subsetsketch.__file__))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_AS_LIMIT, _CHILD_AS_LIMIT))

    run = subprocess.run([sys.executable, "-c", _CHILD_QUERY, src, "query", str(bad), token],
                         capture_output=True, text=True, preexec_fn=limit_memory,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert run.returncode == 2, run.stderr
    assert "state file" in run.stderr
    assert "Traceback" not in run.stderr


def test_l1_clock_at_the_largest_tick_loads():
    state = sketch_state(_sketches_of_every_kind()["l1"])
    assert state["state"]["clock"] == _largest_tick(state)  # nothing evicted yet
    state["state"]["clock"] += 5  # ticks may also have left every support
    assert sketch_from_state(state).clock == state["state"]["clock"]
