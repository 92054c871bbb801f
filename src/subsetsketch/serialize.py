"""Sketch state files: save a built sketch, reload it bit-identically.

A state file is JSON with a fixed header (format version, sketch kind,
universe size, accuracy parameters, master seed, set-system fingerprint)
plus per-kind dynamic state.  Hash coefficients are never stored: they are
pure functions of the master seed, so loading reconstructs the sketch via
its constructor and then restores only the data-dependent state (sampler
supports, heap contents, counter arrays).  Supports re-enter through
`restore_support`, which rebuilds each sampler's bookkeeping from its
settled snapshot in bulk, without re-running the sampling decisions, so a
loaded sketch answers every query with exactly the bits the saved one would
have.

Loading checks the shape of every field it reads and raises ValueError for
a malformed file; it also refuses a support that no saved sketch could hold
(see `BoundedSampler.restore_support`) and a `detector_reps` that does not
match the detector supports present, before any sampler is built.  Parts
that must agree are cross-checked: the header `n` and
`set_system_fingerprint` against the system's, an `l1` `clock` against the
ticks its supports encode, a priority `seen` against the heap coordinates
and [1, n], and the weights a priority coordinate carries in its heaps
against each other.  An lp file's counter table, which its `k` sizes, is
checked against the counters present before it is built.

`save_sketch` writes the outer containers piece by piece and encodes each
leaf (a support, a heap, a set) with `json.dumps`, so the file equals
`json.dump`'s byte for byte without holding the whole text.  A leaf is
encoded once per distinct object: the heaps of a priority state share one
`[coordinate, weight]` list per stored coordinate, so the writer formats
each stored coordinate once, and the loader likewise builds one heap entry
per coordinate.  The lp counters, base64 text that JSON never escapes, are
written between quotes as they are.
"""

from __future__ import annotations

import base64
import json
from collections import Counter
from itertools import chain

import numpy as np

from .errors import UnknownKind
from .hashing import ALPHA_INVERSE_CAP
from .l1_adapter import L1UniversalSketch
from .lp_additive import LpSetSketch, sketch_shape
from .priority_sampling import PrioritySketch
from .setsystem import IntervalSystem, SetSystem
from .subset_l0 import DETECTOR_BUDGET, L0UniversalSketch, coarse_thresholds

FORMAT_VERSION = 1
SKETCH_KINDS = ("l0", "l1", "priority", "lp_additive")


# ---------------------------------------------------------------------------
# field checks


def _field(d, key: str, *types):
    """d[key] if d is an object holding a value of exactly one of `types`
    (so true is not an int), else ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"expected an object holding {key!r}, got {type(d).__name__}")
    v = d.get(key)
    if type(v) not in types:
        want = " or ".join(t.__name__ for t in types)
        raise ValueError(f"field {key!r} must be {want}, got {v!r:.40}")
    return v


def _number(d, key: str) -> float | int:
    return _field(d, key, float, int)


def _master_seed(d: dict) -> int:
    return _field(_field(d, "seeds", dict), "master", int)


# ---------------------------------------------------------------------------
# set systems


def system_spec(system) -> dict:
    if isinstance(system, IntervalSystem):
        return {
            "kind": "intervals",
            "n": system.n,
            "min_len": system.min_len,
            "max_len": system.max_len,
        }
    if isinstance(system, SetSystem):
        return {
            "kind": "explicit",
            "n": system.n,
            # canonical tuples of Python ints
            "sets": [list(system.coords_of(j)) for j in range(system.num_sets)],
        }
    raise TypeError(f"unsupported system type: {type(system).__name__}")


def system_from_spec(spec: dict):
    kind = _field(spec, "kind", str)
    if kind == "intervals":
        return IntervalSystem(_field(spec, "n", int), _field(spec, "min_len", int),
                              _field(spec, "max_len", int))
    if kind == "explicit":
        sets = _field(spec, "sets", list)
        if not set(map(type, sets)) <= {list} or \
                not set(map(type, chain.from_iterable(sets))) <= {int}:
            raise ValueError("field 'sets' must be a list of integer lists")
        return SetSystem(_field(spec, "n", int), sets)
    raise UnknownKind(f"unknown system kind {kind!r}")


def _checked_system(d: dict):
    """The state's set system, whose n and fingerprint must equal the
    header's."""
    system = system_from_spec(_field(d, "system", dict))
    n = _field(d, "n", int)
    if n != system.n:
        raise ValueError(f"header n = {n} differs from the system's n = {system.n}")
    fingerprint, actual = _field(d, "set_system_fingerprint", str), system.fingerprint()
    if fingerprint != actual:
        raise ValueError(f"set_system_fingerprint {fingerprint!r:.40} differs from "
                         f"the system's {actual!r}")
    return system


# ---------------------------------------------------------------------------
# support-sketch plumbing


def _l0_slots(sk: L0UniversalSketch):
    """Every distinct bounded sampler inside a support sketch, in an order
    that is a pure function of the constructor arguments."""
    yield "coarse.exact", sk.coarse.exact
    for j, det in enumerate(sk.coarse.banks):
        for i, samp in enumerate(det.sampled_instances):
            yield f"coarse.bank{j}.copy{i}", samp
    for i, samp in enumerate(sk.ladder):
        yield f"ladder{i}", samp


def _l0_supports(sk: L0UniversalSketch) -> dict:
    return {name: samp.support() for name, samp in _l0_slots(sk)}


def _l0_restore(sk: L0UniversalSketch, supports: dict) -> None:
    slots = dict(_l0_slots(sk))
    if slots.keys() != supports.keys():
        odd = sorted(slots.keys() ^ supports.keys())
        raise ValueError(f"supports do not match the sketch's samplers: {odd[:3]}")
    for name, samp in slots.items():
        coords = supports[name]
        if type(coords) is not list:
            raise ValueError(f"support {name} must be a list")
        try:
            samp.restore_support(coords)
        except ValueError as e:
            raise ValueError(f"support {name}: {e}") from None


def _detector_reps(sk: L0UniversalSketch) -> int:
    return sk.coarse.banks[0].reps


def _checked_supports(state, universe: int) -> tuple[int, dict]:
    """(detector_reps, supports) of a support-sketch state, checked before
    any sampler is built: every sampled coarse bank stores detector_reps
    copies, so the copy supports present must number exactly that many per
    sampled bank."""
    reps = _field(state, "detector_reps", int)
    supports = _field(state, "supports", dict)
    if reps < 1 or reps % 2 == 0:
        raise ValueError(f"detector_reps must be odd and positive, got {reps}")
    banks = sum(t > DETECTOR_BUDGET for t in coarse_thresholds(universe))
    copies = sum(1 for name in supports if name.startswith("coarse.bank"))
    if copies != banks * reps:
        raise ValueError(f"detector_reps {reps} does not match the {copies} "
                         f"detector supports of {banks} sampled banks")
    return reps, supports


# ---------------------------------------------------------------------------
# per-kind state


def _header(kind, *, n, epsilon=None, p_norm=None, m_bar=None, seed,
            fingerprint=None) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "sketch_kind": kind,
        "n": int(n),
        "epsilon": epsilon,
        "p_norm": p_norm,
        "m_bar": m_bar,
        "seeds": {"master": int(seed)},
        "set_system_fingerprint": fingerprint,
    }


def _state_l0(sk: L0UniversalSketch) -> dict:
    if sk.ladder[0].project is not None or sk.universe != sk.system.n:
        raise ValueError("projected sketches are saved via their owning reduction")
    out = _header("l0", n=sk.system.n, epsilon=sk.epsilon, p_norm=0.0,
                  seed=sk.seed, fingerprint=sk.system.fingerprint())
    out["system"] = system_spec(sk.system)
    out["state"] = {
        "detector_reps": _detector_reps(sk),
        "supports": _l0_supports(sk),
    }
    return out


def _load_l0(d: dict) -> L0UniversalSketch:
    system = _checked_system(d)
    reps, supports = _checked_supports(_field(d, "state", dict), system.n)
    sk = L0UniversalSketch(system, _number(d, "epsilon"), _master_seed(d),
                           detector_reps=reps)
    _l0_restore(sk, supports)
    return sk


def _state_l1(sk: L1UniversalSketch) -> dict:
    out = _header("l1", n=sk.system.n, epsilon=sk.epsilon, p_norm=1.0,
                  m_bar=sk.capacity, seed=sk.seed,
                  fingerprint=sk.system.fingerprint())
    out["system"] = system_spec(sk.system)
    out["state"] = {
        "clock": sk.clock,
        "detector_reps": _detector_reps(sk.inner),
        "supports": _l0_supports(sk.inner),
    }
    return out


def _load_l1(d: dict) -> L1UniversalSketch:
    system = _checked_system(d)
    capacity = _field(d, "m_bar", int)
    state = _field(d, "state", dict)
    clock = _field(state, "clock", int)
    if not 0 <= clock <= capacity:
        raise ValueError(f"clock {clock} outside [0, m_bar = {capacity}]")
    reps, supports = _checked_supports(state, system.n * capacity)
    sk = L1UniversalSketch(system, _number(d, "epsilon"), _master_seed(d),
                           stream_capacity=capacity, detector_reps=reps)
    sk.clock = clock
    _l0_restore(sk.inner, supports)
    # every stored virtual coordinate encodes the tick that claimed it
    held = np.fromiter(chain.from_iterable(supports.values()), dtype=np.int64)
    if held.size and int(((held - 1) % capacity).max()) + 1 > clock:
        raise ValueError(f"clock {clock} is below a tick the supports encode")
    return sk


def _state_priority(sk: PrioritySketch) -> dict:
    out = _header("priority", n=sk.system.n, p_norm=sk.p, seed=sk.seed,
                  fingerprint=sk.system.fingerprint())
    out["system"] = system_spec(sk.system)
    # one [coordinate, weight] list per stored coordinate, shared by every
    # heap holding it, so `_write_json` encodes each pair once; weights
    # round-trip exactly through JSON's shortest-repr floats, priorities are
    # recomputed on load
    weight = {e[2]: e[3] for heap in sk._heaps for e in heap}
    pair = {c: [c, w] for c, w in weight.items()}
    out["state"] = {
        "k": sk.k,
        # heap lists in storage order
        "heaps": [[pair[e[2]] for e in heap] for heap in sk._heaps],
        "seen": sorted(sk._seen),
    }
    return out


def _heap_pairs(stored, j: int, n: int) -> tuple[tuple, tuple]:
    """(coordinates, weights) of saved heap j, or ValueError."""
    ok = (type(stored) is list and set(map(type, stored)) <= {list}
          and set(map(len, stored)) <= {2})
    cs, ws = zip(*stored) if ok and stored else ((), ())
    if not (ok and set(map(type, cs)) <= {int} and set(map(type, ws)) <= {float, int}):
        raise ValueError(f"heap {j} must be a list of [coordinate, weight] pairs")
    if cs and (min(cs) < 1 or max(cs) > n):
        raise ValueError(f"heap {j} holds a coordinate outside [1, {n}]")
    return cs, ws


def _load_priority(d: dict) -> PrioritySketch:
    st = _field(d, "state", dict)
    sk = PrioritySketch(_checked_system(d), _number(d, "p_norm"),
                        _field(st, "k", int), _master_seed(d))
    heaps = _field(st, "heaps", list)
    seen = _field(st, "seen", list)
    if len(heaps) != sk.system.num_sets:
        raise ValueError(f"{len(heaps)} heaps for {sk.system.num_sets} member sets")
    if not set(map(type, seen)) <= {int}:
        raise ValueError("field 'seen' must be a list of integers")
    pairs = [_heap_pairs(stored, j, sk.system.n) for j, stored in enumerate(heaps)]
    # a coordinate sits in many heaps with one weight: build its entry once,
    # hashing its uniform once, and let every heap share it, as `update` does
    held = set(zip(chain.from_iterable(cs for cs, _ in pairs),
                   map(float, chain.from_iterable(ws for _, ws in pairs))))
    weight = dict(held)
    if len(weight) != len(held):
        twice = min(c for c, r in Counter(c for c, _ in held).items() if r > 1)
        raise ValueError(f"heap coordinate {twice} carries two different weights")
    entry = {c: (w / sk.uniform_for(c), -c, c, w) for c, w in weight.items()}
    for j, (cs, _) in enumerate(pairs):
        # the saved list order already satisfies the heap invariant; rebuild
        # it verbatim so later displacements replay identically
        sk._heaps[j] = list(map(entry.__getitem__, cs))
    sk._refs = dict(Counter(chain.from_iterable(cs for cs, _ in pairs)))
    sk._seen = set(seen)
    if seen and (min(seen) < 1 or max(seen) > sk.system.n):
        raise ValueError(f"field 'seen' names a coordinate outside [1, {sk.system.n}]")
    if not sk._seen.issuperset(sk._refs):
        missing = min(sk._refs.keys() - sk._seen)
        raise ValueError(f"heap coordinate {missing} is missing from 'seen'")
    return sk


class _Base64Text(str):
    """Text made only of base64 characters, which JSON never escapes, so
    `_write_json` writes it between quotes without `json.dumps` scanning it;
    to any other reader it is a plain `str`."""


def _state_lp(sk: LpSetSketch) -> dict:
    out = _header("lp_additive", n=sk.n, epsilon=sk.epsilon, p_norm=sk.p,
                  seed=sk.seed)
    out["state"] = {
        "k": sk.k,
        "width": sk.cs.width,
        "depth": sk.cs.depth,
        "scaler_cap": ALPHA_INVERSE_CAP,
        "counters": _Base64Text(base64.b64encode(
            np.ascontiguousarray(sk.cs.counters).tobytes()).decode("ascii")),
    }
    return out


def _load_lp(d: dict) -> LpSetSketch:
    st = _field(d, "state", dict)
    n, p, eps = _field(d, "n", int), _number(d, "p_norm"), _number(d, "epsilon")
    k, width, depth = sketch_shape(n, p, eps, _field(st, "k", int))
    dims = (_field(st, "width", int), _field(st, "depth", int))
    if (width, depth) != dims:
        raise ValueError(
            f"sizing mismatch: file was written with counter dimensions {dims}, "
            f"rebuilt ({width}, {depth})"
        )
    if _field(st, "scaler_cap", int) != ALPHA_INVERSE_CAP:
        raise ValueError("scaler cap mismatch")
    # the counters present bound the table built: k alone would size it
    raw = base64.b64decode(_field(st, "counters", str, _Base64Text))
    if len(raw) != 8 * width * depth:
        raise ValueError(f"counters hold {len(raw)} bytes, "
                         f"a {depth} x {width} table needs {8 * width * depth}")
    sk = LpSetSketch(n, p, eps, _master_seed(d), k=k)
    sk.cs.counters[:] = np.frombuffer(raw, dtype=np.float64).reshape(depth, width)
    return sk


# ---------------------------------------------------------------------------
# public API

_SAVERS = [
    (L0UniversalSketch, _state_l0),
    (L1UniversalSketch, _state_l1),
    (PrioritySketch, _state_priority),
    (LpSetSketch, _state_lp),
]
_LOADERS = {
    "l0": _load_l0,
    "l1": _load_l1,
    "priority": _load_priority,
    "lp_additive": _load_lp,
}


def sketch_state(sk) -> dict:
    """JSON-ready state dict for any of the four sketch kinds."""
    for cls, fn in _SAVERS:
        if isinstance(sk, cls):
            return fn(sk)
    raise TypeError(f"cannot serialize {type(sk).__name__}")


def sketch_from_state(d: dict):
    if not isinstance(d, dict):
        raise ValueError(f"a state is a JSON object, got {type(d).__name__}")
    version = d.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r}")
    kind = d.get("sketch_kind")
    if not isinstance(kind, str) or kind not in _LOADERS:
        raise UnknownKind(f"unknown sketch kind {kind!r}; known: {SKETCH_KINDS}")
    return _LOADERS[kind](d)


def _write_json(f, obj, depth: int, memo: dict) -> None:
    """Write `json.dump(obj)`'s text, opening containers down to `depth`
    levels piece by piece and giving every leaf to the C-accelerated
    `json.dumps`; `json.dump` itself runs the pure-Python encoder.

    A leaf list of lists is joined from the texts of its items, and each
    distinct item object is encoded once: `memo` maps `id(item)` to its text
    for one save, during which the state dict keeps every item alive."""
    if depth and isinstance(obj, dict):
        f.write("{")
        for i, (key, value) in enumerate(obj.items()):
            f.write((", " if i else "") + json.dumps(key) + ": ")
            _write_json(f, value, depth - 1, memo)
        f.write("}")
    elif depth and isinstance(obj, list) and obj and isinstance(obj[0], (list, dict)):
        f.write("[")
        for i, item in enumerate(obj):
            if i:
                f.write(", ")
            _write_json(f, item, depth - 1, memo)
        f.write("]")
    elif isinstance(obj, list) and obj and isinstance(obj[0], list):
        for item in obj:
            if id(item) not in memo:
                memo[id(item)] = json.dumps(item)
        f.write("[" + ", ".join(map(memo.__getitem__, map(id, obj))) + "]")
    elif type(obj) is _Base64Text:
        f.write('"')
        f.write(obj)
        f.write('"')
    else:
        f.write(json.dumps(obj))


def save_sketch(sk, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        # top level, "state" and "system", then supports, heaps and sets
        _write_json(f, sketch_state(sk), 3, {})
        f.write("\n")


def load_sketch(path):
    with open(path, "r", encoding="utf-8") as f:
        return sketch_from_state(json.load(f))
