"""Reference vectors, stream files, and instance generators.

The text stream format (one update per line, 1-based coordinates):

    # model=<insertion|turnstile|entrywise> n=<int>
    i            insertion: v_i += 1
    i delta      turnstile: v_i += delta
    i value      entrywise: v_i = value, each coordinate at most once

The header is optional on input; without it the model is inferred from line
arity (bare coordinates mean insertion, pairs mean turnstile) and n from the
largest coordinate; a coordinate must lie in [1, 2^63).  A `Stream` is
columnar (`coords`, `values`).  `ExactVector` replays any stream exactly and
is the ground truth everything else is judged against; `Stream.check(model)`
raises what replaying the stream under a model would.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateEntry,
    ModelMismatch,
    StreamFormatError,
    UnknownKind,
)
from .rng import derive_seed

MODELS = ("insertion", "turnstile", "entrywise")
MAX_STREAM_LENGTH = 10**7


def check_insertion(values) -> None:
    """The insertion model's rule: every increment is a positive integer.
    Takes one value or an array; a violation names the first offending value."""
    v = np.asarray(values, dtype=np.float64)
    ok = (v >= 1) & (v < math.inf) & (np.floor(v) == v)  # NaN fails all three
    if not ok.all():
        bad = v.flat[int(np.argmin(ok))]
        raise ModelMismatch(
            f"insertion model takes positive integer increments, got {bad}"
        )


class ExactVector:
    """Sparse accumulated vector with its stream model tag."""

    def __init__(self, n: int, model: str = "insertion") -> None:
        if n < 1:
            raise ValueError("dimension must be positive")
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        self.n = n
        self.model = model
        self.values: dict[int, float] = {}
        self._seen: set[int] = set()

    def apply(self, coord: int, value: float = 1.0) -> None:
        coord = int(coord)
        if not 1 <= coord <= self.n:
            raise ValueError(f"coordinate {coord} outside [1, {self.n}]")
        if self.model == "insertion":
            check_insertion(value)
            self.values[coord] = self.values.get(coord, 0.0) + value
        elif self.model == "turnstile":
            if not math.isfinite(value):
                raise ValueError("turnstile delta must be finite")
            new = self.values.get(coord, 0.0) + value
            if new == 0.0:
                self.values.pop(coord, None)
            else:
                self.values[coord] = new
        else:  # entrywise
            if coord in self._seen:
                raise DuplicateEntry(f"coordinate {coord} delivered twice")
            self._seen.add(coord)
            if not math.isfinite(value):
                raise ValueError("entry value must be finite")
            if value != 0.0:
                self.values[coord] = value

    def value(self, coord: int) -> float:
        return self.values.get(int(coord), 0.0)

    def support(self) -> list[int]:
        return sorted(self.values)

    def __repr__(self) -> str:
        return f"ExactVector(n={self.n}, model={self.model}, nnz={len(self.values)})"


def _subset_coords(s, n: int):
    if isinstance(s, np.ndarray) and s.dtype == bool:
        if s.shape != (n,):
            raise ValueError(f"bitset must have length {n}")
        return (np.nonzero(s)[0] + 1).tolist()
    return [int(c) for c in s]


def exact_subset_norm(v, s, p: float) -> float:
    """Exact ||v o s||_p; p = 0 counts the nonzero coordinates inside s."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    if isinstance(v, ExactVector):
        values, n = v.values, v.n
    elif isinstance(v, dict):
        values, n = v, max(v, default=1)
    else:
        arr = np.asarray(v, dtype=np.float64)
        values = {i + 1: float(x) for i, x in enumerate(arr) if x != 0.0}
        n = arr.shape[0]
    coords = _subset_coords(s, n)
    picked = [abs(values[c]) for c in set(coords) if values.get(c, 0.0) != 0.0]
    if not picked:
        return 0.0
    if p == 0:
        return float(len(picked))
    return float(sum(x**p for x in picked) ** (1.0 / p))


# ---------------------------------------------------------------------------
# stream files


@dataclass(eq=False)  # field-wise == breaks on arrays
class Stream:
    """A parsed or generated stream, one row per update: `coords` (int64,
    1-based) and `values` (float64, the increment, delta or entry)."""

    model: str
    n: int
    coords: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)

    def __len__(self) -> int:
        return self.coords.size

    def check(self, model: str) -> None:
        """Raise what `replay` would on the first update breaking `model`:
        ModelMismatch, DuplicateEntry (entrywise) or ValueError (not finite)."""
        if model == "insertion":
            return check_insertion(self.values)
        repeat = np.full(len(self), model == "entrywise")
        repeat[np.unique(self.coords, return_index=True)[1]] = False
        bad = np.flatnonzero(repeat | ~np.isfinite(self.values))[:1]
        if bad.size and repeat[bad[0]]:
            raise DuplicateEntry(f"coordinate {self.coords[bad[0]]} delivered twice")
        if bad.size:
            raise ValueError(f"{model} value must be finite, got {self.values[bad[0]]}")

    def lines(self) -> list[str]:
        """The stream file's lines; raises as `check(model)` would."""
        self.check(self.model)
        out = [f"# model={self.model} n={self.n}"]
        rows = zip(self.coords.tolist(), self.values.tolist())
        if self.model == "insertion":
            for c, v in rows:
                out.extend([str(c)] * int(v))
        else:
            out.extend(f"{c} {v:g}" for c, v in rows)
        return out

    def write(self, path) -> None:
        text = "\n".join(self.lines()) + "\n"  # refuses before opening the file
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _parse_header(line: str) -> tuple[str | None, int | None]:
    model = n = None
    for tok in line[1:].split():
        if tok.startswith("model="):
            model = tok[6:]
            if model not in MODELS:
                raise StreamFormatError(f"unknown model {model!r}")
        elif tok.startswith("n="):
            try:
                n = int(tok[2:])
            except ValueError as e:
                raise StreamFormatError(f"bad n in header: {line!r}") from e
    return model, n


def parse_stream_lines(lines) -> Stream:
    model: str | None = None
    n: int | None = None
    coords: list[int] = []
    values: list[float] = []
    arity = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if lineno == 1 or not coords:
                m, hn = _parse_header(line)
                model = model or m
                n = n or hn
            continue
        toks = line.split()
        if len(toks) not in (1, 2):
            raise StreamFormatError(f"line {lineno}: expected 1 or 2 fields: {line!r}")
        try:
            coord = int(toks[0])
        except ValueError as e:
            raise StreamFormatError(f"line {lineno}: bad coordinate {toks[0]!r}") from e
        if not 1 <= coord < 1 << 63:  # stored as int64
            raise StreamFormatError(f"line {lineno}: coordinate {coord} outside [1, 2^63)")
        if len(toks) == 2:
            try:
                value = float(toks[1])
            except ValueError as e:
                raise StreamFormatError(f"line {lineno}: bad value {toks[1]!r}") from e
        else:
            value = 1.0
        arity = arity or len(toks)
        coords.append(coord)
        values.append(value)
    meta = {"header_model": model, "header_n": n}
    if model is None:
        model = "insertion" if arity in (None, 1) else "turnstile"
    top = max(coords, default=0)
    if n is None:
        n = max(top, 1)
    if top > n:
        raise StreamFormatError(f"coordinate {top} exceeds declared n={n}")
    return Stream(model, n, coords, values, meta)


def read_stream_file(path) -> Stream:
    with open(path, "r", encoding="utf-8") as f:
        return parse_stream_lines(f)


def replay(stream) -> ExactVector:
    """Accumulate a Stream (or its text, a path, or lines such as an open
    file) exactly."""
    if isinstance(stream, str) and "\n" in stream:  # the text itself
        stream = parse_stream_lines(stream.splitlines())
    elif isinstance(stream, (str, os.PathLike)):
        stream = read_stream_file(stream)
    elif not isinstance(stream, Stream):  # an open file or other lines
        stream = parse_stream_lines(stream)
    v = ExactVector(stream.n, stream.model)
    for coord, value in zip(stream.coords.tolist(), stream.values.tolist()):
        v.apply(coord, value)
    return v


# ---------------------------------------------------------------------------
# generators


def _fraction(params: dict, name: str, default: float) -> float:
    """params[name] (else `default`) as a float in [0, 1], or ValueError."""
    x = float(params.get(name, default))
    if not 0.0 <= x <= 1.0:  # refuses NaN too
        raise ValueError(f"{name} must be in [0, 1], got {x}")
    return x


def _check_length(m: int) -> int:
    m = int(m)
    if m < 0:
        raise ValueError("stream length must be nonnegative")
    if m > MAX_STREAM_LENGTH:
        raise ValueError(f"stream length {m} exceeds generator cap {MAX_STREAM_LENGTH}")
    return m


def gen_stream(kind: str, params: dict, seed: int) -> Stream:
    """Reproducible stream instances; see the per-kind helpers for params."""
    if kind not in GENERATORS:
        raise UnknownKind(f"unknown stream kind {kind!r}; known: {sorted(GENERATORS)}")
    rng = np.random.default_rng(derive_seed(seed, "gen", kind))
    return GENERATORS[kind](dict(params), rng)


def _gen_uniform(params: dict, rng) -> Stream:
    n = int(params.get("n", 1024))
    m = _check_length(params.get("length", n))
    coords = rng.integers(1, n + 1, size=m)
    return Stream("insertion", n, coords, np.ones(m), {"kind": "uniform"})


def _gen_zipf(params: dict, rng) -> Stream:
    n = int(params.get("n", 1024))
    m = _check_length(params.get("length", n))
    theta = float(params.get("theta", 1.1))
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    weights = np.arange(1, n + 1, dtype=np.float64) ** -theta
    weights /= weights.sum()
    ranks = rng.choice(n, size=m, p=weights)
    perm = rng.permutation(n) + 1  # which coordinate gets which rank
    coords = perm[ranks]
    return Stream("insertion", n, coords, np.ones(m), {"kind": "zipf", "theta": theta})


def _gen_planted(params: dict, rng) -> Stream:
    n = int(params.get("n", 1024))
    m = _check_length(params.get("length", n))
    lo = int(params.get("lo", 1))
    hi = int(params.get("hi", max(1, n // 4)))
    inside = _fraction(params, "inside", 0.5)
    if not 1 <= lo <= hi <= n:
        raise ValueError("need 1 <= lo <= hi <= n")
    pick = rng.random(m) < inside
    coords = np.where(
        pick,
        rng.integers(lo, hi + 1, size=m),
        rng.integers(1, n + 1, size=m),
    )
    return Stream("insertion", n, coords, np.ones(m),
                  {"kind": "planted-subset", "interval": (lo, hi)})


def _gen_adv_turnstile(params: dict, rng) -> Stream:
    """Insert a random half-universe indicator, then delete everything after
    a pivot, leaving exactly one surviving coordinate inside the planted
    half-length interval query.

    A consumer that cannot honor deletions (e.g. one that drops the sign)
    keeps the deleted suffix alive and overcounts that interval badly.
    """
    n = int(params.get("n", 1024))
    if n < 4 or n % 2:
        raise ValueError("n must be even and >= 4")
    density = _fraction(params, "density", 0.5)
    half = n // 2
    ones = np.nonzero(rng.random(half) < density)[0] + 1
    if ones.size < 4:
        ones = rng.choice(half, size=4, replace=False) + 1
        ones.sort()
    _check_length(2 * ones.size)
    pivot_rank = max(0, math.ceil(0.3 * ones.size) - 1)
    pivot = int(ones[pivot_rank])
    inserts = ones.copy()
    rng.shuffle(inserts)
    suffix = ones[ones > pivot]
    return Stream(
        "turnstile",
        n,
        np.concatenate([inserts, suffix[::-1]]),
        np.repeat([1.0, -1.0], [inserts.size, suffix.size]),
        {
            "kind": "adversarial-turnstile",
            "interval": (pivot, pivot + half - 1),
            "pivot": pivot,
            "survivors": int(pivot_rank + 1),
        },
    )


def _gen_adv_sliding(params: dict, rng) -> Stream:
    """Two phases over disjoint halves: stale coordinates first, fresh ones
    second.  Any window covering only the fresh phase must forget the stale
    half; the planted interval isolates exactly the stale block."""
    n = int(params.get("n", 1024))
    if n < 4 or n % 2:
        raise ValueError("n must be even and >= 4")
    half = n // 2
    _check_length(n)
    stale = rng.permutation(half) + 1
    fresh = rng.permutation(half) + half + 1
    return Stream(
        "insertion",
        n,
        np.concatenate([stale, fresh]),
        np.ones(n),
        {"kind": "adversarial-sliding", "interval": (1, half), "window": half},
    )


# the stream kinds of `gen_stream` (and `subsetsketch gen --kind`)
GENERATORS = {
    "uniform": _gen_uniform,
    "zipf": _gen_zipf,
    "planted-subset": _gen_planted,
    "adversarial-turnstile": _gen_adv_turnstile,
    "adversarial-sliding": _gen_adv_sliding,
}
