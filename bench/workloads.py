"""The four benchmark workloads: seeded inputs, exact truths, property checks.

Every input is generated here from the benchmark seed with numpy, never with
`subsetsketch gen`, so a change to the program's generators cannot change a
workload.  Exact answers are computed from the same arrays with numpy, never
with the program's `ExactVector` or `exact_subset_norm`.

Each workload writes its stream (and sets file) once, and then knows how to

* build through the CLI (`build_args`) and query through the CLI
  (`query_tokens`),
* set up an empty sketch through the public constructors (`setup`),
* build the same kind of sketch in memory through the library (`build_in_memory`),
* turn the CLI query tokens into the arguments `sketch.query` takes,
* check an answered sketch against the truths (`check`).
"""

from __future__ import annotations

import math
import os
import zlib

import numpy as np

from subsetsketch import (
    IntervalSystem,
    L0UniversalSketch,
    L1UniversalSketch,
    LpSetSketch,
    PrioritySketch,
    read_sets_file,
    sample_budget,
)
from subsetsketch.bounded_sampler import BoundedSampler

# Per-query success probabilities the methods state, from the acceptance
# thresholds of the test suite: a support or summed-value estimate is within
# eps * truth with probability at least 3/4, an additive lp estimate is
# within eps * ||v||_p with probability at least 0.85.
SUPPORT_SUCCESS = 0.75
ADDITIVE_SUCCESS = 0.85

# The summed-value sketch answers exactly only from its unsampled ladder
# level, which it picks while the coarse bracket z has z * eps^2 / 100 <= 2.
# The bracket can reach 8 * truth, so that holds for every sum up to
# 25/eps^2, not for every sum up to the documented 100/eps^2 (see CHANGES.md).
L1_EXACT_UP_TO = 25

# The coarse bracket is a power of two above the count, within a constant
# factor of it.  The planned bound, z < 8 * truth, fails on some queries of
# most seeds: z is exactly 8 * truth at power-of-two counts and up to about
# 8.3 * truth just below them (see CHANGES.md).  One more power of two
# holds on every query.
BRACKET_FACTOR = 16

# Floating sums of the same terms in another order differ in the last bits;
# "exact" answers must agree to this relative tolerance.
EXACT_RTOL = 1e-9

# Input sizes per scale.  "full" is the benchmark; "smoke" is a tiny size
# that runs every code path in seconds (used by the benchmark's own test).
SIZES = {
    "l0-intervals": {
        "full": {"n": 5000, "arrivals": 10000, "queries": 120},
        "smoke": {"n": 400, "arrivals": 1500, "queries": 100},
    },
    "l1-weighted-sets": {
        "full": {"n": 400, "sets": 100, "lines": 150},
        "smoke": {"n": 120, "sets": 100, "lines": 150},
    },
    "lp-turnstile": {
        "full": {"n": 2000, "updates": 1000, "queries": 100, "qsize": 10},
        "smoke": {"n": 200, "updates": 600, "queries": 100, "qsize": 10},
    },
    "priority-entrywise": {
        "full": {"n": 2000, "sets": 100},
        "smoke": {"n": 300, "sets": 100},
    },
}


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _write_lines(path: str, header: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        f.write("\n".join(lines))
        f.write("\n")


def _write_sets(path: str, n: int, sets: list[np.ndarray]) -> None:
    _write_lines(path, f"n={n}", (" ".join(map(str, s)) for s in sets))


def _random_sets(rng, n: int, count: int, lo: float, hi: float) -> list[np.ndarray]:
    """`count` distinct sorted random subsets of [1..n], their densities spread
    evenly over [lo, hi] so that every seed gives the same mix of set sizes."""
    sets, seen = [], set()
    for density in rng.permutation(np.linspace(lo, hi, count)):
        while True:
            s = np.nonzero(rng.random(n) < density)[0] + 1
            if s.size and s.tobytes() not in seen:
                break
        seen.add(s.tobytes())
        sets.append(s)
    return sets


def bounded_samplers(obj) -> list[BoundedSampler]:
    """Every distinct `BoundedSampler` reachable from a sketch object."""
    found: dict[int, BoundedSampler] = {}
    seen: set[int] = set()
    todo = [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, BoundedSampler):
            found[id(o)] = o
        elif isinstance(o, (list, tuple)):
            todo.extend(x for x in o if not isinstance(x, (int, float)))
        elif type(o).__module__.startswith("subsetsketch") and hasattr(o, "__dict__"):
            todo.extend(vars(o).values())
    return list(found.values())


def _share_failed(hits: int, total: int, need: float, what: str) -> list[str]:
    if hits < need * total:
        return [f"{what}: {hits}/{total} within bound, need share {need}"]
    return []


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, scale: str = "full") -> None:
        self.seed = seed
        self.size = SIZES[self.name][scale]
        self.rng = _rng(seed, self.name)
        self.stream_path = os.path.join(workdir, "stream.txt")
        self.sets_path = os.path.join(workdir, "sets.txt")
        self.generate()

    def generate(self) -> None:
        raise NotImplementedError

    def build_args(self, state_path: str) -> list[str]:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def build_in_memory(self):
        raise NotImplementedError

    def query_targets(self, sketch) -> list:
        raise NotImplementedError

    def bounded_stored(self, sketch) -> int:
        return sum(s.size for s in bounded_samplers(sketch))

    def state_entries(self, sketch) -> int:
        return self.bounded_stored(sketch)

    def check(self, sketch, answers: list[float]) -> list[str]:
        raise NotImplementedError


class L0Intervals(Workload):
    """Zipf insertion stream; every interval of length >= n/4 is a member."""

    name = "l0-intervals"
    eps = 0.1
    theta = 1.1

    def generate(self) -> None:
        n, m = self.size["n"], self.size["arrivals"]
        rng = self.rng
        self.n, self.min_len = n, n // 4
        weights = np.arange(1, n + 1, dtype=np.float64) ** -self.theta
        ranks = rng.choice(n, size=m, p=weights / weights.sum())
        self.stream = (rng.permutation(n) + 1)[ranks]
        _write_lines(self.stream_path, f"# model=insertion n={n}", map(str, self.stream))
        lengths = rng.integers(self.min_len, n + 1, size=self.size["queries"])
        los = rng.integers(1, n - lengths + 2)
        self.intervals = [(int(lo), int(lo + ln - 1)) for lo, ln in zip(los, lengths)]
        self.query_tokens = [f"{lo}..{hi}" for lo, hi in self.intervals]
        present = np.zeros(n + 1, dtype=bool)
        present[self.stream] = True
        self.present = present
        cs = np.cumsum(present)
        self.truths = [int(cs[hi] - cs[lo - 1]) for lo, hi in self.intervals]

    def build_args(self, state_path):
        return ["build", "--sketch", "l0", "--stream", self.stream_path,
                "--intervals", str(self.min_len), "--n", str(self.n),
                "--eps", str(self.eps), "--seed", str(self.seed), "--out", state_path]

    def setup(self):
        return L0UniversalSketch(IntervalSystem(self.n, self.min_len), self.eps, self.seed)

    def build_in_memory(self):
        sk = self.setup()
        sk.update_many(self.stream)
        return sk

    def query_targets(self, sketch):
        return [range(lo, hi + 1) for lo, hi in self.intervals]

    def check(self, sketch, answers):
        eps, truths = self.eps, self.truths
        fails = _share_failed(
            sum(abs(a - t) <= eps * t for a, t in zip(answers, truths)),
            len(truths), SUPPORT_SUCCESS, "l0 estimates within eps*truth")
        for (lo, hi), t in zip(self.intervals, truths):
            z = sketch.coarse_query(range(lo, hi + 1))
            if not t < z < BRACKET_FACTOR * t:
                fails.append(f"coarse bracket {z} for {lo}..{hi} misses "
                             f"({t}, {BRACKET_FACTOR * t})")
        arrived = np.nonzero(self.present)[0]
        for level, samp in enumerate(sketch.ladder, 1):
            sampled = np.zeros(self.n + 1, dtype=np.int64)
            sampled[[c for c in arrived if samp.sampled(int(c))]] = 1
            held = np.zeros(self.n + 1, dtype=np.int64)
            held[samp.support()] = 1
            if (held > sampled).any():
                fails.append(f"ladder level {level} holds a coordinate never sampled")
            cs_s, cs_h = np.cumsum(sampled), np.cumsum(held)
            for lo, hi in self.intervals:
                want, got = cs_s[hi] - cs_s[lo - 1], cs_h[hi] - cs_h[lo - 1]
                if got != want and got < samp.budget:
                    fails.append(f"ladder level {level} pruned {lo}..{hi} "
                                 f"below budget ({got} < {samp.budget})")
        return fails


class L1WeightedSets(Workload):
    """Integer-valued insertion stream over an explicit random family."""

    name = "l1-weighted-sets"
    eps = 0.2
    max_value = 20
    big_value = 100

    def generate(self) -> None:
        n, rng = self.size["n"], self.rng
        self.n = n
        self.sets = _random_sets(rng, n, self.size["sets"], 0.02, 0.9)
        _write_sets(self.sets_path, n, self.sets)
        m = self.size["lines"]
        self.coords = rng.integers(1, n + 1, size=m)
        # the same multiset of values on every seed, so the total value (which
        # build time follows) does not depend on the seed: 1..max_value, plus
        # one line in a hundred carrying more units than the sketch hashes one
        # by one, which takes the vectorized hashing path
        big = m // 100
        self.values = rng.permutation(np.concatenate([
            np.resize(np.arange(1, self.max_value + 1), m - big),
            np.full(big, self.big_value)]))
        _write_lines(self.stream_path, f"# model=insertion n={n}",
                     (f"{c} {v}" for c, v in zip(self.coords, self.values)))
        totals = np.bincount(self.coords, weights=self.values, minlength=n + 1)
        self.truths = [int(totals[s].sum()) for s in self.sets]
        self.query_tokens = [str(j) for j in range(1, len(self.sets) + 1)]

    def build_args(self, state_path):
        return ["build", "--sketch", "l1", "--stream", self.stream_path,
                "--sets", self.sets_path, "--eps", str(self.eps),
                "--seed", str(self.seed), "--out", state_path]

    def setup(self):
        return L1UniversalSketch(read_sets_file(self.sets_path), self.eps, self.seed)

    def build_in_memory(self):
        sk = self.setup()
        for c, v in zip(self.coords, self.values):
            sk.update(int(c), int(v))
        return sk

    def query_targets(self, sketch):
        return [sketch.system.coords_of(j) for j in range(sketch.system.num_sets)]

    def check(self, sketch, answers):
        eps, truths = self.eps, self.truths
        fails = _share_failed(
            sum(abs(a - t) <= eps * t for a, t in zip(answers, truths)),
            len(truths), SUPPORT_SUCCESS, "l1 estimates within eps*truth")
        for j, (a, t) in enumerate(zip(answers, truths), 1):
            if t <= L1_EXACT_UP_TO / eps**2 and a != t:
                fails.append(f"set {j}: sum {t} answered {a}, not exactly")
        return fails


class LpTurnstile(Workload):
    """Signed updates, a share of which cancel earlier ones; no set system."""

    name = "lp-turnstile"
    eps = 0.2
    p = 1.0
    cancel_share = 0.3

    def generate(self) -> None:
        n, m, rng = self.size["n"], self.size["updates"], self.rng
        self.n = n
        fresh = m - int(self.cancel_share * m)
        coords = rng.integers(1, n + 1, size=fresh)
        deltas = rng.choice([-1.0, 1.0], size=fresh) * rng.lognormal(0.0, 1.5, size=fresh)
        undo = rng.choice(fresh, size=m - fresh, replace=False)
        # a cancelling update repeats an earlier coordinate with the negated
        # delta, at a later position in the stream
        order = np.concatenate([np.arange(fresh), undo])
        sign = np.concatenate([np.ones(fresh), -np.ones(m - fresh)])
        pos = np.concatenate([np.arange(fresh, dtype=np.float64),
                              undo + rng.uniform(0.5, fresh - undo)])
        perm = np.argsort(pos, kind="stable")
        self.coords = coords[order][perm]
        self.deltas = (deltas[order] * sign)[perm]
        _write_lines(self.stream_path, f"# model=turnstile n={n}",
                     (f"{c} {d!r}" for c, d in zip(self.coords, self.deltas.tolist())))
        v = np.zeros(n + 1)
        np.add.at(v, self.coords, self.deltas)
        self.v = v
        self.norm = float(np.sum(np.abs(v) ** self.p) ** (1 / self.p))
        self.subsets = [np.sort(rng.choice(n, size=self.size["qsize"], replace=False) + 1)
                        for _ in range(self.size["queries"])]
        self.truths = [float(np.sum(np.abs(v[s]) ** self.p) ** (1 / self.p))
                       for s in self.subsets]
        self.query_tokens = [",".join(map(str, s)) for s in self.subsets]

    def build_args(self, state_path):
        return ["build", "--sketch", "lp-additive", "--stream", self.stream_path,
                "--n", str(self.n), "--p", str(self.p), "--eps", str(self.eps),
                "--seed", str(self.seed), "--out", state_path]

    def setup(self):
        return LpSetSketch(self.n, self.p, self.eps, self.seed)

    def build_in_memory(self):
        sk = self.setup()
        sk.update_many(self.coords, self.deltas)
        return sk

    def query_targets(self, sketch):
        return [s.tolist() for s in self.subsets]

    def state_entries(self, sketch):
        return sketch.cs.width * sketch.cs.depth

    def check(self, sketch, answers):
        bound = self.eps * self.norm
        return _share_failed(
            sum(abs(a - t) <= bound for a, t in zip(answers, self.truths)),
            len(self.truths), ADDITIVE_SUCCESS, "lp estimates within eps*||v||_p")


class PriorityEntrywise(Workload):
    """Each coordinate once, lognormal magnitudes with random signs."""

    name = "priority-entrywise"
    eps = 0.1
    p = 1.0

    def generate(self) -> None:
        n, rng = self.size["n"], self.rng
        self.n = n
        # densities straddle k/n: about two thirds of the sets are answered
        # exactly, the rest through the sampled threshold.  The second kind
        # of query is slower by a step, which lies away from the median and
        # the 90th percentile of the latencies.
        self.k = sample_budget(self.eps)
        mid = min(0.9, self.k / n)
        self.sets = _random_sets(rng, n, self.size["sets"], 0.2 * mid, min(1.0, 1.4 * mid))
        _write_sets(self.sets_path, n, self.sets)
        self.coords = rng.permutation(n) + 1
        self.values = rng.choice([-1.0, 1.0], size=n) * rng.lognormal(0.0, 1.0, size=n)
        _write_lines(self.stream_path, f"# model=entrywise n={n}",
                     (f"{c} {x!r}" for c, x in zip(self.coords, self.values.tolist())))
        v = np.zeros(n + 1)
        v[self.coords] = self.values
        self.truths = [float(np.sum(np.abs(v[s]) ** self.p) ** (1 / self.p))
                       for s in self.sets]
        self.nonzeros = [int(np.count_nonzero(v[s])) for s in self.sets]
        self.query_tokens = [str(j) for j in range(1, len(self.sets) + 1)]

    def build_args(self, state_path):
        return ["build", "--sketch", "priority", "--stream", self.stream_path,
                "--sets", self.sets_path, "--p", str(self.p), "--eps", str(self.eps),
                "--seed", str(self.seed), "--out", state_path]

    def setup(self):
        return PrioritySketch(read_sets_file(self.sets_path), self.p, self.k, self.seed)

    def build_in_memory(self):
        sk = self.setup()
        for c, x in zip(self.coords, self.values):
            sk.update(int(c), float(x))
        return sk

    def query_targets(self, sketch):
        return [sketch.system.coords_of(j) for j in range(sketch.system.num_sets)]

    def state_entries(self, sketch):
        return sketch.size

    def check(self, sketch, answers):
        fails = []
        for j, (a, t, nnz) in enumerate(zip(answers, self.truths, self.nonzeros), 1):
            if nnz <= self.k and not math.isclose(a, t, rel_tol=EXACT_RTOL):
                fails.append(f"set {j}: {nnz} <= k entries answered {a}, exact {t}")
        return fails


WORKLOADS = {w.name: w for w in (L0Intervals, L1WeightedSets, LpTurnstile, PriorityEntrywise)}
