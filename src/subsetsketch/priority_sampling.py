"""Entry-wise universal sketch: shared-randomness priority sampling per set.

Every arriving entry (i, v_i) gets one uniform u_i derived from the seed, a
weight w_i = |v_i|**p, and the priority w_i / u_i.  Each member set keeps the
k+1 entries of highest priority it contains; the (k+1)-st acts as the
threshold tau_s and the other k estimate the set's weight mass as
sum(max(w_i, tau_s)).  Because all sets draw on the same u_i, a coordinate is
stored once no matter how many top lists reference it, and the total store
obeys the same neededness bound as the budget-bounded sampler with budget
k + 1.

Each coordinate may arrive at most once: repeated arrivals are a model
violation, not an accumulation.
"""

from __future__ import annotations

import heapq
import math

from .errors import DuplicateEntry, QueryNotInSystem
from .rng import counter_hash, derive_seed
from .setsystem import IntervalSystem

_U_SCALE = 2.0 ** -53


def sample_budget(epsilon: float) -> int:
    """Per-set budget k giving (1 +- epsilon) relative error with failure
    probability at most 1/((k-1) * epsilon**2) <= 0.1 by Chebyshev."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    try:
        return math.ceil(10.0 / (epsilon * epsilon)) + 1
    except (ZeroDivisionError, OverflowError):  # epsilon^2 underflows
        raise ValueError(f"epsilon {epsilon} is too small to size a budget") from None


class PrioritySketch:
    def __init__(self, system, p: float, k: int, seed: int) -> None:
        if isinstance(system, IntervalSystem):
            system = system.to_explicit()
        if k < 1:
            raise ValueError("sample budget k must be >= 1")
        if not 0 <= p < math.inf:  # refuses NaN too
            raise ValueError(f"norm exponent p must be finite and >= 0, got {p}")
        self.system = system
        self.p = float(p)
        self.k = int(k)
        self.seed = seed
        # the variance bound needs the u_i to behave independently; a pairwise
        # family measurably inflates Var(E), so use full 64-bit mixing
        self._ubase = derive_seed(seed, "uniform")
        # per set: min-heap of (priority, -coord, coord, weight); ties on
        # priority displace the larger coordinate first
        self._heaps: list[list[tuple[float, int, int, float]]] = [
            [] for _ in range(system.num_sets)
        ]
        self._seen: set[int] = set()

    def uniform_for(self, coord: int) -> float:
        """The shared uniform u_i in (0, 1), a pure function of (seed, i);
        53-bit precision, with 0 remapped to the smallest positive value."""
        u = (counter_hash(self._ubase, coord) >> 11) * _U_SCALE
        return u if u > 0.0 else _U_SCALE

    def update(self, coord: int, value: float) -> None:
        coord = int(coord)
        if not 1 <= coord <= self.system.n:
            raise ValueError(
                f"coordinate {coord} outside universe [1, {self.system.n}]")
        if coord in self._seen:
            raise DuplicateEntry(
                f"coordinate {coord} already delivered; entries arrive once")
        # a refused entry is not delivered: checked before it is marked seen
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"entry value must be finite, got {value!r}")
        try:
            w = 1.0 if self.p == 0.0 else abs(value) ** self.p
        except OverflowError:
            raise ValueError(f"weight |{value!r}|^{self.p} is beyond the float range") from None
        self._seen.add(coord)
        if value == 0.0:
            return
        ids = self.system.ids_containing(coord)
        if not ids:
            return
        q = w / self.uniform_for(coord)
        entry = (q, -coord, coord, w)
        for j in ids:
            heap = self._heaps[j]
            if len(heap) <= self.k:
                heapq.heappush(heap, entry)
            elif entry[:2] > heap[0][:2]:
                heapq.heapreplace(heap, entry)

    # -- queries ---------------------------------------------------------------

    def threshold(self, q) -> float:
        """tau_s: the (k+1)-st highest priority in s, or 0 below capacity."""
        heap = self._heaps[self._resolve(q)]
        return heap[0][0] if len(heap) > self.k else 0.0

    def query(self, q) -> float:
        """(1 +- eps) estimate of (sum_{i in s} |v_i|^p)^(1/p) (the sum
        itself for p = 0)."""
        heap = self._heaps[self._resolve(q)]
        if len(heap) > self.k:
            tau = heap[0][0]
            est = sum(max(e[3], tau) for e in heap[1:])
        else:
            est = sum(e[3] for e in heap)
        if self.p == 0.0 or est == 0.0:
            return float(est)
        return est ** (1.0 / self.p)

    def _resolve(self, q) -> int:
        sid = self.system.member_id(q)
        if sid is None:
            raise QueryNotInSystem(f"not a member set: {q!r}")
        return sid

    @property
    def size(self) -> int:
        return len(self.stored_coordinates())

    def stored_coordinates(self) -> list[int]:
        """The coordinates some heap holds; each is stored once."""
        return sorted({e[2] for heap in self._heaps for e in heap})
