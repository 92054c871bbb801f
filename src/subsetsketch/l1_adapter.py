"""Summed-value estimation over member sets, by expansion to support counting.

An insertion-only value stream reduces to a support-size problem: the t-th
unit of value overall, landing on coordinate i, occupies the fresh virtual
coordinate (i - 1) * capacity + t inside coordinate i's private block of the
expanded universe.  Virtual coordinates are never reused, so the expanded
support inside a member set's blocks equals the total value the set has
received, and one support sketch with `block` = capacity answers every
sum query.  Expansion cannot create new heavy-hitter structure: coordinates
of one block belong to exactly the same expanded sets, so any permutation
submatrix over virtual coordinates projects to one over the originals.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelMismatch, StreamLengthExceeded, UniverseTooLarge
from .hashing import MERSENNE61
from .rng import derive_seed
from .subset_l0 import L0UniversalSketch

_CHUNK_UNITS = 1 << 16  # virtual coordinates encoded per support-sketch batch


def encode_arrival(coord: int, tick: int, capacity: int) -> int:
    """Virtual coordinate for stream unit `tick` (1-based) landing on `coord`."""
    return (coord - 1) * capacity + tick


class L1UniversalSketch:
    """(1 +- epsilon) estimates of summed value per member set, insertion only.

    `stream_capacity` bounds the total value the whole stream may carry and
    fixes the block size of the expansion; the default n**3 covers streams
    polynomial in the universe size.  Negative values are rejected rather
    than mis-counted: a deletion would have to locate and retract virtual
    coordinates that the reduction never revisits.
    """

    def __init__(self, system, epsilon: float, seed: int, *,
                 stream_capacity: int | None = None):
        n = system.n
        capacity = int(stream_capacity) if stream_capacity is not None else n ** 3
        if capacity < 1:
            raise ValueError("stream capacity must be at least 1")
        universe = n * capacity
        if 2 * universe >= MERSENNE61:
            raise UniverseTooLarge(
                f"expanded universe {universe} exceeds the hash field; "
                "lower stream_capacity"
            )
        self.system = system
        self.epsilon = float(epsilon)
        self.seed = seed
        self.capacity = capacity
        self.universe = universe
        self.clock = 0  # total value consumed so far
        self.inner = L0UniversalSketch(system, epsilon, derive_seed(seed, "expanded"),
                                       block=capacity)

    def update(self, coord: int, value: int = 1) -> None:
        """Add `value` units to `coord`.  Zero is a no-op; negatives refuse."""
        self.update_many((coord,), (value,))

    def update_many(self, coords, values) -> None:
        """Add values[k] units to coords[k] for every k, in order; the same
        state as one `update` per pair.

        Every pair, and the stream capacity over the whole batch, is checked
        before anything is ingested.  The virtual coordinates reach the
        support sketch in chunks of at most `_CHUNK_UNITS`, so memory does
        not grow with the values.
        """
        n, clock = self.system.n, self.clock
        kept: list[tuple[int, int]] = []
        for coord, value in zip(coords, values, strict=True):
            coord = int(coord)
            if not 1 <= coord <= n:
                raise ValueError(f"coordinate {coord} outside universe [1, {n}]")
            if int(value) != value:
                raise ValueError(f"values must be integers, got {value!r}")
            value = int(value)
            if value < 0:
                raise ModelMismatch(
                    "insertion-only reduction cannot apply a negative update")
            if value == 0:
                continue
            if clock + value > self.capacity:
                raise StreamLengthExceeded(
                    f"stream capacity {self.capacity} exhausted "
                    f"(clock {clock}, update {value})"
                )
            kept.append((coord, value))
            clock += value
        tick, self.clock = self.clock, clock
        chunk: list[np.ndarray] = []
        room = _CHUNK_UNITS
        for coord, value in kept:
            while value:
                take = min(value, room)
                ticks = np.arange(tick + 1, tick + take + 1, dtype=np.int64)
                chunk.append(encode_arrival(coord, ticks, self.capacity))
                tick, value, room = tick + take, value - take, room - take
                if not room:
                    self.inner.update_many(np.concatenate(chunk))
                    chunk, room = [], _CHUNK_UNITS
        if chunk:
            self.inner.update_many(chunk[0] if len(chunk) == 1 else np.concatenate(chunk))

    def query(self, q) -> float:
        """Estimate the summed value over member set `q`."""
        return self.inner.query(q)

    def coarse_query(self, q) -> int:
        """Power-of-two bracket of the summed value over member set `q`."""
        return self.inner.coarse_query(q)
