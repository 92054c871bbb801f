"""Support-size sketches that answer every member set of a declared system.

Composition, bottom up:

* `ThresholdDetector` votes whether a set's support count reaches a
  threshold r, using the median over a small odd number of budget-bounded
  samplers run at rate min(1, 100/r).  At rate 1 the vote is exact and
  deterministic.
* `CoarseL0Estimator` stacks detectors at geometrically growing
  thresholds; the first dissenting bank brackets the support count within
  a constant factor.
* `L0UniversalSketch` turns the coarse bracket into a sampling level whose
  surviving intersection count, rescaled, is the final estimate.
* `ensemble.MedianEnsemble` medians independent sketches so that all
  member sets succeed simultaneously rather than one at a time.

Detectors whose rate is 1 all alias one shared exact sampler.  Sub-unit
rates are pooled: a stream item costs one vectorized hash batch per
component instead of a Python loop over instances.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .bounded_sampler import BoundedSampler
from .errors import QueryNotInSystem
from .hashing import coeff_mod_values
from .rng import derive_seed
from .setsystem import IntervalSystem

log = logging.getLogger(__name__)

DETECTOR_BUDGET = 100


def detector_repetitions(universe: int) -> int:
    """Median votes concentrate with O(log log universe) copies; forced odd."""
    t = max(3, math.ceil(2 * math.log2(math.log2(max(universe, 16)))))
    return t + 1 if t % 2 == 0 else t


def coarse_thresholds(universe: int) -> list[int]:
    """Vote threshold of each coarse bank: max(1, 2^(j-2)) for bank j, up to
    j = ceil(log2 universe) + 2.  Banks above DETECTOR_BUDGET are sampled."""
    levels = math.ceil(math.log2(max(universe, 2))) + 2
    return [max(1, 2 ** (j - 2)) for j in range(levels + 1)]


def resolve_member(system, q):
    """Map q onto the sampler-side query for a member set, or raise.

    Interval systems take a range or a contiguous coordinate collection
    whose length the family declares; explicit systems take a coordinate
    collection equal to a member set, and answer with its coordinates
    tagged with the set id (`SetSystem.member`), which the samplers read
    instead of looking the set up again.
    """
    if isinstance(system, IntervalSystem):
        iv = system.member_interval(q)
        if iv is None:
            raise QueryNotInSystem(f"not a member interval: {q!r}")
        return range(iv[0], iv[1] + 1)
    sid = system.member_id(q)
    if sid is None:
        raise QueryNotInSystem(f"not a member set: {q!r}")
    return system.member(sid)


class _SamplerPool:
    """Columnar xi decisions across many sub-unit-rate samplers.

    Packs each instance's hash coefficients and acceptance threshold so
    one stream item costs a single vectorized evaluation; hits fall
    through to the owning sampler's presampled insert.
    """

    def __init__(self) -> None:
        self.samplers: list[BoundedSampler] = []
        self._packed = None

    def add(self, sampler: BoundedSampler) -> None:
        if sampler.rate >= 1.0:
            raise ValueError("pool holds only sub-unit sampling rates")
        self.samplers.append(sampler)
        self._packed = None

    def _pack(self):
        coeffs = [s.sampling_coefficients for s in self.samplers]
        a = np.array([c[0] for c in coeffs], dtype=np.uint64)
        b = np.array([c[1] for c in coeffs], dtype=np.uint64)
        thr = np.array([c[2] for c in coeffs], dtype=np.uint64)
        self._packed = (a, b, thr)
        return self._packed

    def update(self, coord: int) -> None:
        if not self.samplers:
            return
        packed = self._packed if self._packed is not None else self._pack()
        a, b, thr = packed
        hits = np.nonzero(coeff_mod_values(a, b, coord) < thr)[0]
        for i in hits:
            self.samplers[int(i)].insert_presampled(coord)

    def update_many(self, coords) -> None:
        # small batches: one columnar decision per item beats touching every
        # sampler; large batches: per-sampler vectorized masks win.  Both
        # orders preserve each instance's view of the stream.
        if not self.samplers:
            return
        arr = np.asarray(coords)
        if arr.size <= 64:
            for c in arr:
                self.update(int(c))
            return
        for s in self.samplers:
            s.update_many(arr)


class ThresholdDetector:
    """Votes [support count within a member set >= threshold].

    The natural vote (median rescaled count >= threshold) reduces to an
    integer comparison: with rate exactly min(1, U/r) the median count is
    compared against min(r, U), i.e. a sampled instance votes yes exactly
    when it saturated its budget.

    Callers managing several rate-1 detectors can pass one `shared_exact`
    sampler for all of them to alias; the caller feeds it, and `update`
    here skips it.
    """

    def __init__(
        self,
        system,
        threshold: int,
        seed: int,
        *,
        universe: int | None = None,
        project=None,
        shared_exact: BoundedSampler | None = None,
        reps: int | None = None,
    ) -> None:
        threshold = int(threshold)
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.system = system
        self.threshold = threshold
        self.rate = min(1.0, DETECTOR_BUDGET / threshold)
        self.universe = universe if universe is not None else system.n
        self.reps = detector_repetitions(self.universe) if reps is None else int(reps)
        if self.reps < 1 or self.reps % 2 == 0:
            raise ValueError("reps must be odd and positive")
        self._shared = shared_exact is not None and self.rate >= 1.0
        if self.rate >= 1.0:
            base = shared_exact if self._shared else BoundedSampler(
                system,
                DETECTOR_BUDGET,
                1.0,
                derive_seed(seed, "exact"),
                universe=universe,
                project=project,
                vote_only=True,
            )
            # every copy would be this one exact sampler: one stands for all
            self.instances = [base]
            self.sampled_instances: list[BoundedSampler] = []
        else:
            self.instances = [
                BoundedSampler(
                    system,
                    DETECTOR_BUDGET,
                    self.rate,
                    derive_seed(seed, "copy", i),
                    universe=universe,
                    project=project,
                    vote_only=True,
                )
                for i in range(self.reps)
            ]
            self.sampled_instances = list(self.instances)

    def update(self, coord: int) -> None:
        if self._shared:
            return
        if self.rate >= 1.0:
            self.instances[0].update(coord)
            return
        for s in self.instances:
            s.update(coord)

    def update_many(self, coords) -> None:
        if self._shared:
            return
        if self.rate >= 1.0:
            self.instances[0].update_many(coords)
            return
        for s in self.instances:
            s.update_many(coords)

    def query(self, q) -> bool:
        return self.query_resolved(resolve_member(self.system, q))

    def query_resolved(self, qq) -> bool:
        if self.rate >= 1.0:
            med = self.instances[0].intersection_count(qq)
        else:
            counts = sorted(s.intersection_count(qq) for s in self.instances)
            med = counts[self.reps // 2]
        return med >= min(self.threshold, DETECTOR_BUDGET)


class CoarseL0Estimator:
    """Power-of-two bracket on a member set's support count.

    Bank j holds a detector at threshold max(1, 2^(j-2)).  The estimate is
    0 when bank 0 votes no, else 2^j for the first bank from 1 upward
    voting no.  A unanimous ladder means the count ran past the sized-for
    universe; that is logged and the top fallback returned.

    The bracket delivered: banks at thresholds up to DETECTOR_BUDGET vote
    exactly, so for the counts they decide (below 64) truth < z <= 8 *
    truth, with z = 8 * truth exactly at a power of two.  Sampled banks vote
    with noise; there z has been seen up to about 8.3 * truth, just below a
    power of two.
    """

    def __init__(
        self,
        system,
        seed: int,
        *,
        universe: int | None = None,
        project=None,
        reps: int | None = None,
    ) -> None:
        self.system = system
        self.universe = universe if universe is not None else system.n
        thresholds = coarse_thresholds(self.universe)
        self.levels = len(thresholds) - 1
        self.exact = BoundedSampler(
            system,
            DETECTOR_BUDGET,
            1.0,
            derive_seed(seed, "shared-exact"),
            universe=universe,
            project=project,
            vote_only=True,
        )
        self.pool = _SamplerPool()
        self.banks: list[ThresholdDetector] = []
        for j, threshold in enumerate(thresholds):
            det = ThresholdDetector(
                system,
                threshold,
                derive_seed(seed, "bank", j),
                universe=universe,
                project=project,
                shared_exact=self.exact,
                reps=reps,
            )
            for s in det.sampled_instances:
                self.pool.add(s)
            self.banks.append(det)

    def update(self, coord: int) -> None:
        coord = int(coord)
        if not 1 <= coord <= self.universe:
            raise ValueError(
                f"coordinate {coord} outside universe [1, {self.universe}]"
            )
        self.exact.update(coord)
        self.pool.update(coord)

    def update_many(self, coords) -> None:
        self.exact.update_many(coords)
        self.pool.update_many(coords)

    def query(self, q) -> int:
        return self.query_resolved(resolve_member(self.system, q))

    def query_resolved(self, qq) -> int:
        if not self.banks[0].query_resolved(qq):
            return 0
        for j in range(1, self.levels + 1):
            if not self.banks[j].query_resolved(qq):
                return 2 ** j
        fallback = 2 ** (self.levels + 1)
        log.warning(
            "all %d coarse banks voted yes; returning fallback %d",
            self.levels + 1,
            fallback,
        )
        return fallback


class L0UniversalSketch:
    """(1 +- eps) support-size estimates for every member set of a system.

    The coarse bracket picks the sampling level whose expected surviving
    count sits near 100/eps^2; that level's intersection count, divided by
    its rate, is the estimate.  Per-level budget is ceil(400/eps^2), so
    space scales with the system's heavy-hitter dimension rather than the
    universe.
    """

    def __init__(
        self,
        system,
        epsilon: float,
        seed: int,
        *,
        universe: int | None = None,
        project=None,
        detector_reps: int | None = None,
    ) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        self.system = system
        self.epsilon = float(epsilon)
        self.seed = seed
        self.universe = universe if universe is not None else system.n
        self.budget = math.ceil(400 / self.epsilon**2)
        self.levels = math.ceil(math.log2(max(self.universe, 2))) + 1
        self.coarse = CoarseL0Estimator(
            system,
            derive_seed(seed, "coarse"),
            universe=universe,
            project=project,
            reps=detector_reps,
        )
        self.pool = _SamplerPool()
        self.ladder: list[BoundedSampler] = []
        for i in range(1, self.levels + 1):
            s = BoundedSampler(
                system,
                self.budget,
                2.0 ** (1 - i),
                derive_seed(seed, "ladder", i),
                universe=universe,
                project=project,
            )
            if s.rate < 1.0:
                self.pool.add(s)
            self.ladder.append(s)

    def update(self, coord: int) -> None:
        coord = int(coord)
        if not 1 <= coord <= self.universe:
            raise ValueError(
                f"coordinate {coord} outside universe [1, {self.universe}]"
            )
        self.coarse.update(coord)
        self.ladder[0].update(coord)
        self.pool.update(coord)

    def update_many(self, coords) -> None:
        self.coarse.update_many(coords)
        self.ladder[0].update_many(coords)
        self.pool.update_many(coords)

    def level_for(self, bracket: int) -> int:
        """Sampling level leaving about 100/eps^2 expected survivors."""
        if bracket <= 0:
            return 1
        lvl = math.ceil(math.log2(bracket * self.epsilon**2 / 100))
        return min(max(lvl, 1), self.levels)

    def query(self, q) -> float:
        qq = resolve_member(self.system, q)
        z = self.coarse.query_resolved(qq)
        if z == 0:
            return 0.0
        samp = self.ladder[self.level_for(z) - 1]
        return samp.intersection_count(qq) / samp.rate

    def coarse_query(self, q) -> int:
        return self.coarse.query_resolved(resolve_member(self.system, q))

    def ladder_stored(self) -> int:
        """Coordinates held across ladder levels (detector space separate)."""
        return sum(s.size for s in self.ladder)
