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

Detectors whose rate is 1 all alias one shared exact sampler.  Each class
here is the sampler pool of all of its samplers, the rate-1 ones included
(`bounded_sampler._PoolFed`, packed on first update): a batch costs one
vectorized hash evaluation per block of samplers instead of a Python loop
over instances, and `update(c)` is `update_many((c,))`.  An
interval sketch refuses a universe whose samplers would hold more than
`MAX_INTERVAL_CELLS` window cells before it builds any.
"""

from __future__ import annotations

import logging
import math

from .bounded_sampler import BoundedSampler, _PoolFed
from .errors import QueryNotInSystem, UniverseTooLarge
from .rng import derive_seed
from .setsystem import IntervalSystem

log = logging.getLogger(__name__)

DETECTOR_BUDGET = 100
# window cells (samplers x (n + 1)) an interval support sketch may hold: each
# of its samplers keeps two int32 arrays of about n + 1 entries, so the cap
# is 256 MiB; a large n would otherwise size them without bound
MAX_INTERVAL_CELLS = 1 << 25


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


class ThresholdDetector(_PoolFed):
    """Votes [support count within a member set >= threshold].

    The natural vote (median rescaled count >= threshold) reduces to an
    integer comparison: with rate exactly min(1, U/r) the median count is
    compared against min(r, U), i.e. a sampled instance votes yes exactly
    when it saturated its budget.  At r <= U the rate is 1, every copy
    would be the same exact sampler, and one stands for all.

    Callers managing several rate-1 detectors can pass one `shared_exact`
    sampler for all of them to alias; the caller feeds it, and `update`
    here skips it.  `block` is the samplers' (`BoundedSampler`): the
    detector counts over the virtual universe of `system.n * block`
    coordinates.
    """

    def __init__(
        self,
        system,
        threshold: int,
        seed: int,
        *,
        block: int = 1,
        shared_exact: BoundedSampler | None = None,
    ) -> None:
        threshold = int(threshold)
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.system = system
        self.threshold = threshold
        self.rate = min(1.0, DETECTOR_BUDGET / threshold)
        self.universe = system.n * block
        self.reps = detector_repetitions(self.universe)
        if self.rate >= 1.0 and shared_exact is not None:
            self.instances = [shared_exact]
        else:
            self.instances = [
                BoundedSampler(system, DETECTOR_BUDGET, self.rate,
                               derive_seed(seed, "copy", i), block=block,
                               vote_only=True)
                for i in range(self.reps if self.rate < 1.0 else 1)
            ]
        # the samplers this detector feeds: not a caller's shared one
        self.samplers = [s for s in self.instances if s is not shared_exact]

    def query(self, q) -> bool:
        return self.query_resolved(resolve_member(self.system, q))

    def query_resolved(self, qq) -> bool:
        return self.vote([s.intersection_count(qq) for s in self.instances])

    def vote(self, counts: list[int]) -> bool:
        """The vote of copies whose intersection counts are `counts`."""
        counts = sorted(counts)
        return counts[len(counts) // 2] >= min(self.threshold, DETECTOR_BUDGET)


class CoarseL0Estimator(_PoolFed):
    """Power-of-two bracket on a member set's support count.

    Bank j holds a detector at threshold max(1, 2^(j-2)).  The estimate is
    0 when bank 0 votes no, else 2^j for the first bank from 1 upward
    voting no.  A unanimous ladder means the count ran past the sized-for
    universe; that is logged and the top fallback returned.

    The bracket delivered: banks at thresholds up to DETECTOR_BUDGET vote
    exactly, so for the counts they decide (below 64) truth < z <= 8 *
    truth, with z = 8 * truth exactly at a power of two.  Sampled banks vote
    with noise; there z has been seen up to about 8.3 * truth, just below a
    power of two.  With `block` > 1 the count is over the virtual universe
    of `system.n * block` coordinates (`BoundedSampler`).
    """

    def __init__(self, system, seed: int, *, block: int = 1) -> None:
        self.system = system
        self.universe = system.n * block
        thresholds = coarse_thresholds(self.universe)
        self.levels = len(thresholds) - 1
        self.exact = BoundedSampler(
            system,
            DETECTOR_BUDGET,
            1.0,
            derive_seed(seed, "shared-exact"),
            block=block,
            vote_only=True,
        )
        self.banks = [
            ThresholdDetector(
                system,
                threshold,
                derive_seed(seed, "bank", j),
                block=block,
                shared_exact=self.exact,
            )
            for j, threshold in enumerate(thresholds)
        ]
        self.samplers = [self.exact, *(s for det in self.banks for s in det.samplers)]

    def query(self, q) -> int:
        return self.query_resolved(resolve_member(self.system, q))

    def query_resolved(self, qq) -> int:
        # a rate-1 bank feeds no sampler: its one copy is `exact`, read once
        exact = [self.exact.intersection_count(qq)]
        for j, det in enumerate(self.banks):
            if not det.vote([s.intersection_count(qq) for s in det.samplers] or exact):
                return 2 ** j if j else 0
        fallback = 2 ** (self.levels + 1)
        log.warning(
            "all %d coarse banks voted yes; returning fallback %d",
            self.levels + 1,
            fallback,
        )
        return fallback


class L0UniversalSketch(_PoolFed):
    """(1 +- eps) support-size estimates for every member set of a system.

    The coarse bracket picks the sampling level whose expected surviving
    count sits near 100/eps^2; that level's intersection count, divided by
    its rate, is the estimate.  Per-level budget is ceil(400/eps^2), so
    space scales with the system's heavy-hitter dimension rather than the
    universe.  With `block` > 1 every sampler runs over the virtual universe
    of `system.n * block` coordinates, each system coordinate owning a block
    of them (`BoundedSampler`, `l1_adapter`).
    """

    def __init__(self, system, epsilon: float, seed: int, *, block: int = 1) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        self.system = system
        self.epsilon = float(epsilon)
        self.seed = seed
        self.block = block
        self.universe = system.n * block
        try:
            self.budget = math.ceil(400 / self.epsilon**2)
        except (ZeroDivisionError, OverflowError):  # eps^2 underflows
            raise ValueError(f"epsilon {epsilon} is too small to size a budget") from None
        self.levels = math.ceil(math.log2(max(self.universe, 2))) + 1
        if isinstance(system, IntervalSystem):
            # the shared exact sampler, each sampled bank's copies, the ladder
            sampled = sum(t > DETECTOR_BUDGET for t in coarse_thresholds(self.universe))
            samplers = 1 + sampled * detector_repetitions(self.universe) + self.levels
            if samplers * (system.n + 1) > MAX_INTERVAL_CELLS:
                raise UniverseTooLarge(
                    f"{samplers} interval samplers over n = {system.n} need "
                    f"{samplers * (system.n + 1)} window cells, above the cap "
                    f"of {MAX_INTERVAL_CELLS}")
        self.coarse = CoarseL0Estimator(system, derive_seed(seed, "coarse"), block=block)
        self.ladder = [
            BoundedSampler(system, self.budget, 2.0 ** (1 - i),
                           derive_seed(seed, "ladder", i), block=block)
            for i in range(1, self.levels + 1)
        ]
        self.samplers = [*self.coarse.samplers, *self.ladder]

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
