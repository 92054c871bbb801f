"""Median over independent sketch replicas.

One sketch answers each query within its error bound with constant
probability.  The median of O(log |S|) independent replicas fails with
probability polynomially small in the family size |S|, so a union bound
makes every member set succeed at once rather than one at a time.
"""

from __future__ import annotations

import math

from .rng import derive_seed


class MedianEnsemble:
    """Replica i is `make(derive_seed(seed, "replica", i))`; a query answers
    the median of the replicas' answers.

    The default count is ceil(3 * log2(num_sets)).  Any count is forced odd,
    so the median is always an answer some replica gave.
    """

    def __init__(self, make, seed: int, *, num_sets: int = 2,
                 replicas: int | None = None) -> None:
        if replicas is None:
            replicas = math.ceil(3 * math.log2(max(num_sets, 2)))
        replicas = int(replicas)
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas | 1
        self.sketches = [make(derive_seed(seed, "replica", i))
                         for i in range(self.replicas)]

    def update(self, *args) -> None:
        for sk in self.sketches:
            sk.update(*args)

    def update_many(self, *args) -> None:
        for sk in self.sketches:
            sk.update_many(*args)

    def query(self, q):
        return sorted(sk.query(q) for sk in self.sketches)[self.replicas // 2]
