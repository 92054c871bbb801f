"""The median ensemble: replica seeding, the replica count, and the median."""

import numpy as np
import pytest

from subsetsketch.ensemble import MedianEnsemble
from subsetsketch.l1_adapter import L1UniversalSketch
from subsetsketch.lp_additive import LpSetSketch
from subsetsketch.priority_sampling import PrioritySketch
from subsetsketch.rng import derive_seed
from subsetsketch.serialize import sketch_state
from subsetsketch.setsystem import family_random
from subsetsketch.subset_l0 import L0UniversalSketch

SYSTEM = family_random(120, 6, 0.3, seed=4)
QUERIES = [SYSTEM.coords_of(j) for j in range(SYSTEM.num_sets)]
_RNG = np.random.default_rng(12)
COORDS = _RNG.permutation(np.arange(1, 121))[:90]
VALUES = _RNG.integers(1, 4, size=COORDS.size)

# kind -> (factory, feed one sketch or ensemble with the same stream)
KINDS = {
    "l0": (lambda s: L0UniversalSketch(SYSTEM, 0.5, s),
           lambda sk: sk.update_many(COORDS)),
    "l1": (lambda s: L1UniversalSketch(SYSTEM, 0.5, s, stream_capacity=10**4),
           lambda sk: sk.update_many(COORDS, VALUES)),
    "priority": (lambda s: PrioritySketch(SYSTEM, 1.0, 12, s),
                 lambda sk: [sk.update(int(c), float(v)) for c, v in zip(COORDS, VALUES)]),
    "lp": (lambda s: LpSetSketch(120, 1.0, 0.5, s),
           lambda sk: sk.update_many(COORDS, VALUES - 2.0)),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_replica_i_is_the_sketch_seeded_replica_i(kind):
    make, feed = KINDS[kind]
    ens = MedianEnsemble(make, seed=9, replicas=3)
    feed(ens)
    answers = []
    for i, replica in enumerate(ens.sketches):
        alone = make(derive_seed(9, "replica", i))
        feed(alone)
        assert sketch_state(replica) == sketch_state(alone)
        got = [replica.query(q) for q in QUERIES]
        assert got == [alone.query(q) for q in QUERIES]
        answers.append(got)
    for j, q in enumerate(QUERIES):
        assert ens.query(q) == sorted(a[j] for a in answers)[1]


def test_replica_count_is_forced_odd():
    make = KINDS["lp"][0]
    assert len(MedianEnsemble(make, 1, replicas=4).sketches) == 5
    with pytest.raises(ValueError):
        MedianEnsemble(make, 1, replicas=0)
