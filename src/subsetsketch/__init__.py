"""Streaming sketches answering lp-norm queries on the subsets of a declared
set system, sized by the family's permutation-submatrix dimension rather than
by the universe.

Quick tour:

    SetSystem / IntervalSystem   declare which subsets may be queried
    hh_dim_exact                 the dimension that prices the family
    L0UniversalSketch            support size per member set (insertions)
    L1UniversalSketch            summed value per member set (insertions)
    PrioritySketch               lp norms, entrywise streams
    LpSetSketch                  additive-error lp norms, turnstile streams
    MedianEnsemble               median of replicas: every member set at once
    save_sketch / load_sketch    bit-exact state files
    gen_stream / replay          reproducible instances and exact replay
"""

from .bounded_sampler import BoundedSampler
from .count_sketch import CountSketch, sketch_dimensions
from .ensemble import MedianEnsemble
from .errors import (
    DuplicateEntry,
    ModelMismatch,
    QueryNotInSystem,
    StreamFormatError,
    StreamLengthExceeded,
    SubsetSketchError,
    UnknownKind,
    UniverseMismatch,
    UniverseTooLarge,
)
from .hashing import AlphaInverseSource, PairwiseHash
from .l1_adapter import L1UniversalSketch
from .lp_additive import LpSetSketch, sample_rows
from .priority_sampling import PrioritySketch, sample_budget
from .serialize import load_sketch, save_sketch, sketch_from_state, sketch_state
from .setsystem import (
    IntervalSystem,
    SetSystem,
    family_half_intervals,
    family_intervals,
    family_missing_few,
    family_random,
    family_singletons,
    hh_dim_exact,
    hh_dim_greedy_lower,
    read_sets_file,
    union_product,
    union_systems,
    vc_dim_exact,
    write_sets_file,
)
from .streams import (
    ExactVector,
    Stream,
    exact_subset_norm,
    gen_stream,
    read_stream_file,
    replay,
)
from .subset_l0 import CoarseL0Estimator, L0UniversalSketch

__version__ = "0.1.0"

__all__ = [
    "AlphaInverseSource",
    "BoundedSampler",
    "CoarseL0Estimator",
    "CountSketch",
    "DuplicateEntry",
    "ExactVector",
    "IntervalSystem",
    "L0UniversalSketch",
    "L1UniversalSketch",
    "LpSetSketch",
    "MedianEnsemble",
    "ModelMismatch",
    "PairwiseHash",
    "PrioritySketch",
    "QueryNotInSystem",
    "SetSystem",
    "Stream",
    "StreamFormatError",
    "StreamLengthExceeded",
    "SubsetSketchError",
    "UniverseMismatch",
    "UniverseTooLarge",
    "UnknownKind",
    "exact_subset_norm",
    "family_half_intervals",
    "family_intervals",
    "family_missing_few",
    "family_random",
    "family_singletons",
    "gen_stream",
    "hh_dim_exact",
    "hh_dim_greedy_lower",
    "load_sketch",
    "read_sets_file",
    "read_stream_file",
    "replay",
    "sample_budget",
    "sample_rows",
    "save_sketch",
    "sketch_dimensions",
    "sketch_from_state",
    "sketch_state",
    "union_product",
    "union_systems",
    "vc_dim_exact",
    "write_sets_file",
    "__version__",
]
