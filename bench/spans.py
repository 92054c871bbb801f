"""Spans and counters around the program's layers, recorded from outside.

The program's files stay unchanged: `Tracer.install` replaces the listed
functions and methods with timing wrappers (in every `subsetsketch` module
that holds a reference to them) and `uninstall` puts the originals back.

A span has a name, a start, an end and a parent span.  Every span adds its
duration to its parent's child time, so a layer's self time is its spans'
durations minus the time their child spans cover.  Totals, self times and
counters accumulate per round; the spans themselves are kept in memory only
for the first traced round (up to `SPAN_CAP`) and written out at the end.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from subsetsketch import (
    bounded_sampler,
    cli,
    count_sketch,
    hashing,
    l1_adapter,
    lp_additive,
    priority_sampling,
    serialize,
    setsystem,
    streams,
    subset_l0,
)

SPAN_CAP = 200_000


def _insert_before(args, kwargs):
    samp, coord = args[0], args[1]
    return samp.size, coord in samp


def _insert_after(tracer, args, kwargs, result, token):
    samp, coord = args[0], args[1]
    size_before, held_before = token
    kept = not held_before and coord in samp
    tracer.counts["bounded_sampler.insert_kept"] += kept
    # stored coordinates that this insertion displaced
    tracer.counts["bounded_sampler.evictions"] += size_before + kept - samp.size


def _count(key, size_of):
    def after(tracer, args, kwargs, result, token):
        tracer.counts[key] += size_of(args, kwargs)
    return after


def _keys(args, kwargs):
    return int(np.size(args[1]))


def _broadcast_keys(args, kwargs):
    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _units(args, kwargs):
    return int(args[2] if len(args) > 2 else kwargs.get("value", 1))


# (owner, attribute, span name, before hook, after hook); the span name's
# first part is the layer the time is booked to.
TARGETS = [
    (cli, "cmd_build", "cli.build", None, None),
    (cli, "cmd_query", "cli.query", None, None),
    (streams, "read_stream_file", "streams.parse", None, None),
    (setsystem, "read_sets_file", "setsystem.read_sets", None, None),
    (setsystem.SetSystem, "member_id", "setsystem.member_id", None, None),
    (hashing, "coeff_mod_values", "hashing.coeff_mod_values", None, None),
    (hashing.PairwiseHash, "values", "hashing.pairwise_values", None,
     _count("hashing.pairwise_values_keys", _keys)),
    (hashing.AlphaInverseSource, "values", "hashing.alpha_inverse", None,
     _count("hashing.alpha_inverse_keys", _broadcast_keys)),
    (bounded_sampler.BoundedSampler, "update", "bounded_sampler.update", None, None),
    (bounded_sampler.BoundedSampler, "update_many", "bounded_sampler.update", None, None),
    (bounded_sampler.BoundedSampler, "insert_presampled", "bounded_sampler.insert",
     _insert_before, _insert_after),
    (bounded_sampler.BoundedSampler, "restore_support", "bounded_sampler.restore", None, None),
    (bounded_sampler.BoundedSampler, "intersection_count",
     "bounded_sampler.intersection_count", None, None),
    (subset_l0, "resolve_member", "subset_l0.query", None, None),
    (subset_l0.ThresholdDetector, "query_resolved", "subset_l0.query", None, None),
    (subset_l0.CoarseL0Estimator, "update", "subset_l0.update", None, None),
    (subset_l0.CoarseL0Estimator, "update_many", "subset_l0.update", None, None),
    (subset_l0.CoarseL0Estimator, "query_resolved", "subset_l0.query", None, None),
    (subset_l0.L0UniversalSketch, "update", "subset_l0.update", None, None),
    (subset_l0.L0UniversalSketch, "update_many", "subset_l0.update", None, None),
    (subset_l0.L0UniversalSketch, "query", "subset_l0.query", None, None),
    (subset_l0.L0UniversalSketch, "coarse_query", "subset_l0.query", None, None),
    (l1_adapter.L1UniversalSketch, "update", "l1_adapter.update", None,
     _count("l1_adapter.virtual_units", _units)),
    (l1_adapter.L1UniversalSketch, "query", "l1_adapter.query", None, None),
    (priority_sampling.PrioritySketch, "update", "priority_sampling.update", None, None),
    (priority_sampling.PrioritySketch, "query", "priority_sampling.query", None, None),
    (count_sketch.CountSketch, "update_many", "count_sketch.update_many", None,
     _count("count_sketch.update_keys", _keys)),
    (count_sketch.CountSketch, "estimate_many", "count_sketch.estimate_many", None,
     _count("count_sketch.estimate_keys", _keys)),
    (lp_additive.LpSetSketch, "update", "lp_additive.update", None, None),
    (lp_additive.LpSetSketch, "update_many", "lp_additive.update", None, None),
    (lp_additive.LpSetSketch, "query", "lp_additive.query", None, None),
    (lp_additive, "selection_statistic", "lp_additive.selection", None, None),
    (serialize, "save_sketch", "serialize.save", None, None),
    (serialize, "sketch_state", "serialize.sketch_state", None, None),
    (serialize, "load_sketch", "serialize.load", None, None),
    (serialize, "sketch_from_state", "serialize.from_state", None, None),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._stack: list[list] = []  # [child seconds, span index]
        self._patches: list[tuple[object, str, object]] = []
        self.recording = False
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.new_round()

    def new_round(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, before, after):
        tracer = self
        stack = self._stack
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_id[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            index = -1
            if tracer.recording:
                if len(tracer.span_start) < SPAN_CAP:
                    index = len(tracer.span_start)
                    tracer.span_name.append(name_id)
                    tracer.span_parent.append(stack[-1][1] if stack else -1)
                    tracer.span_start.append(0.0)
                    tracer.span_end.append(0.0)
                else:
                    tracer.dropped += 1
            frame = [0.0, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[0]
                tracer.calls[name] += 1
                if index >= 0:
                    tracer.span_start[index] = t0
                    tracer.span_end[index] = t1
            if after is not None:
                after(tracer, args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if k == "subsetsketch" or k.startswith("subsetsketch.")]
        for owner, attr, name, before, after in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, before, after)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # a module function: rebind every module-level reference to it
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """This round's per-layer numbers, keyed by benchmark metric name."""
        t, s, n, c = self.total, self.self_time, self.calls, self.counts
        inserts = n["bounded_sampler.insert"]
        return {
            "streams.parse_s": t["streams.parse"],
            "setsystem.read_sets_s": t["setsystem.read_sets"],
            "setsystem.member_id_s": t["setsystem.member_id"],
            "setsystem.member_id_calls": n["setsystem.member_id"],
            "hashing.coeff_mod_values_s": t["hashing.coeff_mod_values"],
            "hashing.coeff_mod_values_calls": n["hashing.coeff_mod_values"],
            "hashing.pairwise_values_s": t["hashing.pairwise_values"],
            "hashing.pairwise_values_keys": c["hashing.pairwise_values_keys"],
            "hashing.alpha_inverse_s": t["hashing.alpha_inverse"],
            "hashing.alpha_inverse_keys": c["hashing.alpha_inverse_keys"],
            "bounded_sampler.insert_s": t["bounded_sampler.insert"],
            "bounded_sampler.insert_calls": inserts,
            "bounded_sampler.insert_kept_ratio":
                c["bounded_sampler.insert_kept"] / inserts if inserts else 0.0,
            "bounded_sampler.evictions": c["bounded_sampler.evictions"],
            "bounded_sampler.restore_s": t["bounded_sampler.restore"],
            "bounded_sampler.intersection_count_s": t["bounded_sampler.intersection_count"],
            "bounded_sampler.intersection_count_calls":
                n["bounded_sampler.intersection_count"],
            "subset_l0.update_s": s["subset_l0.update"],
            "subset_l0.query_s": s["subset_l0.query"],
            "l1_adapter.update_s": s["l1_adapter.update"],
            "l1_adapter.virtual_units": c["l1_adapter.virtual_units"],
            "priority_sampling.update_s": t["priority_sampling.update"],
            "priority_sampling.query_s": t["priority_sampling.query"],
            "count_sketch.update_many_s": t["count_sketch.update_many"],
            "count_sketch.update_keys": c["count_sketch.update_keys"],
            "count_sketch.estimate_many_s": t["count_sketch.estimate_many"],
            "count_sketch.estimate_keys": c["count_sketch.estimate_keys"],
            "lp_additive.update_s": s["lp_additive.update"],
            "lp_additive.query_s": s["lp_additive.query"],
            "lp_additive.selection_s": t["lp_additive.selection"],
            "serialize.save_s": t["serialize.save"],
            "serialize.sketch_state_s": t["serialize.sketch_state"],
            "serialize.load_s": t["serialize.load"],
            "serialize.from_state_s": t["serialize.from_state"],
            "cli.build_self_s": s["cli.build"],
            "cli.query_self_s": s["cli.query"],
        }

    def dump(self, path: str) -> None:
        """Write the recorded spans (times in seconds from the first start)."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        origin = float(start.min()) if start.size else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=start - origin,
            end=np.frombuffer(self.span_end, dtype=np.float64) - origin,
            dropped=np.array(self.dropped),
        )
