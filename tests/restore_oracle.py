"""Per-coordinate references for the bulk sampler paths: the replay of a
support snapshot for `BoundedSampler.restore_support`, and the insert loop
for `BoundedSampler.update_many`."""

import numpy as np


def update_per_coordinate(sampler, coords) -> None:
    """`update_many` one `insert_presampled` per xi-sampled arrival."""
    arr = np.asarray(coords, dtype=np.int64)
    if arr.size == 0:
        return
    if arr.min() < 1 or arr.max() > sampler.universe:
        bad = arr[(arr < 1) | (arr > sampler.universe)][0]
        raise ValueError(f"coordinate {bad} outside universe [1, {sampler.universe}]")
    if sampler._frozen:
        return
    for c in arr.tolist():
        if sampler.sampled(c):
            sampler.insert_presampled(c)


def replay_restore(sampler, coords) -> None:
    """Insert a settled snapshot one coordinate at a time, ascending,
    bypassing sampling and saturation skips; reject it if anything would
    be evicted."""
    if sampler._h:
        raise ValueError("restore requires a fresh sampler")
    for coord in sorted(int(c) for c in coords):
        orig = coord if sampler.project is None else sampler.project(coord)
        if not sampler._impl.has_sets(orig):
            raise ValueError(f"snapshot coordinate {coord} touches no member set")
        sampler._h.add(coord)
        sampler._impl.insert(coord, orig)
    if sampler._impl.drain_evictions():
        raise ValueError("snapshot is not a settled support")
    if sampler.vote_only and sampler._impl.fully_saturated:
        sampler._frozen = True


_EXPLICIT = ("counts", "slack", "per_orig", "heaps", "_sat", "_evicted")
_INTERVAL = ("w", "per_orig", "heaps", "_sat_windows", "_evicted")


def bookkeeping(sampler) -> dict:
    """Everything a restore sets, as plain comparable values."""
    impl = sampler._impl
    names = _INTERVAL if hasattr(impl, "w") else _EXPLICIT
    out = {"_h": sampler._h, "_frozen": sampler._frozen}
    for name in names:
        v = getattr(impl, name)
        if name == "heaps" and v is not None:
            # a heap's list order follows push order; its contents do not
            v = {o: sorted(h) for o, h in v.items()}
        out[name] = v.tolist() if isinstance(v, np.ndarray) else v
    return out
