"""Deterministic seed derivation.

Every randomized component draws its coefficients from a single master seed
through `derive_seed`, so one integer reproduces an entire sketch.  The mixer
is splitmix64: cheap, bijective per step, and identical on every platform
because it only uses 64-bit integer arithmetic.
"""

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """Finalizer of splitmix64; a full-avalanche 64-bit mixer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _tag_value(tag) -> int:
    if isinstance(tag, int):
        return tag & MASK64
    v = 0
    for byte in str(tag).encode("utf-8"):
        v = mix64(v ^ byte)
    return v


def derive_seed(master: int, *tags) -> int:
    """Derive a child seed from `master`, domain-separated by tags.

    Tags are integers or short strings naming the component.  Distinct tag
    tuples give independent-looking child seeds; the same tuple always
    gives the same child.
    """
    s = mix64((master & MASK64) ^ 0x9E3779B97F4A7C15)
    for t in tags:
        s = mix64((s + _GAMMA) & MASK64)
        s = mix64(s ^ _tag_value(t) ^ 0xD1B54A32D192ED03)
    return s


def stream64(seed: int, count: int) -> list[int]:
    """First `count` outputs of the splitmix64 sequence started at `seed`."""
    out = []
    s = seed & MASK64
    for _ in range(count):
        s = (s + _GAMMA) & MASK64
        out.append(mix64(s))
    return out


def counter_hash(seed: int, index: int) -> int:
    """The index-th (1-based) output of stream64(seed, ...) in O(1)."""
    return mix64((seed + index * _GAMMA) & MASK64)

