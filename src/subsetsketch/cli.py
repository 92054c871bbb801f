"""Command-line front end: build sketches from streams, query state files.

Commands:
    build      one pass over a stream file, writes a sketch state file
    query      load a state file, answer set queries as TSV
    hhdim      permutation-submatrix dimension of a set family
    gen        emit a reproducible stream instance
    selfcheck  reduced-scale invariant suite

Exit codes: 0 ok, 2 parse error, 3 model mismatch, 4 query rejected.
All randomness derives from the single --seed, so runs are reproducible.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DuplicateEntry,
    ModelMismatch,
    QueryNotInSystem,
    StreamFormatError,
    StreamLengthExceeded,
    SubsetSketchError,
    UnknownKind,
    UniverseTooLarge,
)
from .l1_adapter import L1UniversalSketch
from .lp_additive import LpSetSketch
from .priority_sampling import PrioritySketch, sample_budget
from .rng import derive_seed
from .serialize import load_sketch, save_sketch
from .setsystem import (
    EXACT_SEARCH_MAX_N,
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
)
from .streams import MODELS, gen_stream, parse_stream_lines, read_stream_file
from .subset_l0 import L0UniversalSketch

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MODEL = 3
EXIT_QUERY = 4

_INSERTION_ONLY_WHY = (
    "the support and summed-value sketches are insertion-only: each unit of "
    "value claims a fresh virtual coordinate that a later deletion cannot "
    "locate, and replaying deletions with their signs dropped overcounts"
)
_ENTRYWISE_WHY = "the entrywise sketch stores each coordinate once and cannot accumulate"


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# build


def _read_stream(path: str):
    try:
        if path == "-":
            return parse_stream_lines(sys.stdin)
        return read_stream_file(path)
    except (StreamFormatError, OSError) as e:
        raise CliError(EXIT_PARSE, f"stream: {e}")


def _load_system(args):
    if getattr(args, "sets", None):
        try:
            return read_sets_file(args.sets)
        except (StreamFormatError, ValueError, OSError) as e:
            raise CliError(EXIT_PARSE, f"sets file: {e}")
    if getattr(args, "intervals", None):
        if args.n is None:
            raise CliError(EXIT_PARSE, "--intervals requires --n")
        spec = args.intervals.split(":")
        try:
            min_len = int(spec[0])
            max_len = int(spec[1]) if len(spec) > 1 else None
            return IntervalSystem(args.n, min_len, max_len)
        except (ValueError, IndexError) as e:
            raise CliError(EXIT_PARSE, f"--intervals: {e}")
    return None


def _resolve_model(args, stream) -> str:
    """`--model`, else the header's model, else the model the parser
    inferred if the kind consumes it, else the kind's default."""
    kind = KINDS[args.sketch]
    declared = stream.meta.get("header_model")
    if declared and args.model and declared != args.model:
        raise CliError(
            EXIT_MODEL,
            f"stream declares model={declared} but --model {args.model} was given",
        )
    model = args.model or declared
    if model is None:
        model = stream.model if stream.model in kind.models else kind.models[0]
    if model not in kind.models:
        raise CliError(
            EXIT_MODEL,
            f"sketch {args.sketch} cannot consume a {model} stream; {kind.why}",
        )
    return model


def _fed(sk, *columns):
    sk.update_many(*columns)  # one batch: every sampler still sees the stream in order
    return sk


def _fed_per_line(stream, sk):
    # One update per line, on purpose.  The priority sketch has no batch
    # update.  An lp batch sums each counter's keys offset-major through
    # bincount, which is what makes selfcheck's additive-cancellation exact,
    # but that sum differs bitwise from adding line by line, so a batched
    # build would change the state files.
    for c, v in zip(stream.coords.tolist(), stream.values.tolist()):
        sk.update(c, v)
    return sk


class Kind(NamedTuple):
    models: tuple[str, ...]  # the stream models it consumes soundly, default first
    why: str  # why it refuses the others
    needs_system: bool  # built over --sets or --intervals, not over --n alone
    build: Callable  # (args, stream, system, universe, seed) -> the fed sketch


KINDS = {
    "l0": Kind(("insertion",), _INSERTION_ONLY_WHY, True, lambda a, s, system, n, seed:
               _fed(L0UniversalSketch(system, a.eps, seed), s.coords)),
    "l1": Kind(("insertion",), _INSERTION_ONLY_WHY, True, lambda a, s, system, n, seed:
               _fed(L1UniversalSketch(system, a.eps, seed, stream_capacity=a.capacity),
                    s.coords, s.values)),
    "priority": Kind(("entrywise",), _ENTRYWISE_WHY, True, lambda a, s, system, n, seed:
                     _fed_per_line(s, PrioritySketch(system, a.p, a.k or sample_budget(a.eps),
                                                     seed))),
    "lp-additive": Kind(MODELS, "", False, lambda a, s, system, n, seed:
                        _fed_per_line(s, LpSetSketch(n, a.p, a.eps, seed, k=a.k))),
}


def cmd_build(args) -> int:
    kind = KINDS[args.sketch]
    stream = _read_stream(args.stream)
    model = _resolve_model(args, stream)
    system = _load_system(args)
    if kind.needs_system and system is None:
        raise CliError(EXIT_PARSE, f"--sets (or --intervals) is required for {args.sketch}")
    universe = system.n if system is not None else stream.n
    if not kind.needs_system and args.n:
        universe = args.n
    if stream.n > universe:
        raise CliError(EXIT_PARSE, f"stream n = {stream.n} exceeds the universe "
                                   f"[1, {universe}] of the sketch")

    seed = derive_seed(args.seed, "build", args.sketch)
    try:
        stream.check(model)
        sk = kind.build(args, stream, system, universe, seed)
    except (ModelMismatch, DuplicateEntry, StreamLengthExceeded) as e:
        raise CliError(EXIT_MODEL, str(e))
    except (ValueError, UniverseTooLarge) as e:
        raise CliError(EXIT_PARSE, str(e))

    try:
        save_sketch(sk, args.out)
    except OSError as e:
        raise CliError(EXIT_PARSE, f"out: {e}")
    print(f"wrote {args.out} ({args.sketch}, {len(stream)} updates)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# query


def _query_target(sk, token: str):
    """Translate a query token into whatever the sketch's query() accepts.
    Every coordinate is checked against the sketch's universe before a range
    or list is built from it."""
    tok = token.strip()
    system = getattr(sk, "system", None)
    n = sk.n if system is None else system.n

    def in_universe(coords):
        for c in coords:
            if not 1 <= c <= n:
                raise CliError(EXIT_QUERY, f"coordinate {c} outside universe [1, {n}]")
        return coords

    if ".." in tok:
        lo_s, _, hi_s = tok.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise CliError(EXIT_PARSE, f"bad interval {token!r}")
        if lo < 1 or hi < lo:
            raise CliError(EXIT_PARSE, f"bad interval {token!r}")
        in_universe((hi,))
        return range(lo, hi + 1)
    if "," in tok or " " in tok:
        try:
            return in_universe([int(t) for t in tok.replace(",", " ").split()])
        except ValueError:
            raise CliError(EXIT_PARSE, f"bad coordinate list {token!r}")
    if tok.isdigit():
        if system is None or not isinstance(system, SetSystem):
            raise CliError(
                EXIT_QUERY,
                f"set id {tok} needs an explicit sets file behind the sketch",
            )
        j = int(tok)
        if not 1 <= j <= system.num_sets:
            raise CliError(EXIT_QUERY, f"unknown set id {j} (1..{system.num_sets})")
        return system.coords_of(j - 1)
    raise CliError(EXIT_PARSE, f"unrecognized query {token!r}")


def cmd_query(args) -> int:
    try:
        sk = load_sketch(args.state)
    except (OSError, ValueError, KeyError, UnknownKind, UniverseTooLarge) as e:
        raise CliError(EXIT_PARSE, f"state file: {e}")
    out = []
    for token in args.queries:
        target = _query_target(sk, token)
        try:
            est = sk.query(target)
        except (QueryNotInSystem, ValueError) as e:
            raise CliError(EXIT_QUERY, str(e))
        out.append(f"{token}\t{est:.6g}")
    print("\n".join(out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# hhdim


def _family_from_args(args):
    if args.sets:
        return _load_system(args)
    fams = {
        "singletons": lambda: family_singletons(args.n),
        "intervals": lambda: family_intervals(args.n, args.k),
        "half-intervals": lambda: family_half_intervals(args.n),
        "missing-few": lambda: family_missing_few(args.n, args.k),
        "random": lambda: family_random(args.n, args.k, args.q, args.seed),
    }
    if args.family not in fams:
        raise CliError(EXIT_PARSE, f"unknown family {args.family!r}; known: {sorted(fams)}")
    if args.n is None:
        raise CliError(EXIT_PARSE, "--family requires --n")
    try:
        return fams[args.family]()
    except (TypeError, ValueError) as e:
        raise CliError(EXIT_PARSE, f"family parameters: {e}")


def cmd_hhdim(args) -> int:
    if not args.sets and not args.family:
        raise CliError(EXIT_PARSE, "need --sets FILE or --family NAME")
    system = _family_from_args(args)
    if system.n <= EXACT_SEARCH_MAX_N:
        dim, mode = hh_dim_exact(system), "exact"
    else:
        dim, mode = hh_dim_greedy_lower(system, seed=args.seed), "greedy-lower-bound"
    print(f"{dim}\t{mode}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    params = {"n": args.n}
    for name in ("length", "theta", "lo", "hi", "inside", "density"):
        v = getattr(args, name, None)
        if v is not None:
            params[name] = v
    try:
        stream = gen_stream(args.kind, params, args.seed)
    except (UnknownKind, ValueError) as e:
        raise CliError(EXIT_PARSE, str(e))
    text = "\n".join(stream.lines()) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise CliError(EXIT_PARSE, f"out: {e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selfcheck


def _check(name: str, fn) -> bool:
    try:
        fn()
    except Exception as e:  # report, keep going
        print(f"FAIL {name}: {e}")
        return False
    print(f"PASS {name}")
    return True


def cmd_selfcheck(args) -> int:
    from .bounded_sampler import BoundedSampler
    from .serialize import sketch_from_state, sketch_state
    from .streams import Stream, exact_subset_norm, replay

    rng = np.random.default_rng(7)

    def sampler_guarantee():
        system = family_random(48, 12, 0.3, seed=1)
        samp = BoundedSampler(system, 5, 0.5, seed=9)
        stream = rng.integers(1, 49, size=600)
        samp.update_many(stream)
        present = set(int(c) for c in stream if samp.sampled(int(c)))
        h = set(samp.support())
        for j in range(system.num_sets):
            s = set(system.coords_of(j))
            inside = h & s
            want = present & s
            assert inside == want or len(inside) >= 5, f"set {j} under budget yet pruned"

    def support_counts():
        system = family_intervals(64, 8)
        sk = L0UniversalSketch(system, 0.5, seed=3)
        coords = rng.permutation(64)[:40] + 1
        sk.update_many(coords)
        exact = replay(Stream("insertion", 64, coords, np.ones(coords.size)))
        good = 0
        probes = [(lo, lo + 7) for lo in range(1, 58, 7)]
        for lo, hi in probes:
            truth = exact_subset_norm(exact, range(lo, hi + 1), 0.0)
            est = sk.query(range(lo, hi + 1))
            good += abs(est - truth) <= max(1.0, 0.5 * truth) * 1.5
        assert good >= int(0.7 * len(probes)), f"{good}/{len(probes)} interval probes"

    def summed_value_exact_when_small():
        system = family_random(32, 6, 0.3, seed=2)
        sk = L1UniversalSketch(system, 0.5, seed=4, stream_capacity=4096)
        vals = {}
        for c in rng.integers(1, 33, size=30):
            sk.update(int(c), 2)
            vals[int(c)] = vals.get(int(c), 0) + 2
        for j in range(system.num_sets):
            s = system.coords_of(j)
            truth = sum(vals.get(c, 0) for c in s)
            if truth <= 50:
                assert sk.query(s) == truth, f"set {j}: {sk.query(s)} != {truth}"

    def entrywise_norm():
        system = family_random(40, 8, 0.3, seed=5)
        sk = PrioritySketch(system, 2.0, 12, seed=6)
        v = {}
        for c in rng.permutation(40)[:25] + 1:
            x = float(rng.standard_normal())
            sk.update(int(c), x)
            v[int(c)] = x
        for j in range(system.num_sets):
            s = system.coords_of(j)
            truth = exact_subset_norm(v, s, 2.0)
            est = sk.query(s)
            assert abs(est - truth) <= 0.8 * truth + 0.5, f"set {j}"

    def additive_cancellation():
        sk = LpSetSketch(24, 1.0, 0.5, seed=8, k=32)
        cs = rng.integers(1, 25, size=20)
        ds = rng.standard_normal(20)
        sk.update_many(cs, ds)
        sk.update_many(cs, -ds)
        assert sk.query(range(1, 25)) == 0.0

    def round_trips():
        system = family_random(24, 6, 0.3, seed=7)
        sketches = [
            L0UniversalSketch(system, 0.5, seed=11),
            L1UniversalSketch(system, 0.5, seed=12, stream_capacity=1000),
            PrioritySketch(system, 1.0, 5, seed=13),
            LpSetSketch(24, 1.0, 0.5, seed=14, k=16),
        ]
        sketches[0].update_many(rng.integers(1, 25, size=60))
        sketches[1].update_many(rng.integers(1, 25, size=40), np.ones(40))
        for c in rng.permutation(24)[:15] + 1:
            sketches[2].update(int(c), float(rng.standard_normal()))
        sketches[3].update_many(rng.integers(1, 25, size=30),
                                rng.standard_normal(30))
        s = system.coords_of(0)
        for sk in sketches:
            lk = sketch_from_state(sketch_state(sk))
            assert lk.query(s) == sk.query(s), type(sk).__name__

    def permutation_dimension():
        assert hh_dim_exact(family_singletons(8)) == 8
        assert hh_dim_exact(family_half_intervals(12)) <= 3
        sys_iv = family_intervals(16, 4)
        assert hh_dim_exact(sys_iv) >= 4

    def adversarial_boundary():
        stream = gen_stream("adversarial-turnstile", {"n": 64}, seed=3)
        v = replay(stream)
        lo, hi = stream.meta["interval"]
        assert sum(1 for c in v.support() if lo <= c <= hi) == 1

    checks = [
        ("sampler-guarantee", sampler_guarantee),
        ("support-counts", support_counts),
        ("summed-value-exact-when-small", summed_value_exact_when_small),
        ("entrywise-norm", entrywise_norm),
        ("additive-cancellation", additive_cancellation),
        ("round-trips", round_trips),
        ("permutation-dimension", permutation_dimension),
        ("adversarial-boundary", adversarial_boundary),
    ]
    ok = all([_check(name, fn) for name, fn in checks])
    print("selfcheck:", "all passed" if ok else "FAILURES above")
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# argument wiring


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="subsetsketch",
        description="Streaming sketches answering lp-norm queries over a declared set system.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="consume a stream, write a sketch state file")
    b.add_argument("--sketch", required=True,
                   choices=list(KINDS))
    b.add_argument("--model", choices=["insertion", "turnstile", "entrywise"],
                   help="stream model; defaults to the header or the sketch's native model")
    b.add_argument("--stream", required=True, help="stream file, or - for stdin")
    b.add_argument("--out", required=True, help="state file to write")
    b.add_argument("--sets", help="explicit sets file (l0/l1/priority)")
    b.add_argument("--intervals", metavar="MIN[:MAX]",
                   help="interval family by length range instead of --sets")
    b.add_argument("--n", type=int, help="universe size (lp-additive, --intervals)")
    b.add_argument("--eps", type=float, default=0.5, help="accuracy parameter")
    b.add_argument("--p", type=float, default=1.0, help="norm exponent (priority, lp-additive)")
    b.add_argument("--k", type=int, help="override the per-set sample or row budget")
    b.add_argument("--capacity", type=int, help="stream value capacity (l1)")
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="answer queries from a state file as TSV")
    q.add_argument("state", help="state file written by build")
    q.add_argument("queries", nargs="+",
                   help="set id, interval a..b, or coordinate list i,j,k")
    q.set_defaults(fn=cmd_query)

    h = sub.add_parser("hhdim", help="permutation-submatrix dimension of a family")
    h.add_argument("--sets", help="explicit sets file")
    h.add_argument("--family",
                   choices=["singletons", "intervals", "half-intervals",
                            "missing-few", "random"])
    h.add_argument("--n", type=int)
    h.add_argument("--k", type=int, default=2)
    h.add_argument("--q", type=float, default=0.3, help="density for --family random")
    h.add_argument("--seed", type=int, default=0)
    h.set_defaults(fn=cmd_hhdim)

    g = sub.add_parser("gen", help="emit a reproducible stream instance")
    g.add_argument("--kind", required=True,
                   choices=["uniform", "zipf", "planted-subset",
                            "adversarial-turnstile", "adversarial-sliding"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--length", type=int)
    g.add_argument("--theta", type=float)
    g.add_argument("--lo", type=int)
    g.add_argument("--hi", type=int)
    g.add_argument("--inside", type=float)
    g.add_argument("--density", type=float)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="-", help="output file, or - for stdout")
    g.set_defaults(fn=cmd_gen)

    s = sub.add_parser("selfcheck", help="run the invariant suite at reduced scale")
    s.set_defaults(fn=cmd_selfcheck)

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except SubsetSketchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
