#!/usr/bin/env python3
"""Benchmark of the subsetsketch command line: build a sketch, then query it.

    python3 bench/run.py --workload l0-intervals --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the program is imported from its
`src` directory.  The run generates the workload's inputs from `--seed`,
then repeats whole rounds for `--seconds` (it starts no round that would
end later than that, and runs at least two).  One round:

1. set up the empty sketch through the public constructors (`setup_s`,
   three times per round),
2. `subsetsketch build` on the stream (`build_s`),
3. `subsetsketch query STATE tok...` with every query token (`query_s`),
4. three passes that time `sketch.query` once per query on a sketch loaded
   from a state file (`query_p50_ms`, `query_p90_ms`), one after each of the
   steps above.

Before the rounds, one build runs in a child process for its peak resident
memory (`peak_rss_mb`); its state file is the one loaded for step 4 and for
the checks of the method's guarantees against exact answers (see
workloads.py).  One sketch is also built in memory through the library,
saved, and queried through the CLI, to check that printed answers equal
those of the sketch before it was saved.  Every round checks the CLI answers
against the loaded sketch, and the first round checks that the in-process
build wrote the same state file as the child process.

With `--trace 1` rounds alternate between untraced and traced; the traced
rounds give the per-layer numbers (medians over rounds) and the two kinds
together give the tracing overhead.  The spans of the first traced round
are written to bench/out/.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import os

# one thread for numpy's pools; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUPS_PER_ROUND = 3
MIN_ROUNDS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "query_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "state_bytes": "bytes",
    "state_entries": "count",
}

_CHILD_BUILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from subsetsketch.cli import main; sys.exit(main(sys.argv[2:]))")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in this process; (exit code, captured standard output)."""
    from subsetsketch.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects its arguments this way
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


def _timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _child_build(argv: list[str]) -> tuple[int, float, str]:
    """Build in a child process: (exit code, its peak RSS in MB, stderr)."""
    proc = subprocess.run([sys.executable, "-c", _CHILD_BUILD, SRC, *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=170, check=False)
    # the child is the only process this run waits for, so the children's
    # high-water mark is its own (ru_maxrss is in KiB on Linux)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return proc.returncode, peak, proc.stderr.strip()


def _compare_printed(tokens, printed: str, answers, what: str) -> list[str]:
    lines = printed.strip().split("\n")
    if len(lines) != len(tokens):
        return [f"{what}: {len(lines)} answer lines for {len(tokens)} queries"]
    for tok, line, ans in zip(tokens, lines, answers):
        want = f"{tok}\t{ans:.6g}"
        if line != want:
            return [f"{what}: printed {line!r}, expected {want!r}"]
    return []


def measure(workload_cls, seed: int, seconds: float, trace: bool, scale: str,
            workdir: str) -> dict:
    from subsetsketch import PrioritySketch, load_sketch, save_sketch

    wl = workload_cls(seed, workdir, scale)
    tokens = wl.query_tokens
    state = os.path.join(workdir, "state.json")
    fails: list[str] = []  # correctness checks that did not hold
    attempted = failed = 0

    def op(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            print(f"operation failed: {what}", file=sys.stderr)

    # peak memory of a build process; its state file is loaded for the
    # latency samples and checks
    child_state = os.path.join(workdir, "state-child.json")
    code, peak_rss_mb, err = _child_build(wl.build_args(child_state))
    op(code == 0, f"child build exited {code}: {err[-300:]}")

    # printed answers equal those of the sketch before it was saved
    memory_state = os.path.join(workdir, "state-memory.json")
    sk = wl.build_in_memory()
    save_sketch(sk, memory_state)
    code, printed = _cli(["query", memory_state, *tokens])
    op(code == 0, f"query of the saved in-memory sketch exited {code}")
    if code == 0:
        answers = [sk.query(t) for t in wl.query_targets(sk)]
        fails += _compare_printed(tokens, printed, answers, "saved in-memory sketch")
    del sk

    loaded = load_sketch(child_state)
    targets = wl.query_targets(loaded)
    answers = [loaded.query(t) for t in targets]
    fails += wl.check(loaded, answers)
    state_bytes = os.path.getsize(child_state)
    state_entries = wl.state_entries(loaded)
    stored = {
        "bounded_sampler.stored_coords": wl.bounded_stored(loaded),
        "priority_sampling.stored_coords":
            loaded.size if isinstance(loaded, PrioritySketch) else 0,
    }

    samples: list[float] = []

    def latency_pass() -> None:
        gc.collect()
        for target in targets:
            t0 = time.perf_counter()
            try:
                loaded.query(target)
            except Exception as e:  # a failed query is counted, the run goes on
                op(False, f"query raised {e!r}")
                continue
            samples.append(time.perf_counter() - t0)
            op(True, "query")

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    # the benchmark's own long-lived objects (inputs, the loaded sketch) must
    # not add to the cycle collector's work inside the timed program calls
    gc.collect()
    gc.freeze()
    setups, builds, queries = [], [], []
    traced_builds, traced_queries, layers = [], [], []
    start = time.perf_counter()
    rounds = 0
    # stop before a round that would end after `seconds` (by the longest
    # round so far), so that a run lasts at most about `seconds`
    longest = 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() - start + longest <= seconds:
        round_start = time.perf_counter()
        # latency passes sit between the other steps so that the samples
        # spread over the whole run
        traced = tracer is not None and rounds % 2 == 1
        for _ in range(SETUPS_PER_ROUND):
            setups.append(_timed(wl.setup)[0])
        latency_pass()
        if traced:
            tracer.new_round()
            tracer.recording = not layers
            tracer.install()
        try:
            t_build, (build_code, _) = _timed(lambda: _cli(wl.build_args(state)))
            op(build_code == 0, f"build exited {build_code}")
            if not traced:
                latency_pass()
            t_query, (code, printed) = _timed(lambda: _cli(["query", state, *tokens]))
            op(code == 0, f"query exited {code}")
        finally:
            if traced:
                tracer.uninstall()
                tracer.recording = False
        if traced:
            traced_builds.append(t_build)
            traced_queries.append(t_query)
            layers.append(tracer.layer_metrics())
            latency_pass()
        else:
            builds.append(t_build)
            queries.append(t_query)
        latency_pass()

        if code == 0:
            fails += _compare_printed(tokens, printed, answers, f"round {rounds}")
        if rounds == 0 and build_code == 0:
            with open(child_state, "rb") as a, open(state, "rb") as b:
                if a.read() != b.read():
                    fails.append("same seed and inputs gave two different state files")
        rounds += 1
        longest = max(longest, time.perf_counter() - round_start)

    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "build_s": statistics.median(builds),
            "query_s": statistics.median(queries),
            "query_p50_ms": 1e3 * statistics.median(samples),
            "query_p90_ms": 1e3 * statistics.quantiles(samples, n=10)[-1],
            "peak_rss_mb": peak_rss_mb,
            "state_bytes": state_bytes,
            "state_entries": state_entries,
        }
        units = END_TO_END_UNITS
    else:
        values = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
        values.update(stored)
        values["trace.build_overhead_pct"] = 100.0 * (
            statistics.median(traced_builds) / statistics.median(builds) - 1.0)
        values["trace.query_overhead_pct"] = 100.0 * (
            statistics.median(traced_queries) / statistics.median(queries) - 1.0)
        units = {k: per_layer_unit(k) for k in values}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.npz"))

    for msg in fails:
        print(msg, file=sys.stderr)
    print(f"{wl.name} seed {seed}: {rounds} rounds, {len(samples)} query samples; "
          f"build_s {[round(t, 3) for t in builds]}, query_s {[round(t, 3) for t in queries]}",
          file=sys.stderr)
    return {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="input sizes; smoke is a tiny size for the benchmark's own test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "subsetsketch", "__init__.py")):
        print(f"error: no subsetsketch sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import subsetsketch

    if not os.path.abspath(subsetsketch.__file__).startswith(SRC + os.sep):
        print(f"error: imported subsetsketch from {subsetsketch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), args.scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
