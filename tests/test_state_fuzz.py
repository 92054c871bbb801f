"""Field fuzz of state files: every single-field edit of a small state file
of each kind either loads and answers or exits with a documented code.

Run as a script, this file is the fuzz itself: it writes every edited file,
queries it through `cli.main` in process and prints a JSON summary.  The
test runs it once, in a child process whose address space it limits, so a
load that allocates by a number in the file fails there instead of
exhausting the machine.

    python tests/test_state_fuzz.py SRC_DIR WORK_DIR
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys

# exit codes of `subsetsketch query`: answered, malformed input, model
# violation, query outside the family
DOCUMENTED = {0, 2, 3, 4}

# values put in place of every field, whatever its type
REPLACEMENTS = [None, True, 0, 1, -1, 2**63, 10**30, 0.5, -0.0, 1e308, float("nan"),
                float("inf"), "", "0" * 16, [], [0], [None], [[1, 1.0]], {}]


def _sketches():
    import numpy as np

    from subsetsketch.l1_adapter import L1UniversalSketch
    from subsetsketch.lp_additive import LpSetSketch
    from subsetsketch.priority_sampling import PrioritySketch
    from subsetsketch.setsystem import IntervalSystem, family_random
    from subsetsketch.subset_l0 import L0UniversalSketch

    rng = np.random.default_rng(5)
    system = family_random(24, 5, 0.4, seed=3)
    l0 = L0UniversalSketch(system, 0.5, seed=4)
    l0.update_many(rng.integers(1, 25, size=60))
    l0iv = L0UniversalSketch(IntervalSystem(40, 10), 0.5, seed=4)
    l0iv.update_many(rng.integers(1, 41, size=60))
    l1 = L1UniversalSketch(system, 0.5, seed=4, stream_capacity=40, detector_reps=3)
    for c in rng.integers(1, 25, size=12):
        l1.update(int(c), 3)
    pri = PrioritySketch(system, 1.0, 3, seed=4)
    for c in rng.permutation(24)[:16] + 1:
        pri.update(int(c), float(rng.standard_normal()))
    lp = LpSetSketch(20, 1.0, 0.5, seed=4, k=4)
    lp.update_many(rng.integers(1, 21, size=20), rng.standard_normal(20))
    # (sketch, query token)
    return {"l0": (l0, "1"), "l0-intervals": (l0iv, "1..12"), "l1": (l1, "1"),
            "priority": (pri, "1"), "lp_additive": (lp, "1..8")}


def _paths(node, path=()):
    """Every field path of a JSON value: all object keys, and the first
    element and the last of every list."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i in sorted({0, len(node) - 1} if node else ()):
            yield from _paths(node[i], path + (i,))


def _edits(state):
    """(name, edited state) for every single-field edit of `state`."""
    text = json.dumps(state)
    for path in _paths(state):
        old = state
        for key in path:
            old = old[key]
        # ... and the field's own text, and numbers near its own
        values = REPLACEMENTS + [json.dumps(old)]
        if type(old) is int:
            values += [old - 1, old + 1, -old, old * 1000]
        elif type(old) is float:
            values += [-old, old * 2]
        for value in values:
            yield f"{path} = {value!r:.30}", _replaced(text, path, lambda _: value)
        if path:
            yield f"del {path}", _replaced(text, path, None)
        if isinstance(old, list) and old:
            yield f"{path} doubled", _replaced(text, path, lambda v: v + v)
            yield f"{path} reversed", _replaced(text, path, lambda v: v[::-1])


def _replaced(text, path, fn):
    state = json.loads(text)
    parent = state
    for key in path[:-1]:
        parent = parent[key]
    if not path:
        return fn(state)
    if fn is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = fn(parent[path[-1]])
    return state


def run_fuzz(work: str) -> dict:
    from subsetsketch.cli import main
    from subsetsketch.serialize import sketch_state

    codes, bad = {}, []
    path = os.path.join(work, "state.json")
    for kind, (sk, token) in _sketches().items():
        for name, state in _edits(sketch_state(sk)):
            with open(path, "w", encoding="utf-8") as f:
                json.dump(state, f)
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    rc = main(["query", path, token])
            except Exception as e:  # what would reach the user as a traceback
                rc = f"{type(e).__name__}: {e}"[:200]
            codes[str(rc)] = codes.get(str(rc), 0) + 1
            if rc not in DOCUMENTED or "Traceback" in err.getvalue():
                bad.append(f"{kind} {name}: {rc}")
    return {"cases": sum(codes.values()), "codes": codes, "bad": bad}


# the address space of the child process that runs the fuzz
_CHILD_AS_LIMIT = 3 << 30


def test_state_field_fuzz_exits_documented_codes(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_AS_LIMIT, _CHILD_AS_LIMIT))

    run = subprocess.run([sys.executable, os.path.abspath(__file__), src, str(tmp_path)],
                         capture_output=True, text=True, preexec_fn=limit_memory,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=900)
    assert run.returncode == 0, run.stderr[-2000:]
    summary = json.loads(run.stdout.splitlines()[-1])
    assert summary["bad"] == [], summary["bad"][:20]
    # every kind yields thousands of cases, each loading or refused
    assert summary["cases"] > 5000, summary
    assert summary["codes"].get("0") and summary["codes"].get("2"), summary


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    print(json.dumps(run_fuzz(sys.argv[2])))
