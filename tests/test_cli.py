"""Command-line behavior: exit codes, formats, two-phase equivalence."""

import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import subsetsketch
from subsetsketch.cli import main
from subsetsketch.l1_adapter import L1UniversalSketch
from subsetsketch.lp_additive import LpSetSketch
from subsetsketch.rng import derive_seed
from subsetsketch.serialize import save_sketch
from subsetsketch.setsystem import IntervalSystem, family_random, write_sets_file
from subsetsketch.streams import gen_stream
from subsetsketch.subset_l0 import L0UniversalSketch, detector_repetitions


@pytest.fixture
def sets_file(tmp_path):
    system = family_random(40, 10, 0.3, seed=3)
    path = tmp_path / "sets.txt"
    write_sets_file(str(path), system)
    return str(path), system


def _write_stream(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_build_and_query_l0(tmp_path, sets_file, capsys):
    sets_path, system = sets_file
    stream = gen_stream("uniform", {"n": 40, "length": 300}, seed=5)
    spath = tmp_path / "s.txt"
    stream.write(spath)
    out = tmp_path / "l0.json"
    rc = main(["build", "--sketch", "l0", "--stream", str(spath),
               "--sets", sets_path, "--out", str(out), "--eps", "0.5",
               "--seed", "1"])
    assert rc == 0
    capsys.readouterr()

    rc = main(["query", str(out), "1", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line, sid in zip(lines, ("1", "2")):
        qid, est = line.split("\t")
        assert qid == sid
        float(est)


def test_two_phase_equivalence(tmp_path, sets_file, capsys):
    """build-save-load-query equals build-query in one process, every kind."""
    sets_path, system = sets_file
    ins = gen_stream("uniform", {"n": 40, "length": 200}, seed=9)
    ipath = tmp_path / "ins.txt"
    ins.write(ipath)

    rng = np.random.default_rng(2)
    coords = rng.permutation(40)[:30] + 1
    entry_lines = ["# model=entrywise n=40"] + [
        f"{c} {rng.standard_normal():.6f}" for c in coords
    ]
    epath = _write_stream(tmp_path, "entry.txt", entry_lines)

    turn_lines = ["# model=turnstile n=40"] + [
        f"{int(c)} {d:+.4f}"
        for c, d in zip(rng.integers(1, 41, 60), rng.standard_normal(60))
    ]
    tpath = _write_stream(tmp_path, "turn.txt", turn_lines)

    cases = [
        ("l0", ["--stream", str(ipath), "--sets", sets_path]),
        ("l1", ["--stream", str(ipath), "--sets", sets_path]),
        ("priority", ["--stream", epath, "--sets", sets_path, "--p", "2"]),
        ("lp-additive", ["--stream", tpath, "--n", "40", "--p", "1",
                         "--k", "32"]),
    ]
    for kind, extra in cases:
        out = tmp_path / f"{kind}.json"
        rc = main(["build", "--sketch", kind, "--out", str(out),
                   "--eps", "0.5", "--seed", "7", *extra])
        assert rc == 0, kind
        capsys.readouterr()
        tokens = ["1,2,3,4,5", "6..10"] if kind == "lp-additive" else ["1", "3"]
        rc = main(["query", str(out), *tokens])
        assert rc == 0, kind
        first = capsys.readouterr().out
        assert first.strip(), kind

        rc = main(["query", str(out), *tokens])
        assert rc == 0
        assert capsys.readouterr().out == first


def test_model_mismatch_exit_code(tmp_path, sets_file, capsys):
    sets_path, _ = sets_file
    stream = gen_stream("adversarial-turnstile", {"n": 40}, seed=1)
    spath = tmp_path / "t.txt"
    stream.write(spath)
    rc = main(["build", "--sketch", "l0", "--stream", str(spath),
               "--sets", sets_path, "--out", str(tmp_path / "x.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "insertion-only" in err

    # conflicting header and flag
    rc = main(["build", "--sketch", "lp-additive", "--model", "insertion",
               "--stream", str(spath), "--n", "40",
               "--out", str(tmp_path / "y.json")])
    assert rc == 3


def test_negative_insertion_rejected(tmp_path, sets_file):
    sets_path, _ = sets_file
    spath = _write_stream(tmp_path, "bad.txt",
                          ["# model=insertion n=40", "3 -1"])
    rc = main(["build", "--sketch", "l1", "--stream", spath,
               "--sets", sets_path, "--out", str(tmp_path / "x.json")])
    assert rc == 3


@pytest.mark.parametrize("sketch", ["l0", "l1", "lp-additive"])
@pytest.mark.parametrize("line", ["3 -1", "3 2.5", "3 0", "3 inf"])
def test_insertion_increment_rule_in_build(tmp_path, sets_file, sketch, line):
    # every kind that reads an insertion stream holds it to ExactVector's
    # rule: a positive integer increment
    sets_path, _ = sets_file
    spath = _write_stream(tmp_path, "bad.txt",
                          ["# model=insertion n=40", "3", line])
    out = tmp_path / "x.json"
    rc = main(["build", "--sketch", sketch, "--stream", spath,
               "--sets", sets_path, "--out", str(out)])
    assert rc == 3
    assert not out.exists()


def test_parse_error_exit_code(tmp_path, sets_file):
    sets_path, _ = sets_file
    spath = _write_stream(tmp_path, "bad.txt", ["1 2 3 4"])
    rc = main(["build", "--sketch", "l0", "--stream", spath,
               "--sets", sets_path, "--out", str(tmp_path / "x.json")])
    assert rc == 2
    # a coordinate too large for a machine integer is outside the universe
    for sketch in ("l0", "lp-additive"):
        spath = _write_stream(tmp_path, "big.txt", ["# model=insertion", "3", str(10**30)])
        rc = main(["build", "--sketch", sketch, "--stream", spath,
                   "--sets", sets_path, "--out", str(tmp_path / "x.json")])
        assert rc == 2
    # a non-finite p, an eps whose square underflows, an unwritable --out
    insertion = _write_stream(tmp_path, "ins.txt", ["# model=insertion", "3", "5"])
    entrywise = _write_stream(tmp_path, "ent.txt", ["# model=entrywise", "3 1.0", "5 2.0"])
    nowhere = str(tmp_path / "missing" / "x.json")
    for argv in (["--sketch", "priority", "--p", "nan", "--stream", entrywise],
                 ["--sketch", "priority", "--p", "inf", "--stream", entrywise],
                 ["--sketch", "priority", "--eps", "1e-300", "--stream", entrywise],
                 ["--sketch", "l0", "--eps", "1e-300", "--stream", insertion],
                 ["--sketch", "lp-additive", "--eps", "1e-300", "--stream", insertion],
                 ["--sketch", "lp-additive", "--eps", "1e-100", "--k", "2",
                  "--stream", insertion],
                 # counter tables past lp_additive.MAX_COUNTERS
                 ["--sketch", "lp-additive", "--n", "40", "--eps", "0.01",
                  "--stream", insertion],
                 ["--sketch", "lp-additive", "--n", "20", "--k", "100000000",
                  "--stream", insertion],
                 ["--sketch", "lp-additive", "--k", "2", "--eps", "0.001",
                  "--stream", insertion],
                 ["--sketch", "l0", "--stream", insertion, "--out", nowhere]):
        argv = ["build", "--sets", sets_path, "--out", str(tmp_path / "y.json"), *argv]
        assert main(argv) == 2, argv
        assert not (tmp_path / "y.json").exists()
    assert main(["gen", "--kind", "uniform", "--n", "10", "--out", nowhere]) == 2
    # a stream header n above the universe that --sets, --intervals or --n gives
    wide = _write_stream(tmp_path, "wide.txt", ["# model=insertion n=100000000000", "3", "5"])
    for argv in (["--sketch", "l0", "--sets", sets_path],
                 ["--sketch", "l1", "--sets", sets_path],
                 ["--sketch", "l0", "--intervals", "5", "--n", "40"],
                 ["--sketch", "lp-additive", "--n", "40"]):
        argv = ["build", "--stream", wide, "--out", str(tmp_path / "y.json"), *argv]
        assert main(argv) == 2, argv
        assert not (tmp_path / "y.json").exists()


def test_query_rejection_exit_codes(tmp_path, sets_file, capsys):
    sets_path, system = sets_file
    stream = gen_stream("uniform", {"n": 40, "length": 100}, seed=4)
    spath = tmp_path / "s.txt"
    stream.write(spath)
    out = tmp_path / "l0.json"
    assert main(["build", "--sketch", "l0", "--stream", str(spath),
                 "--sets", sets_path, "--out", str(out)]) == 0
    capsys.readouterr()
    # set id past the family
    assert main(["query", str(out), str(system.num_sets + 1)]) == 4
    # subset not in the family
    assert main(["query", str(out), "1,2"]) == 4
    # malformed token
    assert main(["query", str(out), "7..3"]) == 2
    # a coordinate outside the universe, found before a range or list is
    # built from the token; run in a child process whose address space is
    # limited, so that a query allocating by the token fails there
    lp, iv = tmp_path / "lp.json", tmp_path / "iv.json"
    save_sketch(LpSetSketch(40, 1.0, 0.5, seed=1), str(lp))
    save_sketch(L0UniversalSketch(IntervalSystem(40, 10), 0.5, seed=1), str(iv))
    for state, token in ((out, "1..1000000000"), (out, "1,99999999999999999999"),
                         (lp, "1..99999999999999999999"), (lp, "1,99999999999999999999"),
                         (lp, "1..1000000000000"), (iv, "1..99999999999999999999"),
                         (iv, "1..41")):
        run = _main_in_child("query", str(state), token)
        assert run.returncode == 4, (state.name, token, run.stderr)
        assert "outside universe [1, 40]" in run.stderr


_CHILD_AS_LIMIT = 3 << 30
_CHILD_MAIN = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from subsetsketch.cli import main; sys.exit(main(sys.argv[2:]))")


def _main_in_child(*argv: str) -> subprocess.CompletedProcess:
    """`cli.main(argv)` in a child process whose address space is limited
    and whose run is cut after a minute."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_AS_LIMIT, _CHILD_AS_LIMIT))

    src = os.path.dirname(os.path.dirname(subsetsketch.__file__))
    return subprocess.run([sys.executable, "-c", _CHILD_MAIN, src, *argv],
                          capture_output=True, text=True, preexec_fn=limit_memory,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=60)


def test_cli_imports_no_third_party_package_but_numpy():
    """numpy is the package's only runtime dependency: importing the
    command line loads no other package outside the standard library."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import subsetsketch.cli; "
            "print(' '.join(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names))))")
    src = os.path.dirname(os.path.dirname(subsetsketch.__file__))
    run = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["numpy", "subsetsketch"]


def test_headerless_stream_model_is_inferred(tmp_path, sets_file, capsys):
    # pairs without a header are a turnstile stream, which lp consumes
    sets_path, _ = sets_file
    pairs = _write_stream(tmp_path, "pairs.txt", ["3 -1.5", "5 2"])
    headed = _write_stream(tmp_path, "headed.txt",
                           ["# model=turnstile n=10", "3 -1.5", "5 2"])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for stream, out in ((pairs, a), (headed, b)):
        assert main(["build", "--sketch", "lp-additive", "--n", "10",
                     "--stream", stream, "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # a kind that cannot consume turnstile reads them in its own model
    weighted = _write_stream(tmp_path, "weighted.txt", ["3 2", "5 1"])
    for sketch in ("l1", "priority"):
        assert main(["build", "--sketch", sketch, "--stream", weighted,
                     "--sets", sets_path, "--out", str(a)]) == 0
    assert main(["build", "--sketch", "l1", "--stream", pairs,
                 "--sets", sets_path, "--out", str(a)]) == 3
    # --model still overrides the inferred model
    assert main(["build", "--sketch", "lp-additive", "--n", "10", "--model",
                 "insertion", "--stream", pairs, "--out", str(a)]) == 3


def test_huge_interval_universe_exits_2(tmp_path, capsys):
    # every sizing of a family over n = 10^12 is refused before it
    # allocates or loops by n, in a child with limited address space
    ins = _write_stream(tmp_path, "ins.txt", ["3", "5"])
    ent = _write_stream(tmp_path, "ent.txt", ["# model=entrywise", "3 1.0", "5 2.0"])
    out = str(tmp_path / "x.json")
    huge = ["--intervals", "5", "--n", "1000000000000"]
    for argv in (["hhdim", "--family", "intervals", "--n", "1000000000000", "--k", "5"],
                 ["build", "--sketch", "priority", "--stream", ent, "--out", out, *huge],
                 ["build", "--sketch", "l0", "--stream", ins, "--out", out, *huge],
                 ["build", "--sketch", "l1", "--capacity", "1", "--stream", ins,
                  "--out", out, *huge]):
        run = _main_in_child(*argv)
        assert run.returncode == 2, (argv, run.stderr)
        assert "Traceback" not in run.stderr
    assert not os.path.exists(out)
    # a state file edited to the same universe, consistently
    state = _interval_state(tmp_path, capsys)
    system = IntervalSystem(10**12, 30, 300)
    state["n"] = state["system"]["n"] = system.n
    state["set_system_fingerprint"] = system.fingerprint()
    state["state"]["detector_reps"] = detector_repetitions(system.n)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(state))
    run = _main_in_child("query", str(path), "1..40")
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: state file") and "window cells" in run.stderr


def test_entrywise_duplicate_is_model_error(tmp_path, sets_file):
    sets_path, _ = sets_file
    spath = _write_stream(tmp_path, "dup.txt",
                          ["# model=entrywise n=40", "5 1.0", "5 2.0"])
    rc = main(["build", "--sketch", "priority", "--stream", spath,
               "--sets", sets_path, "--out", str(tmp_path / "x.json")])
    assert rc == 3


def test_interval_build_and_interval_query(tmp_path, capsys):
    stream = gen_stream("uniform", {"n": 120, "length": 500}, seed=8)
    spath = tmp_path / "s.txt"
    stream.write(spath)
    out = tmp_path / "iv.json"
    rc = main(["build", "--sketch", "l0", "--stream", str(spath),
               "--intervals", "10", "--n", "120", "--out", str(out),
               "--eps", "0.5"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["query", str(out), "11..30"])
    assert rc == 0
    qid, est = capsys.readouterr().out.strip().split("\t")
    assert qid == "11..30"
    assert float(est) >= 0
    # too short for the declared family
    assert main(["query", str(out), "1..4"]) == 4


def _interval_state(tmp_path, capsys):
    """A CLI-built l0 state over intervals of length >= 30 in [1, 300]."""
    stream = gen_stream("uniform", {"n": 300, "length": 1500}, seed=2)
    spath = tmp_path / "s.txt"
    stream.write(spath)
    out = tmp_path / "iv.json"
    assert main(["build", "--sketch", "l0", "--stream", str(spath),
                 "--intervals", "30", "--n", "300", "--out", str(out),
                 "--eps", "0.5", "--seed", "4"]) == 0
    capsys.readouterr()
    return json.loads(out.read_text())


def _never_sampled_in_ladder3(st):
    samp = L0UniversalSketch(IntervalSystem(300, 30), 0.5, 4).ladder[3]
    st["state"]["supports"]["ladder3"].append(
        next(c for c in range(1, 301) if not samp.sampled(c)))


def _ladder0_append(value):
    return lambda st: st["state"]["supports"]["ladder0"].append(value)


STATE_EDITS = {
    "float coordinate": _ladder0_append(2.5),
    "duplicate coordinate": lambda st: _ladder0_append(
        st["state"]["supports"]["ladder0"][0])(st),
    "never-sampled coordinate": _never_sampled_in_ladder3,
    "null in a support": _ladder0_append(None),
    "support not a list": lambda st: st["state"]["supports"].update(ladder0=7),
    "supports a list": lambda st: st["state"].update(supports=[]),
    "state null": lambda st: st.update(state=None),
    "huge detector_reps": lambda st: st["state"].update(detector_reps=10**12 + 1),
}


@pytest.mark.parametrize("case", list(STATE_EDITS))
def test_malformed_state_file_exits_2(tmp_path, capsys, case):
    state = _interval_state(tmp_path, capsys)
    STATE_EDITS[case](state)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(state))
    assert main(["query", str(path), "1..40"]) == 2
    assert capsys.readouterr().err.startswith("error: state file")


def test_unedited_interval_state_loads(tmp_path, capsys):
    path = tmp_path / "same.json"
    path.write_text(json.dumps(_interval_state(tmp_path, capsys)))
    assert main(["query", str(path), "1..40"]) == 0


def test_stdin_stream(tmp_path, sets_file, capsys, monkeypatch):
    import io

    sets_path, _ = sets_file
    text = "\n".join(str(c) for c in [1, 5, 9, 5, 1]) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    out = tmp_path / "x.json"
    rc = main(["build", "--sketch", "l0", "--stream", "-",
               "--sets", sets_path, "--out", str(out)])
    assert rc == 0


def test_build_matches_library_build(tmp_path, sets_file):
    """The CLI is plumbing: a build equals updating the sketch directly."""
    from subsetsketch.serialize import load_sketch

    sets_path, system = sets_file
    stream = gen_stream("uniform", {"n": 40, "length": 150}, seed=6)
    spath = tmp_path / "s.txt"
    stream.write(spath)
    out = tmp_path / "l1.json"
    assert main(["build", "--sketch", "l1", "--stream", str(spath),
                 "--sets", sets_path, "--out", str(out), "--eps", "0.4",
                 "--seed", "5"]) == 0

    direct = L1UniversalSketch(system, 0.4, derive_seed(5, "build", "l1"))
    for c, v in zip(stream.coords.tolist(), stream.values.tolist()):
        direct.update(c, int(v))
    loaded = load_sketch(str(out))
    for j in range(system.num_sets):
        q = system.coords_of(j)
        assert loaded.query(q) == direct.query(q)


def test_l0_build_matches_per_item_updates(tmp_path, sets_file):
    """The CLI feeds l0 one batch; the state equals per-item updates."""
    from subsetsketch.serialize import save_sketch
    from subsetsketch.subset_l0 import L0UniversalSketch

    sets_path, system = sets_file
    stream = gen_stream("zipf", {"n": 40, "length": 400}, seed=8)
    spath = tmp_path / "s.txt"
    stream.write(spath)
    out = tmp_path / "l0.json"
    assert main(["build", "--sketch", "l0", "--stream", str(spath),
                 "--sets", sets_path, "--out", str(out), "--eps", "0.3",
                 "--seed", "4"]) == 0

    direct = L0UniversalSketch(system, 0.3, derive_seed(4, "build", "l0"))
    for c in stream.coords.tolist():
        direct.update(c)
    ref = tmp_path / "direct.json"
    save_sketch(direct, str(ref))
    assert out.read_bytes() == ref.read_bytes()


def test_hhdim_command(tmp_path, capsys):
    rc = main(["hhdim", "--family", "singletons", "--n", "8"])
    assert rc == 0
    dim, mode = capsys.readouterr().out.strip().split("\t")
    assert (dim, mode) == ("8", "exact")

    rc = main(["hhdim", "--family", "half-intervals", "--n", "500"])
    assert rc == 0
    dim, mode = capsys.readouterr().out.strip().split("\t")
    assert mode == "greedy-lower-bound"
    assert 1 <= int(dim) <= 3  # long intervals overlap too much to go higher

    system = family_random(12, 5, 0.4, seed=2)
    path = tmp_path / "sets.txt"
    write_sets_file(str(path), system)
    rc = main(["hhdim", "--sets", str(path)])
    assert rc == 0
    dim, mode = capsys.readouterr().out.strip().split("\t")
    assert mode == "exact" and 1 <= int(dim) <= 5

    # a random family past FAMILY_RANDOM_MAX_CELLS is refused before its draw
    run = _main_in_child("hhdim", "--family", "random", "--n", "100000000", "--k", "3")
    assert run.returncode == 2, run.stderr
    assert "cells" in run.stderr and "Traceback" not in run.stderr


def test_gen_command_round_trip(tmp_path, capsys):
    out = tmp_path / "g.txt"
    rc = main(["gen", "--kind", "zipf", "--n", "50", "--length", "200",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    from subsetsketch.streams import read_stream_file

    s = read_stream_file(str(out))
    assert s.n == 50 and len(s.coords) == 200

    rc = main(["gen", "--kind", "uniform", "--n", "10", "--length", "5"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("# model=insertion n=10")


def test_selfcheck(capsys):
    rc = main(["selfcheck"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "FAIL" not in out
