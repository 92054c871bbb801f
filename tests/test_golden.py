"""Byte-level goldens: `gen` output, CLI-built state files and the answers
`query` prints from each of them.

The digests were recorded before streams became columnar (the `priority`,
`lp-additive` and `l1-intervals` states later, one per remaining kind and
backend, then the `l0-sets` state and the answers of all but the interval
states); any change to the bytes `gen` writes, `build` saves or `query`
prints shows here first.
"""

import hashlib

import numpy as np
import pytest

from subsetsketch.cli import main
from subsetsketch.setsystem import family_random, write_sets_file

GEN_ARGS = {
    "uniform": ["--n", "64", "--length", "300"],
    "zipf": ["--n", "64", "--length", "300", "--theta", "1.3"],
    "planted-subset": ["--n", "64", "--length", "300", "--lo", "5", "--hi", "20"],
    "adversarial-turnstile": ["--n", "64"],
    "adversarial-sliding": ["--n", "64"],
}

GEN_SHA256 = {
    "uniform":
        "a006d011d1b096068b3820b002948dbd10c9745491004f44917367239a6f27bb",
    "zipf":
        "eefe59d85d6f7f395945d69d0bb2492f70c23bf80d85d9503873e47d96537607",
    "planted-subset":
        "900aab82e615d79760c05ba2b25a25437bdb09a3a27185c01f5132ecb10796ae",
    "adversarial-turnstile":
        "a28e16b0638b383211099bffb7f8b76dc0d94fe09a9b082ea6314393f697d17a",
    "adversarial-sliding":
        "a839c532032cbed38672b29771e511d255886d617f19e1b6dbb9199732c1f228",
}

STATE_SHA256 = {
    "l0-intervals":
        "2b18648330dca3fbdb58a7ab23619e7e67f6cf5f33d64660ef0669b07b059459",
    "l0-sets":
        "a0e4af2eafde29f327153f4d037700e76ca23b48052f0b5116965f4fafb7cc70",
    "l1-sets":
        "a4d4af95151d74ebef345e20c3b10780ff509c707b932168de77d7dec269bfe3",
    "l1-intervals":
        "9211dc6a325111f99158dae9a5c81d248e19548f9ca8ed4efe614a3399d705a4",
    "priority-sets":
        "b2d3ab4bb1f13b14669e4f5a030fd1ae334ca4b8ad569f60e4de85b15e5b1d90",
    "lp-additive":
        "d4bcb9038d3d276140b8a154a053d1763d7a3fd68420216820711c6d38571d68",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind", list(GEN_ARGS))
def test_gen_output_bytes(tmp_path, kind):
    out = tmp_path / "g.txt"
    assert main(["gen", "--kind", kind, *GEN_ARGS[kind], "--seed", "5",
                 "--out", str(out)]) == 0
    assert _sha256(out) == GEN_SHA256[kind]


def _write_rows(path, header: str, coords, values) -> None:
    path.write_text(header + "\n" + "".join(f"{c} {v}\n" for c, v in zip(coords, values)))


def _build(tmp_path, capsys, case: str):
    stream, out = tmp_path / "s.txt", tmp_path / f"{case}.json"
    sets = tmp_path / "sets.txt"
    write_sets_file(str(sets), family_random(50, 12, 0.3, seed=4))
    rng = np.random.default_rng(9)
    if case == "l0-intervals":
        assert main(["gen", "--kind", "zipf", "--n", "200", "--length", "900",
                     "--seed", "2", "--out", str(stream)]) == 0
        argv = ["--sketch", "l0", "--intervals", "25", "--n", "200", "--eps", "0.4"]
    elif case == "l0-sets":
        # the explicit backend at block 1, the one path no other case takes
        assert main(["gen", "--kind", "zipf", "--n", "50", "--length", "400",
                     "--seed", "2", "--out", str(stream)]) == 0
        argv = ["--sketch", "l0", "--sets", str(sets), "--eps", "0.4"]
    elif case == "l1-sets":
        _write_rows(stream, "# model=insertion n=50", rng.integers(1, 51, size=80),
                    rng.integers(1, 30, size=80))
        argv = ["--sketch", "l1", "--sets", str(sets), "--eps", "0.3",
                "--capacity", "100000"]
    elif case == "l1-intervals":
        # the block path (l1's virtual coordinates) on the interval backend
        _write_rows(stream, "# model=insertion n=60", rng.integers(1, 61, size=70),
                    rng.integers(1, 40, size=70))
        argv = ["--sketch", "l1", "--intervals", "12", "--n", "60", "--eps", "0.4",
                "--capacity", "5000"]
    elif case == "priority-sets":
        _write_rows(stream, "# model=entrywise n=50", rng.permutation(50) + 1,
                    np.round(rng.normal(0, 10, size=50), 2))
        argv = ["--sketch", "priority", "--sets", str(sets), "--k", "4",
                "--p", "1.5"]
    else:
        _write_rows(stream, "# model=turnstile n=60", rng.integers(1, 61, size=200),
                    rng.integers(-5, 6, size=200))
        argv = ["--sketch", "lp-additive", "--n", "60", "--eps", "0.5", "--p", "2"]
    assert main(["build", *argv, "--stream", str(stream), "--seed", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return out


@pytest.mark.parametrize("case", list(STATE_SHA256))
def test_cli_state_bytes(tmp_path, capsys, case):
    assert _sha256(_build(tmp_path, capsys, case)) == STATE_SHA256[case]


# the tokens queried on each golden state: every set id of the explicit
# family, member ranges of the interval ones (minimum lengths 25 and 12) and
# ranges over lp's universe of 60
SET_IDS = [str(j) for j in range(1, 13)]
QUERY_TOKENS = {
    "l0-intervals": ["1..200", "1..25", "176..200", "10..60", "37..149",
                     "100..124", "50..200", "1..100", "80..190", "160..199"],
    "l0-sets": SET_IDS,
    "l1-sets": SET_IDS,
    "l1-intervals": ["1..60", "1..12", "49..60", "5..30", "17..44", "30..41",
                     "20..60", "1..33", "8..52", "40..58"],
    "priority-sets": SET_IDS,
    "lp-additive": ["1..60", "1..10", "51..60", "5..30", "17..44", "30..41",
                    "20..60", "1..33", "8..52", "40..58"],
}

QUERY_SHA256 = {
    "l0-intervals":
        "71f672da860ea7133fe3f39b20a77de58af0397831fbe0c3ad7a723283a01238",
    "l0-sets":
        "ad35851b0d7d0d08e4938e549243205c88534fb87b2b26d29ab6f9feb6d028d1",
    "l1-sets":
        "db2748c65bf7fbdfa906824fbaf73b2d9e9654706f42ebba897b3961c970d391",
    "l1-intervals":
        "24889a07984524a1e280e5f7d40b5f8afd3779259a3f479559b7fafeefabfa7d",
    "priority-sets":
        "2190dd905778a94e77ace72af784a397bc5b68fd484eb8a6090075ef20b776ed",
    "lp-additive":
        "c0e5bc6670cfcdd0513a741f0cd456384c15ebe2f1aded19a2a838a23f68e3d9",
}


@pytest.mark.parametrize("case", list(QUERY_SHA256))
def test_cli_query_output(tmp_path, capsys, case):
    state = _build(tmp_path, capsys, case)
    assert main(["query", str(state), *QUERY_TOKENS[case]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == QUERY_SHA256[case]
