"""Byte-level goldens: `gen` output and CLI-built state files.

The digests were recorded before streams became columnar; any change to
the bytes `gen` writes or `build` saves shows here first.
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
    "l1-sets":
        "a4d4af95151d74ebef345e20c3b10780ff509c707b932168de77d7dec269bfe3",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind", list(GEN_ARGS))
def test_gen_output_bytes(tmp_path, kind):
    out = tmp_path / "g.txt"
    assert main(["gen", "--kind", kind, *GEN_ARGS[kind], "--seed", "5",
                 "--out", str(out)]) == 0
    assert _sha256(out) == GEN_SHA256[kind]


def _build(tmp_path, capsys, case: str):
    stream, out = tmp_path / "s.txt", tmp_path / f"{case}.json"
    if case == "l0-intervals":
        assert main(["gen", "--kind", "zipf", "--n", "200", "--length", "900",
                     "--seed", "2", "--out", str(stream)]) == 0
        argv = ["--sketch", "l0", "--intervals", "25", "--n", "200", "--eps", "0.4"]
    else:
        sets = tmp_path / "sets.txt"
        write_sets_file(str(sets), family_random(50, 12, 0.3, seed=4))
        rng = np.random.default_rng(9)
        stream.write_text("# model=insertion n=50\n" + "".join(
            f"{c} {v}\n" for c, v in zip(rng.integers(1, 51, size=80),
                                         rng.integers(1, 30, size=80))))
        argv = ["--sketch", "l1", "--sets", str(sets), "--eps", "0.3",
                "--capacity", "100000"]
    assert main(["build", *argv, "--stream", str(stream), "--seed", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return out


@pytest.mark.parametrize("case", list(STATE_SHA256))
def test_cli_state_bytes(tmp_path, capsys, case):
    assert _sha256(_build(tmp_path, capsys, case)) == STATE_SHA256[case]
