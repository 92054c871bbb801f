from subsetsketch.rng import derive_seed, mix64, stream64


def test_mix64_deterministic_and_64bit():
    assert mix64(0) == mix64(0)
    for z in [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF]:
        v = mix64(z)
        assert 0 <= v < 2**64


def test_mix64_changes_on_input():
    outs = {mix64(z) for z in range(200)}
    assert len(outs) == 200


def test_derive_seed_tag_separation():
    master = 12345
    seeds = {derive_seed(master, t) for t in range(64)}
    assert len(seeds) == 64
    assert derive_seed(master, 1, 2) != derive_seed(master, 2, 1)
    assert derive_seed(master, 1) != derive_seed(master + 1, 1)
    assert derive_seed(master, 7) == derive_seed(master, 7)


def test_stream64_shape_and_reproducibility():
    a = stream64(99, 16)
    b = stream64(99, 16)
    assert list(a) == list(b)
    assert len(a) == 16
    assert all(0 <= x < 2**64 for x in a)
    assert len(set(a)) == 16


def test_counter_hash_matches_stream():
    from reference import counter_hash_array
    from subsetsketch.rng import counter_hash, stream64

    seq = stream64(42, 20)
    assert [counter_hash(42, i) for i in range(1, 21)] == seq
    import numpy as np

    arr = counter_hash_array(42, np.arange(1, 21))
    assert arr.dtype == np.uint64
    assert arr.tolist() == seq
