"""Stream reproducibility and distribution sanity for the counter RNG."""

import math

import numpy as np

from freelab import rng

MASK = (1 << 64) - 1


def _splitmix_oracle(seed, i):
    # independent pure-int implementation of the documented stream
    z = (seed + 0x9E3779B97F4A7C15 * (i + 1)) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_words_match_scalar_oracle():
    seed = 0xDEADBEEFCAFE
    got = rng.words(seed, 5, 40)
    want = [_splitmix_oracle(seed, i) for i in range(5, 45)]
    assert [int(x) for x in got] == want


def test_same_seed_same_stream():
    a = rng.normals(123, 0, 1000)
    b = rng.normals(123, 0, 1000)
    assert (a == b).all()
    assert not (a == rng.normals(124, 0, 1000)).all()


def test_partitioned_ranges_concatenate():
    whole = rng.normals(7, 0, 4096)
    parts = np.concatenate([rng.normals(7, s, 1024) for s in (0, 1024, 2048, 3072)])
    assert (whole == parts).all()
    wu = rng.uniforms_from_words(rng.words(7, 0, 512))
    pu = np.concatenate(
        [rng.uniforms_from_words(rng.words(7, s, 128)) for s in (0, 128, 256, 384)]
    )
    assert (wu == pu).all()


def test_uniform_range_and_moments():
    u = rng.uniforms_from_words(rng.words(99, 0, 200000))
    assert ((0.0 <= u) & (u < 1.0)).all()
    assert abs(u.mean() - 0.5) < 3 * 0.2887 / math.sqrt(u.size)
    assert abs(u.var() - 1.0 / 12.0) < 1e-3


def test_normal_moments():
    z = rng.normals(4242, 0, 400000)
    n = z.size
    assert abs(z.mean()) < 3.5 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 3.5 * math.sqrt(2.0 / n)
    # fourth moment of N(0,1) is 3
    assert abs((z**4).mean() - 3.0) < 3.5 * math.sqrt(96.0 / n)


def test_derive_gives_distinct_streams():
    seeds = {rng.derive(11, t) for t in range(64)}
    assert len(seeds) == 64
    assert rng.derive(11, 1, 2) != rng.derive(11, 2, 1)
    a = rng.uniforms_from_words(rng.words(rng.derive(11, 3), 0, 64))
    b = rng.uniforms_from_words(rng.words(rng.derive(11, 4), 0, 64))
    assert not (a == b).all()
