"""Counter-based deterministic random streams (keyed SplitMix64).

Every draw is a pure function of ``(seed, counter)``: word ``i`` of the
stream keyed by the 64-bit ``seed`` is

    mix64((seed + GOLDEN_GAMMA * (i + 1)) mod 2**64)

where ``mix64`` is the SplitMix64 finalizer (Steele/Lea/Flood constants
0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb and shifts
30/27/31).  Uniform doubles take the top 53 bits, normals pair uniforms
through Box-Muller.  Disjoint counter ranges never overlap, so workers
can fill sub-ranges independently and reductions stay bit-identical for
any worker count.  Words, uniforms and ``derive`` are integer operations
and one exact scaling, so any language can replay them from this
docstring; normals also go through the platform's ``log``, ``cos`` and
``sin``, so another numpy or libm build may change their last bits.
"""

import numpy as np

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_U64 = np.uint64
_TWO53_INV = 2.0 ** -53


def _mix64(z: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer, in place on a uint64 array; overflow wraps mod 2**64.
    t = np.empty_like(z)
    for shift, mult in ((30, _MIX_A), (27, _MIX_B), (31, None)):
        np.right_shift(z, _U64(shift), out=t)
        z ^= t
        if mult is not None:
            z *= _U64(mult)
    return z


def words(seed: int, start: int, count: int) -> np.ndarray:
    """Raw stream words ``start .. start+count-1`` as uint64."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _U64(GOLDEN_GAMMA)
    z += _U64(seed & 0xFFFFFFFFFFFFFFFF)
    return _mix64(z)


def uniforms_from_words(w: np.ndarray) -> np.ndarray:
    """Map raw words to uniforms on [0, 1) (top 53 bits), elementwise.

    Each value m / 2**53 is exact, so it is built in place: the shifted
    words are written into the float64 result's own memory.
    """
    f = np.empty(w.shape)
    bits = f.view(np.uint64)
    np.right_shift(w, _U64(11), out=bits)
    np.multiply(bits, _TWO53_INV, out=f)
    return f


def normals_from_words(w: np.ndarray, out=None) -> np.ndarray:
    """Box-Muller on adjacent word pairs along the last axis.

    Words (2i, 2i+1) produce normals (2i, 2i+1):
    z0 = sqrt(-2 ln u1) cos(2 pi u2), z1 = the sin partner, where u1 is
    word 2i mapped to (0, 1] and u2 is word 2i+1 mapped to [0, 1).
    Each output pair depends only on its own word pair, and every
    element goes through the same float operations in the same order
    (r = sqrt(-2 * log(u1)), then r * cos(2 pi * u2) and r * sin(...)),
    so any even-aligned partition of the counter range, and any ``out``
    (a float64 array of ``w``'s shape, possibly strided), reproduces
    bitwise.  Returns ``out``.
    """
    if w.shape[-1] % 2:
        raise ValueError("word count must be even for Box-Muller pairing")
    if out is None:
        out = np.empty(w.shape)
    r = uniforms_from_words(w[..., 0::2])
    r += _TWO53_INV  # (m + 1) / 2**53, exactly
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    ang = uniforms_from_words(w[..., 1::2])
    ang *= 2.0 * np.pi
    trig = np.empty_like(ang)
    np.cos(ang, out=trig)
    np.multiply(r, trig, out=out[..., 0::2])
    np.sin(ang, out=trig)
    np.multiply(r, trig, out=out[..., 1::2])
    return out


def normals(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normals; consumes 2*ceil(count/2) words from ``start``.

    Callers partitioning counter space should use even block sizes and
    even-aligned starts so batched and per-block calls agree bitwise.
    """
    pairs = (count + 1) // 2
    return normals_from_words(words(seed, start, 2 * pairs))[:count]


def derive(seed: int, *tags: int) -> int:
    """Child seed for a named substream.

    ``derive(s, t)`` = ``mix64(s XOR mix64(t + GOLDEN_GAMMA))``; chained
    left to right for several tags.  Distinct tag paths give streams
    that are independent for all practical purposes.
    """
    s = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    t = np.empty_like(s)
    for tag in tags:
        t[0] = tag & 0xFFFFFFFFFFFFFFFF
        t += _U64(GOLDEN_GAMMA)
        s ^= _mix64(t)
        _mix64(s)
    return int(s[0])
