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
A :class:`Workspace` lends the Monte Carlo path scratch arrays that it
reuses across sub-blocks and calls.
"""

import math
import mmap

import numpy as np

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_U64 = np.uint64
_MASK = 0xFFFFFFFFFFFFFFFF
_TWO53_INV = 2.0 ** -53


class Workspace:
    """Scratch arrays carved from one retained buffer, for one thread at a time.

    ``take(shape, dtype)`` returns an uninitialised C-contiguous array above
    every array taken before it, and a ``with ws:`` block hands back, on
    exit, everything taken inside it, so the next phase reuses the same
    memory.  An array taken inside a block must not be used after it exits.
    A take past the buffer's end replaces the buffer with one that ends
    there (arrays already taken keep the old one alive), so the buffer
    settles at the deepest demand it has met, and a workspace kept across
    calls allocates nothing once warm.  The buffer is an anonymous memory
    map, not a malloc block: glibc raises its mmap and trim thresholds to
    the size of the largest mapped block freed, so each outgrown multi-MiB
    block would have let its heap keep more free memory resident (worker
    threads, each with a heap of its own, showed it most).

    ``Workspace(buf)`` lends the bytes of an existing C-contiguous array
    instead, and a take past its end is a new array.  Every function that
    takes a workspace defaults to :data:`FRESH`, whose every take is a new
    array.
    """

    def __init__(self, buf=None):
        self._lent = buf is not None
        self._buf = buf.reshape(-1).view(np.uint8) if self._lent else np.empty(0, dtype=np.uint8)
        self._top = 0
        self._marks = []

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        start = -(-self._top // 16) * 16  # numpy's own alignment
        self._top = start + int(math.prod(shape)) * dtype.itemsize
        if self._top > self._buf.size:
            if self._lent:
                return np.empty(shape, dtype)
            self._buf = np.frombuffer(mmap.mmap(-1, self._top), dtype=np.uint8)
        return np.ndarray(shape, dtype, buffer=self._buf, offset=start)

    def __enter__(self):
        self._marks.append(self._top)
        return self

    def __exit__(self, *exc):
        self._top = self._marks.pop()


class _Fresh:
    take = staticmethod(np.empty)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


FRESH = _Fresh()


def _mix64(z: np.ndarray, ws=FRESH) -> np.ndarray:
    # SplitMix64 finalizer, in place on a uint64 array; overflow wraps mod 2**64.
    with ws:
        t = ws.take(z.shape, np.uint64)
        for shift, mult in ((30, _MIX_A), (27, _MIX_B), (31, None)):
            np.right_shift(z, _U64(shift), out=t)
            z ^= t
            if mult is not None:
                z *= _U64(mult)
    return z


def words(seed: int, start: int, count: int, *, _rows=None, _out=None, _ws=FRESH) -> np.ndarray:
    """Raw stream words ``start .. start+count-1`` as uint64.

    The hash inputs z[i] = seed + GOLDEN_GAMMA * (start + 1 + i) mod 2**64
    are built from a short ramp by doubling, z[j:2j] = z[:j] + j *
    GOLDEN_GAMMA, so no counter array is formed.  With the private
    ``_rows``, an ascending array of distinct nonnegative row indices, the
    stream is read as rows of ``count`` words instead: the result is
    (len(_rows), count), and its row r holds words start + count * _rows[r]
    onward, each hash input the row's offset plus the ramp of one row (or,
    when the rows have no gap, one run built by doubling), so every word has
    the bits it has in a contiguous call.  The samplers pass the private
    ``_out``, a C-contiguous uint64 array of as many words, which receives
    them instead of a new array, and ``_ws``, a :class:`Workspace` that
    lends the temporaries.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    shape = (count,) if _rows is None else (len(_rows), count)
    out = np.empty(shape, dtype=np.uint64) if _out is None else _out
    if out.size != math.prod(shape) or out.dtype != np.uint64 or not out.flags.c_contiguous:
        raise ValueError(f"_out must be a C-contiguous uint64 array of {math.prod(shape)} words")
    z, gap = out.reshape(-1), False
    if _rows is not None and len(_rows):  # the rows from _rows[0] on: one run unless a gap
        start += count * int(_rows[0])
        gap = int(_rows[-1] - _rows[0]) != len(_rows) - 1
    base = _U64((seed + GOLDEN_GAMMA * (start + 1)) & _MASK)
    with _ws:
        if gap:
            offset = _ws.take((len(_rows),), np.uint64)
            np.subtract(_rows, _rows[0], out=offset, casting="unsafe")
            offset *= _U64(GOLDEN_GAMMA * count & _MASK)
            offset += base
            ramp = np.multiply(np.arange(count, dtype=np.uint64), _U64(GOLDEN_GAMMA))
            np.add(offset[:, None], ramp, out=z.reshape(shape))
        else:
            j = min(z.size, 1024)
            np.multiply(np.arange(j, dtype=np.uint64), _U64(GOLDEN_GAMMA), out=z[:j])
            z[:j] += base
            while j < z.size:
                m = min(j, z.size - j)
                np.add(z[:m], _U64(GOLDEN_GAMMA * j & _MASK), out=z[j : j + m])
                j += m
        _mix64(z, _ws)
    return out


def _uniforms(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    # each value m / 2**53 is exact, so it is built in f's own memory
    bits = f.view(np.uint64)
    np.right_shift(w, _U64(11), out=bits)
    np.multiply(bits, _TWO53_INV, out=f)
    return f


def uniforms_from_words(w: np.ndarray) -> np.ndarray:
    """Map raw words to uniforms on [0, 1) (top 53 bits), elementwise."""
    return _uniforms(w, np.empty(w.shape))


def normals_from_words(w: np.ndarray, out=None, *, _ws=FRESH) -> np.ndarray:
    """Box-Muller on adjacent word pairs along the last axis.

    Words (2i, 2i+1) produce normals (2i, 2i+1):
    z0 = sqrt(-2 ln u1) cos(2 pi u2), z1 = the sin partner, where u1 is
    word 2i mapped to (0, 1] and u2 is word 2i+1 mapped to [0, 1).
    Each output pair depends only on its own word pair, and every
    element goes through the same float operations in the same order
    (r = sqrt(-2 * log(u1)), then r * cos(2 pi * u2) and r * sin(...)),
    on contiguous arrays of r, the angle and its cosine or sine, so any
    even-aligned partition of the counter range, and any ``out`` (a float64
    array of ``w``'s shape, possibly strided), reproduces bitwise.  The
    private :class:`Workspace` ``_ws`` lends those three arrays.  Returns
    ``out``.
    """
    if w.shape[-1] % 2:
        raise ValueError("word count must be even for Box-Muller pairing")
    if out is None:
        out = np.empty(w.shape)
    half = w.shape[:-1] + (w.shape[-1] // 2,)
    with _ws:
        r = _uniforms(w[..., 0::2], _ws.take(half))
        r += _TWO53_INV  # (m + 1) / 2**53, exactly
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        ang = _uniforms(w[..., 1::2], _ws.take(half))
        ang *= 2.0 * np.pi
        trig = _ws.take(half)
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
    s = np.array([seed & _MASK], dtype=np.uint64)
    t = np.empty_like(s)
    for tag in tags:
        t[0] = tag & _MASK
        t += _U64(GOLDEN_GAMMA)
        s ^= _mix64(t)
        _mix64(s)
    return int(s[0])
