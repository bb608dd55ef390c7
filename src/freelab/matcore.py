"""Self-adjoint matrix tuples, word products, operator-norm tests, and samplers.

Every product of a word's letter matrices goes through one prefix-cached
kernel, :func:`_word_product`, which multiplies left to right.

Volume element convention used throughout the package: on the real
vector space of k x k Hermitian matrices we use the inner product
<a, b> = Tr(ab) with the NON-normalized trace.  An orthonormal
coordinate system is

    x_ii                      (k diagonal entries),
    sqrt(2) * Re x_ij         (i < j),
    sqrt(2) * Im x_ij         (i < j),

k^2 real coordinates in total, and "lambda" always means Lebesgue
measure in these coordinates.  Tuples carry the product measure.  One
gather index, :func:`_gather_index`, fixes their order for
:func:`to_coords`, :func:`sa_basis` and the samplers alike.
"""

import math
from functools import lru_cache

import numpy as np

from . import rng

_CERT_MARGIN = 1e-9  # relative; well above the rounding error in forming ||x^2||_F


class SelfAdjointMatrix:
    """Immutable k x k Hermitian matrix.

    Hermiticity is enforced exactly at construction: entry (i, j) must
    equal the complex conjugate of entry (j, i) bit for bit.  Build
    from unstructured data with :meth:`hermitian_part`, which produces
    exactly Hermitian output in IEEE arithmetic.
    """

    __slots__ = ("array",)

    def __init__(self, array):
        arr = np.array(array, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("matrix entries must be finite")
        if not np.array_equal(arr, arr.conj().T):
            raise ValueError("matrix is not exactly Hermitian; use hermitian_part")
        arr.setflags(write=False)
        self.array = arr

    @classmethod
    def hermitian_part(cls, raw) -> "SelfAdjointMatrix":
        raw = np.asarray(raw, dtype=np.complex128)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            # raw + raw^H would broadcast a 1 x k row into a k x k matrix
            raise ValueError(f"expected a square matrix, got shape {raw.shape}")
        return cls((raw + raw.conj().T) / 2.0)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def __repr__(self):
        return f"SelfAdjointMatrix(dim={self.dim})"


class MatrixTuple:
    """Tuple (x_1, ..., x_n) of Hermitian matrices of one dimension."""

    __slots__ = ("mats",)

    def __init__(self, mats):
        mats = tuple(mats)
        if not mats:
            raise ValueError("tuple must contain at least one matrix")
        for m in mats:
            if not isinstance(m, SelfAdjointMatrix):
                raise TypeError("tuple entries must be SelfAdjointMatrix")
        dims = {m.dim for m in mats}
        if len(dims) != 1:
            raise ValueError(f"mixed dimensions in tuple: {sorted(dims)}")
        self.mats = mats

    @property
    def n(self) -> int:
        return len(self.mats)

    @property
    def dim(self) -> int:
        return self.mats[0].dim

    def stack(self) -> np.ndarray:
        """(n, k, k) array view of the tuple."""
        return np.stack([m.array for m in self.mats])

    def __iter__(self):
        return iter(self.mats)

    def __repr__(self):
        return f"MatrixTuple(n={self.n}, dim={self.dim})"


def _word_product(cache, word, ws=rng.FRESH):
    """Product of the letters of ``word``, extending its longest prefix in
    ``cache``, which holds every letter as a length-1 product; each prefix
    formed on the way is cached, so words that share a prefix share its matmuls.
    A letter that is one (1, k, k) matrix for every row, such as a fixed Y
    letter, multiplies the prefix's rows, one or many, as one (rows*k, k)
    GEMM.  That a row's product has the same bits whatever rows share its
    batch holds for the BLAS build at hand, not by construction: a build
    whose GEMM blocks its M dimension differently could break it, and
    tests/test_microstates.py::test_each_row_is_traced_alone checks it."""
    j = len(word)
    while word[:j] not in cache:
        j -= 1
    acc = cache[word[:j]]
    for i in range(j, len(word)):
        b = cache[word[i : i + 1]]
        out = ws.take((max(len(acc), len(b)),) + acc.shape[1:], acc.dtype)
        if b.ndim == 3 and len(b) == 1 <= len(acc):
            k = acc.shape[-1]
            np.matmul(acc.reshape(-1, k), b[0], out=out.reshape(-1, k))
        else:
            np.matmul(acc, b, out=out)
        acc = cache[word[: i + 1]] = out
    return acc


_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2


def _ext_width(k: int) -> int:
    # k^2 coordinates, k(k-1)/2 negated imaginary parts, one zero
    return k * k + k * (k - 1) // 2 + 1


@lru_cache(maxsize=64)
def _gather_index(k: int) -> np.ndarray:
    """(k, 2k) index into the extended coordinate row, one per float of a row
    of the complex (k, k) output: real and imaginary part of each entry.
    The one definition of the lambda layout: coordinate d < k is entry (d, d),
    and k + 2p, k + 2p + 1 are Re and Im of the p-th entry above the diagonal,
    row-major."""
    kk = k * k
    iu, ju = np.triu_indices(k, 1)
    pos = k + 2 * np.arange(iu.size)  # real part of pair p; the imaginary follows
    d = np.arange(k)
    idx = np.empty((k, k, 2), dtype=np.intp)
    idx[d, d] = np.stack([d, np.full(k, _ext_width(k) - 1)], axis=1)
    idx[iu, ju] = np.stack([pos, pos + 1], axis=1)
    idx[ju, iu] = np.stack([pos, kk + np.arange(iu.size)], axis=1)
    idx = idx.reshape(k, 2 * k)
    idx.setflags(write=False)
    return idx


def _hermitian_into(ext: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write the Hermitian matrices of (..., E) extended rows into (..., k, k) ``out``.

    On entry the first k^2 entries of each row hold lambda coordinates
    (the rest is scratch, E = :func:`_ext_width`).  The off-diagonal
    coordinates are scaled by 1/sqrt(2) in place, their imaginary parts
    negated into the scratch columns, the last column zeroed, and one
    ``np.take`` along :func:`_gather_index` fills the float64 view of
    ``out`` in place.  ``ext`` may be strided and so may ``out``, such as
    ``stack[:, i]``, which np.take fills through a new contiguous copy; the
    estimator hands each sampler a contiguous letter of its sub-block.
    """
    kk = k * k
    ext[..., k:kk] *= _INV_SQRT2
    np.negative(ext[..., k + 1 : kk : 2], out=ext[..., kk:-1])
    ext[..., -1] = 0.0
    # the index is in range by construction; mode="raise" would buffer out
    np.take(ext, _gather_index(k), axis=-1, out=out.view(np.float64), mode="clip")


def sa_basis(k: int, start: int, stop: int) -> np.ndarray:
    """Elements start..stop-1 of the k^2-element orthonormal Hermitian
    basis for <a,b> = Tr(ab), as a (stop - start, k, k) stack: element c has
    the unit lambda coordinate vector e_c.  Only the asked-for elements are
    built, and nothing is kept: the whole basis at k = 32 is 16 MB."""
    ext = np.zeros((stop - start, _ext_width(k)))
    ext[np.arange(stop - start), np.arange(start, stop)] = 1.0
    basis = np.empty((stop - start, k, k), dtype=np.complex128)
    _hermitian_into(ext, k, basis)
    basis += 0.0  # the gather negates a zero imaginary part to -0.0
    return basis


def to_coords(h: np.ndarray) -> np.ndarray:
    """Lambda coordinates of a Hermitian matrix (or (..., k, k) stack), each
    read from its first float in :func:`_gather_index`, the diagonal or
    upper-triangle entry, and scaled by sqrt(2) off the diagonal."""
    h = np.ascontiguousarray(h, dtype=np.complex128)
    k = h.shape[-1]
    first = np.unique(_gather_index(k), return_index=True)[1][: k * k]
    out = np.take(h.view(np.float64).reshape(h.shape[:-2] + (2 * k * k,)), first, axis=-1)
    out[..., k:] *= _SQRT2
    return out


# ---------------------------------------------------------------------------
# Operator-norm tests


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """max |eigenvalue| for each matrix in a (m, k, k) Hermitian stack."""
    ev = np.linalg.eigvalsh(stack)
    return np.maximum(np.abs(ev[:, 0]), np.abs(ev[:, -1]))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (m, k, k) stack, with no complex temporary."""
    re = np.ascontiguousarray(stack, dtype=np.complex128).view(np.float64)
    return np.sqrt(np.einsum("mij,mij->m", re, re))


def norms_leq(stack: np.ndarray, radius: float, squares=None) -> np.ndarray:
    """Boolean mask: operator norm <= radius, per stack entry.

    Three tests in order, each taking only what the previous left open:
    the Frobenius bound ||x||_op <= ||x||_F; the x^4 certificate
    ||x||_op <= (Tr x^4)^(1/4) = ||x^2||_F^(1/2), held to
    radius * (1 - _CERT_MARGIN) so that rounding in x^2 cannot certify a
    norm above the radius; and an eigen-solve of the band neither
    resolves.  ``squares`` gives x x per entry when the caller already
    holds them; otherwise the band's squares are formed here.
    """
    out = frobenius_norms(stack) <= radius
    band = np.flatnonzero(~out)
    if band.size:
        if squares is None:
            sub = stack[band]
            sq = frobenius_norms(sub @ sub)
        else:
            sq = frobenius_norms(squares)[band]
        cert = sq <= (radius * (1.0 - _CERT_MARGIN)) ** 2
        out[band[cert]] = True
        rest = band[~cert]
        if rest.size:
            out[rest] = operator_norms(stack[rest]) <= radius
    return out


# ---------------------------------------------------------------------------
# Samplers


def _fill_stack(out, count, k, seed, start, block, finish, ws) -> np.ndarray:
    """Sampler pass shared by :func:`gue_stack` and :func:`ball_stack`.

    Sample ``index`` reads the counter block [B*(start+index), B*(start+index+1))
    with B = ``block``.  In one pass over all ``count`` rows, the first
    2*ceil(k^2/2) words of each block become normals in an extended row,
    ``finish(e, rest, ws)`` turns the first k^2 into lambda coordinates in
    place (``rest``: the block's other words), and :func:`_hermitian_into`
    writes the matrices into ``out``, or a new array if None.  The scratch
    holds all ``count`` rows (the estimator bounds it by handing each
    sampler one sub-block) and is taken from the :class:`rng.Workspace`
    ``ws``, which has it back on return.
    """
    if out is None:
        out = np.empty((count, k, k), dtype=np.complex128)
    elif out.shape != (count, k, k) or out.dtype != np.complex128:
        raise ValueError(f"out must be complex128 of shape {(count, k, k)}")
    npairs, width = 2 * ((k * k + 1) // 2), _ext_width(k)
    with ws:
        # the words go into the extended rows, widened to a block at k = 1: the
        # normals read them all before writing e, and the words past each
        # block's pairs (the ball's radius word) are copied out first.  Until
        # the gather, a contiguous out lends its memory to the other temporaries
        rows = ws.take((count, max(width, block)))
        e = rows[:, :width]
        tmp = rng.Workspace(out) if out.flags.c_contiguous else ws
        w = rows.reshape(-1).view(np.uint64)[: block * count]
        w = rng.words(seed, block * start, block * count, _out=w, _ws=tmp).reshape(count, block)
        rest = tmp.take((count, block - npairs), np.uint64)
        rest[...] = w[:, npairs:]
        rng.normals_from_words(w[:, :npairs], out=e[:, :npairs], _ws=tmp)
        finish(e, rest, tmp)
        _hermitian_into(e, k, out)
    return out


def gue_stack(
    k: int, count: int, variance: float, seed: int, start: int = 0, out=None, *, _ws=rng.FRESH
) -> np.ndarray:
    """(count, k, k) Hermitian GUE stack with E[tau(x^2)] = variance.

    In lambda coordinates the law is iid N(0, variance/k) on all k^2
    coordinates (diagonal entries N(0, v/k), off-diagonal real and
    imaginary parts N(0, v/2k)).  Sample ``index`` consumes the counter
    block ``[B*(start+index), B*(start+index+1))`` with block size
    B = 2*ceil(k^2/2), so disjoint index ranges are independent.  Each
    coordinate is normal * sqrt(variance/k), exactly the normal at variance
    k, and :func:`_hermitian_into` places it in :func:`to_coords`'s layout.
    Each sample reads only its own counter block and each element goes
    through the same operations in the same order, so neither a split of
    ``[start, start+count)`` nor filling ``out`` (a complex128 (count, k, k)
    array or strided view) can change a draw.  The private
    :class:`rng.Workspace` ``_ws`` lends the scratch.
    """
    if variance <= 0:
        raise ValueError("variance must be positive")
    kk = k * k
    scale = math.sqrt(variance / k)

    def finish(e, rest, ws):
        e[:, :kk] *= scale

    return _fill_stack(out, count, k, seed, start, 2 * ((kk + 1) // 2), finish, _ws)


def sample_gue(k: int, variance: float, seed: int) -> SelfAdjointMatrix:
    """Single GUE draw: the first of :func:`gue_stack`."""
    return SelfAdjointMatrix(gue_stack(k, 1, variance, seed)[0])


def ball_log_volume(k: int, radius: float) -> float:
    """log lambda-volume of the Hilbert-Schmidt ball Tr(x^2) <= k R^2.

    The HS ball of radius R*sqrt(k) is a Euclidean ball of that radius
    in the k^2 lambda coordinates: log V = (d/2) log pi - lgamma(d/2+1)
    + d log rho with d = k^2, rho = R sqrt(k).
    """
    d = k * k
    rho = radius * math.sqrt(k)
    return 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0) + d * math.log(rho)


def ball_stack(
    k: int, count: int, radius: float, seed: int, start: int = 0, out=None, *, _ws=rng.FRESH
) -> np.ndarray:
    """(count, k, k) stack uniform in the HS ball of radius R*sqrt(k).

    Gaussian direction times U^(1/d) radius in lambda coordinates.
    Sample ``index`` uses counter block size B = 2*ceil(k^2/2) + 2; the
    word at offset B-2 feeds the radius uniform (B-1 is spare).  Each
    coordinate is g * (rho * u^(1/d) / |g|), then placed as in
    :func:`_hermitian_into` as for :func:`gue_stack`; a split of the counter
    range, filling ``out`` or a workspace ``_ws`` cannot change a draw.
    """
    d = k * k
    npairs = 2 * ((d + 1) // 2)
    rho = radius * math.sqrt(k)

    def finish(e, rest, ws):
        g = e[:, :d]
        u = rng.uniforms_from_words(rest[:, 0])
        with ws:  # |g| as np.linalg.norm forms it: sqrt of the row sums of g*g
            r = np.sqrt(np.add.reduce(np.multiply(g, g, out=ws.take(g.shape)), axis=1))
        r[r == 0.0] = 1.0  # measure-zero guard
        g *= (rho * u ** (1.0 / d) / r)[:, None]

    return _fill_stack(out, count, k, seed, start, npairs + 2, finish, _ws)
