"""Self-adjoint matrix tuples, word traces, eigenvalues, and samplers.

Volume element convention used throughout the package: on the real
vector space of k x k Hermitian matrices we use the inner product
<a, b> = Tr(ab) with the NON-normalized trace.  An orthonormal
coordinate system is

    x_ii                      (k diagonal entries),
    sqrt(2) * Re x_ij         (i < j),
    sqrt(2) * Im x_ij         (i < j),

k^2 real coordinates in total, and "lambda" always means Lebesgue
measure in these coordinates.  Tuples carry the product measure.
"""

import math
from functools import lru_cache

import numpy as np

from . import rng

_HERM_TOL = 0.0  # Hermiticity is exact by construction, not approximate
_CERT_MARGIN = 1e-9  # relative; well above the rounding error in forming ||x^2||_F


class SamplingStallError(RuntimeError):
    """Rejection sampler acceptance collapsed; use the Gaussian estimator."""


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
        return cls((raw + raw.conj().T) / 2.0)

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def shifted(self, c: float) -> "SelfAdjointMatrix":
        """m + c * identity."""
        return SelfAdjointMatrix(self.array + c * np.eye(self.dim))

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

    @classmethod
    def from_arrays(cls, arrays) -> "MatrixTuple":
        return cls([SelfAdjointMatrix(a) for a in arrays])

    @property
    def n(self) -> int:
        return len(self.mats)

    @property
    def dim(self) -> int:
        return self.mats[0].dim

    def stack(self) -> np.ndarray:
        """(n, k, k) array view of the tuple."""
        return np.stack([m.array for m in self.mats])

    def concat(self, other: "MatrixTuple") -> "MatrixTuple":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in tuple concatenation")
        return MatrixTuple(self.mats + other.mats)

    def __iter__(self):
        return iter(self.mats)

    def __repr__(self):
        return f"MatrixTuple(n={self.n}, dim={self.dim})"


def normalized_trace(m: SelfAdjointMatrix) -> float:
    """tau(m) = Tr(m)/k.  The imaginary part must vanish to 1e-14."""
    t = np.trace(m.array) / m.dim
    if abs(t.imag) > 1e-14 * max(1.0, abs(t.real)):
        raise ValueError(f"trace has non-real part {t.imag:g}")
    return float(t.real)


def eval_word_trace(t: MatrixTuple, word) -> float:
    """tau of the product x_{i_1} ... x_{i_p}; indices are 1-based.

    The empty word is the unit: tau(1) = 1.
    """
    word = tuple(word)
    if not word:
        return 1.0
    for i in word:
        if not 1 <= i <= t.n:
            raise IndexError(f"variable index {i} outside 1..{t.n}")
    acc = t.mats[word[0] - 1].array
    for i in word[1:]:
        acc = acc @ t.mats[i - 1].array
    tr = np.trace(acc) / t.dim
    return float(tr.real)


@lru_cache(maxsize=64)
def sa_basis(k: int) -> np.ndarray:
    """(k^2, k, k) orthonormal Hermitian basis for <a,b> = Tr(ab).

    Order: diagonal units E_ii (i ascending), then for each i < j the
    pair (E_ij + E_ji)/sqrt(2), (iE_ij - iE_ji)/sqrt(2), row-major in
    (i, j).  Coordinates in this basis are exactly the lambda
    coordinates of the module docstring.
    """
    basis = np.zeros((k * k, k, k), dtype=np.complex128)
    pos = 0
    for i in range(k):
        basis[pos, i, i] = 1.0
        pos += 1
    inv = 1.0 / math.sqrt(2.0)
    for i in range(k):
        for j in range(i + 1, k):
            basis[pos, i, j] = inv
            basis[pos, j, i] = inv
            pos += 1
            basis[pos, i, j] = 1j * inv
            basis[pos, j, i] = -1j * inv
            pos += 1
    basis.setflags(write=False)
    return basis


_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2


def to_coords(h: np.ndarray) -> np.ndarray:
    """Lambda coordinates of a Hermitian matrix (or (..., k, k) stack).

    Layout matches :func:`sa_basis`: k diagonal entries, then
    (sqrt(2) Re x_ij, sqrt(2) Im x_ij) for i < j in row-major order.
    """
    h = np.asarray(h)
    k = h.shape[-1]
    lead = h.shape[:-2]
    iu, ju = np.triu_indices(k, 1)
    out = np.empty(lead + (k * k,))
    out[..., :k] = np.einsum("...ii->...i", h).real
    off = h[..., iu, ju]
    out[..., k::2] = _SQRT2 * off.real
    out[..., k + 1 :: 2] = _SQRT2 * off.imag
    return out


def from_coords(c: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`to_coords`; returns (..., k, k) exactly Hermitian."""
    c = np.asarray(c, dtype=np.float64)
    lead = c.shape[:-1]
    iu, ju = np.triu_indices(k, 1)
    out = np.zeros(lead + (k, k), dtype=np.complex128)
    vals = (c[..., k::2] + 1j * c[..., k + 1 :: 2]) * _INV_SQRT2
    out[..., iu, ju] = vals
    out[..., ju, iu] = np.conj(vals)
    out[..., np.arange(k), np.arange(k)] = c[..., :k]
    return out


# ---------------------------------------------------------------------------
# Eigenvalues and operator-norm tests


def eigenvalues(m: SelfAdjointMatrix) -> np.ndarray:
    """Ascending eigenvalues (LAPACK Hermitian eigen-solve)."""
    return np.linalg.eigvalsh(m.array)


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """max |eigenvalue| for each matrix in a (m, k, k) Hermitian stack."""
    ev = np.linalg.eigvalsh(stack)
    return np.maximum(np.abs(ev[:, 0]), np.abs(ev[:, -1]))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (m, k, k) stack, with no complex temporary."""
    re = np.ascontiguousarray(stack, dtype=np.complex128).view(np.float64)
    return np.sqrt(np.einsum("mij,mij->m", re, re))


def norms_leq(stack: np.ndarray, radius: float, sq_frob=None) -> np.ndarray:
    """Boolean mask: operator norm <= radius, per stack entry.

    Three tests in order, each taking only what the previous left open:
    the Frobenius bound ||x||_op <= ||x||_F; the x^4 certificate
    ||x||_op <= (Tr x^4)^(1/4) = ||x^2||_F^(1/2), held to
    radius * (1 - _CERT_MARGIN) so that rounding in x^2 cannot certify a
    norm above the radius; and an eigen-solve of the band neither
    resolves.  ``sq_frob`` gives ||x^2||_F per entry when the caller
    already holds the squares; otherwise the band's squares are formed here.
    """
    out = frobenius_norms(stack) <= radius
    band = np.flatnonzero(~out)
    if band.size:
        if sq_frob is None:
            sub = stack[band]
            sq = frobenius_norms(sub @ sub)
        else:
            sq = sq_frob[band]
        cert = sq <= (radius * (1.0 - _CERT_MARGIN)) ** 2
        out[band[cert]] = True
        rest = band[~cert]
        if rest.size:
            out[rest] = operator_norms(stack[rest]) <= radius
    return out


# ---------------------------------------------------------------------------
# Samplers


def gue_stack(k: int, count: int, variance: float, seed: int, start: int = 0) -> np.ndarray:
    """(count, k, k) Hermitian GUE stack with E[tau(x^2)] = variance.

    In lambda coordinates the law is iid N(0, variance/k) on all k^2
    coordinates (diagonal entries N(0, v/k), off-diagonal real and
    imaginary parts N(0, v/2k)).  Sample ``index`` consumes the counter
    block ``[B*(start+index), B*(start+index+1))`` with block size
    B = 2*ceil(k^2/2), so disjoint index ranges are independent.
    """
    if variance <= 0:
        raise ValueError("variance must be positive")
    block = 2 * ((k * k + 1) // 2)
    # one contiguous counter range; per-sample blocks are aligned inside it
    flat = rng.normals(seed, block * start, block * count).reshape(count, block)
    coords = flat[:, : k * k]
    coords *= math.sqrt(variance / k)
    return from_coords(coords, k)


def sample_gue(k: int, variance: float, seed: int, index: int = 0) -> SelfAdjointMatrix:
    """Single GUE draw; ``index`` selects the counter block."""
    return SelfAdjointMatrix(gue_stack(k, 1, variance, seed, start=index)[0])


def ball_log_volume(k: int, radius: float) -> float:
    """log lambda-volume of the Hilbert-Schmidt ball Tr(x^2) <= k R^2.

    The HS ball of radius R*sqrt(k) is a Euclidean ball of that radius
    in the k^2 lambda coordinates: log V = (d/2) log pi - lgamma(d/2+1)
    + d log rho with d = k^2, rho = R sqrt(k).
    """
    d = k * k
    rho = radius * math.sqrt(k)
    return 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0) + d * math.log(rho)


def ball_stack(k: int, count: int, radius: float, seed: int, start: int = 0) -> np.ndarray:
    """(count, k, k) stack uniform in the HS ball of radius R*sqrt(k).

    Gaussian direction times U^(1/d) radius in lambda coordinates.
    Sample ``index`` uses counter block size B = 2*ceil(k^2/2) + 2; the
    word at offset B-2 feeds the radius uniform (B-1 is spare).
    """
    d = k * k
    npairs = 2 * ((d + 1) // 2)
    block = npairs + 2
    rho = radius * math.sqrt(k)
    w = rng.words(seed, block * start, block * count).reshape(count, block)
    g = rng.normals_from_words(w[:, :npairs])[:, :d]
    u = rng.uniforms_from_words(w[:, npairs])
    r = np.linalg.norm(g, axis=1)
    r[r == 0.0] = 1.0  # measure-zero guard
    coords = g * (rho * u ** (1.0 / d) / r)[:, None]
    return from_coords(coords, k)


def sample_ball(k: int, n: int, radius: float, seed: int) -> MatrixTuple:
    """Uniform draw from {(x_1..x_n): each ||x_i||_op <= radius} under lambda.

    Rejection from the per-coordinate HS ball (which contains the
    operator-norm ball since Tr(x^2) <= k ||x||_op^2).  Raises
    SamplingStallError when the empirical acceptance rate drops below
    1e-6 over a 10^6-proposal window; at that point the Gaussian
    importance estimator is the tool to use.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    out = []
    tries = 0
    accepts = 0
    for i in range(n):
        sub = rng.derive(seed, 0x5BA11, i)
        idx = 0
        while True:
            cand = ball_stack(k, 64, radius, sub, start=idx)
            idx += 64
            ok = norms_leq(cand, radius)
            tries += 64
            hit = np.flatnonzero(ok)
            if hit.size:
                accepts += 1
                out.append(SelfAdjointMatrix(cand[hit[0]]))
                break
            if tries >= 10**6 and accepts / tries < 1e-6:
                raise SamplingStallError(
                    f"acceptance below 1e-6 after {tries} proposals at k={k}; "
                    "rejection from the HS ball is hopeless here, use the "
                    "Gaussian importance estimator"
                )
    return MatrixTuple(out)
