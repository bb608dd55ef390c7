"""Non-commutative polynomial calculus with operator coefficients.

Polynomials in indeterminates t1..tn carry coefficients from a fixed
algebra: plain scalars, or a concrete matrix model given by named
generator matrices of a common dimension.  A term is a word

    b0 t_{i1} b1 ... t_{ik} bk

kept in canonical normal form: scalar factors are folded into one
complex number per term, named coefficients stay symbolic as ordered
products, and the adjoint of a Hermitian generator folds back to the
generator.  Equality of normal forms is exact and decidable.

Difference quotients split each word at every occurrence of the marked
indeterminate and land in the tensor square; an evaluated tensor leg
(a, b) acts on a matrix z as a @ z @ b.  Jacobians collect the split
derivatives of a polynomial map; flattened over the orthonormal
Hermitian coordinates of matcore they become real matrices, from which
the log-determinant functional is read off.  Power series appear only
as truncations together with a majorant growth certificate.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import matcore

Slot = Tuple[Tuple[str, bool], ...]  # ordered product of (name, star)
TermKey = Tuple[Tuple[int, ...], Tuple[Slot, ...]]
PairKey = Tuple[TermKey, TermKey]

_SINGULAR_FLOOR = 1e-12
_HERM_TOL = 1e-12
_CHUNK_ENTRIES = 1 << 16  # basis-matrix entries per chunk of as_real_matrix
_INDET_RE = re.compile(r"^t(\d+)$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*\*?$")


class CoefficientAlgebra:
    """Coefficient domain: named generator matrices; with no generators,
    the scalars."""

    def __init__(self, gens: Optional[Dict[str, np.ndarray]] = None):
        self.gens: Dict[str, np.ndarray] = {}
        self._sa: Dict[str, bool] = {}
        dim = None
        for name, value in (gens or {}).items():
            if _INDET_RE.match(name) or not _NAME_RE.match(name) or name.endswith("*"):
                raise ValueError(f"generator name {name!r} collides with the term grammar")
            a = np.asarray(value, dtype=np.complex128)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(f"generator {name!r} is not square")
            if not np.isfinite(a).all():
                raise ValueError(f"generator {name!r} has non-finite entries")
            if dim is None:
                dim = a.shape[0]
            elif a.shape[0] != dim:
                raise ValueError("generators must share one dimension")
            self.gens[name] = a
            self._sa[name] = bool(np.max(np.abs(a - a.conj().T)) == 0.0)
        self.dim = dim or 0
        self._norms: Dict[str, float] = {}

    @classmethod
    def scalars(cls) -> "CoefficientAlgebra":
        return cls(None)

    @classmethod
    def matrix_model(cls, gens: Dict[str, np.ndarray]) -> "CoefficientAlgebra":
        return cls(dict(gens))

    def is_selfadjoint(self, name: str) -> bool:
        return self._sa[name]

    def norm(self, name: str) -> float:
        if name not in self._norms:
            b = self.gens[name]
            gram = matcore.SelfAdjointMatrix.hermitian_part(b.conj().T @ b)
            ev = matcore.eigenvalues(gram)
            self._norms[name] = math.sqrt(max(float(ev[-1]), 0.0))
        return self._norms[name]

    def __eq__(self, other):
        if not isinstance(other, CoefficientAlgebra):
            return NotImplemented
        return self.gens.keys() == other.gens.keys() and all(
            np.array_equal(self.gens[k], other.gens[k]) for k in self.gens
        )

    def __repr__(self):
        if not self.gens:
            return "CoefficientAlgebra(scalars)"
        return f"CoefficientAlgebra({len(self.gens)} generators, dim={self.dim})"


def _join(a: CoefficientAlgebra, b: CoefficientAlgebra) -> CoefficientAlgebra:
    if a is b or a == b:
        return a
    if not a.gens:
        return b
    if not b.gens:
        return a
    raise ValueError("mismatched coefficient algebras")


def _norm_slot(slot: Slot, alg: CoefficientAlgebra) -> Slot:
    out = []
    for name, star in slot:
        if name not in alg.gens:
            raise ValueError(f"unknown coefficient {name!r}")
        out.append((name, star and not alg.is_selfadjoint(name)))
    return tuple(out)


def _adj_slot(slot: Slot, alg: CoefficientAlgebra) -> Slot:
    return tuple(
        (name, (not star) and not alg.is_selfadjoint(name))
        for name, star in reversed(slot)
    )


def _norm_term(key: TermKey, n: int, alg: CoefficientAlgebra) -> TermKey:
    word, coefs = key
    word = tuple(int(i) for i in word)
    if any(i < 1 or i > n for i in word):
        raise ValueError(f"indeterminate index out of range in word {word}")
    coefs = tuple(_norm_slot(s, alg) for s in coefs)
    if len(coefs) != len(word) + 1:
        raise ValueError("term needs one coefficient slot per gap")
    return (word, coefs)


def _key_mul(a: TermKey, b: TermKey) -> TermKey:
    """Product of two terms: the words concatenate, the two slots that meet merge."""
    (w1, c1), (w2, c2) = a, b
    return (w1 + w2, c1[:-1] + (c1[-1] + c2[0],) + c2[1:])


def _term_sort_key(key: TermKey):
    word, coefs = key
    return (len(word), word, coefs)


def _mul_terms(a: "_TermSum", b: "_TermSum", key_mul) -> dict:
    terms = {}
    for k1, s1 in a.terms.items():
        for k2, s2 in b.terms.items():
            key = key_mul(k1, k2)
            terms[key] = terms.get(key, 0.0) + s1 * s2
    return terms


class _TermSum:
    """Finite sum of keyed terms with complex scalars: the ring behind
    NcPoly (a key is a term) and NcBiPoly (a key is a pair of terms).

    A subclass says how a key is normalised (``_norm_key``), how two keys
    multiply (``_mul_key``), how keys sort (``_sort_key``) and which key
    is the unit (``_UNIT``).
    """

    __slots__ = ("n", "algebra", "terms")

    def __init__(self, n, terms, algebra=None):
        self.n = int(n)
        self.algebra = algebra if algebra is not None else CoefficientAlgebra.scalars()
        clean = {}
        for key, scalar in terms.items():
            z = complex(scalar)
            if z == 0:
                continue
            key = self._norm_key(key)
            clean[key] = clean.get(key, 0.0) + z
        self.terms = {k: v for k, v in clean.items() if v != 0}

    def _new(self, terms, algebra, *factors):
        """A result of the same class and arity; factors are the operands."""
        return type(self)(self.n, terms, algebra)

    @classmethod
    def zero(cls, n, algebra=None):
        return cls(n, {}, algebra)

    def _coerce(self, other):
        if np.isscalar(other):
            return type(self)(self.n, {self._UNIT: complex(other)}, self.algebra)
        if not isinstance(other, type(self)):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.n != self.n:
            raise ValueError("arity mismatch")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        alg = _join(self.algebra, other.algebra)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0.0) + v
        return self._new(terms, alg, self, other)

    def __sub__(self, other):
        return self + (self._coerce(other) * -1.0)

    def __mul__(self, other):
        if np.isscalar(other):
            z = complex(other)
            return self._new({k: v * z for k, v in self.terms.items()}, self.algebra, self)
        other = self._coerce(other)
        alg = _join(self.algebra, other.algebra)
        return self._new(_mul_terms(self, other, self._mul_key), alg, self, other)

    def __rmul__(self, other):
        if np.isscalar(other):
            return self * other
        return NotImplemented

    def __neg__(self):
        return self * -1.0

    def equals(self, other, tol: float = 0.0) -> bool:
        if self.n != other.n:
            return False
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= tol for k in keys
        )

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0]))


class NcPoly(_TermSum):
    """Element of the coefficient algebra's polynomial ring in t1..tn."""

    __slots__ = ("truncated",)
    _UNIT: TermKey = ((), ((),))
    _sort_key = staticmethod(_term_sort_key)
    _mul_key = staticmethod(_key_mul)

    def __init__(self, n, terms, algebra=None, truncated=False):
        super().__init__(n, terms, algebra)
        self.truncated = bool(truncated)

    def _norm_key(self, key: TermKey) -> TermKey:
        return _norm_term(key, self.n, self.algebra)

    def _new(self, terms, algebra, *factors):
        return NcPoly(self.n, terms, algebra, any(f.truncated for f in factors))

    # construction helpers ------------------------------------------------

    @classmethod
    def one(cls, n, algebra=None):
        return cls(n, {cls._UNIT: 1.0}, algebra)

    @classmethod
    def scalar(cls, n, value, algebra=None):
        return cls(n, {cls._UNIT: value}, algebra)

    @classmethod
    def indet(cls, n, i, algebra=None):
        return cls(n, {((i,), ((), ())): 1.0}, algebra)

    @classmethod
    def coefficient(cls, n, name, algebra, star=False):
        return cls(n, {((), (((name, star),),)): 1.0}, algebra)

    # structure -----------------------------------------------------------

    def adjoint(self) -> "NcPoly":
        terms = {}
        for (word, coefs), s in self.terms.items():
            aw = tuple(reversed(word))
            ac = tuple(_adj_slot(c, self.algebra) for c in reversed(coefs))
            terms[(aw, ac)] = terms.get((aw, ac), 0.0) + s.conjugate()
        return NcPoly(self.n, terms, self.algebra, self.truncated)

    def is_selfadjoint(self) -> bool:
        return self.equals(self.adjoint())

    def __repr__(self):
        return f"NcPoly({poly_text(self)!r})"


class NcBiPoly(_TermSum):
    """Element of the tensor square; legs act on z as (a, b): z -> a z b."""

    __slots__ = ()
    _UNIT: PairKey = (NcPoly._UNIT, NcPoly._UNIT)

    def _norm_key(self, key: PairKey) -> PairKey:
        return (_norm_term(key[0], self.n, self.algebra), _norm_term(key[1], self.n, self.algebra))

    @staticmethod
    def _mul_key(a: PairKey, b: PairKey) -> PairKey:
        # (a (x) b)(c (x) d) = ac (x) bd, leg by leg
        return (_key_mul(a[0], b[0]), _key_mul(a[1], b[1]))

    @staticmethod
    def _sort_key(key: PairKey):
        return (_term_sort_key(key[0]), _term_sort_key(key[1]))

    @classmethod
    def tensor(cls, left: NcPoly, right: NcPoly) -> "NcBiPoly":
        alg = _join(left.algebra, right.algebra)
        if left.n != right.n:
            raise ValueError("arity mismatch")
        return cls(left.n, _mul_terms(left, right, lambda a, b: (a, b)), alg)

    def evaluate_pairs(self, t: matcore.MatrixTuple):
        """Evaluated tensor legs [(a, b), ...] with scalars folded into a."""
        ev = _Evaluator(self.algebra, t)
        return [(ev.word(lkey) * s, ev.word(rkey)) for (lkey, rkey), s in self.sorted_terms()]

    def apply(self, t: matcore.MatrixTuple, z: np.ndarray) -> np.ndarray:
        out = np.zeros((t.dim, t.dim), dtype=np.complex128)
        return _apply_pairs(self.evaluate_pairs(t), z, out)

    def __repr__(self):
        return f"NcBiPoly({bipoly_text(self)!r})"


# evaluation ---------------------------------------------------------------


class _Evaluator:
    """Words of a tuple in dimension k; a matrix coefficient g of
    dimension d acts on it as g (x) 1_{k/d}."""

    def __init__(self, alg: CoefficientAlgebra, t: matcore.MatrixTuple):
        self.alg = alg
        self.t = t
        self.k = t.dim
        self.eye = np.eye(self.k, dtype=np.complex128)
        self.gens = {}
        if alg.gens:
            d = alg.dim
            if self.k % d != 0:
                raise ValueError(
                    f"dimension mismatch: coefficients live in dim {d}, tuple in dim {self.k}"
                )
            rep = np.eye(self.k // d)
            self.gens = {name: np.kron(g, rep) for name, g in alg.gens.items()}

    def slot(self, slot: Slot) -> np.ndarray:
        m = self.eye
        for name, star in slot:
            g = self.gens[name]
            m = m @ (g.conj().T if star else g)
        return m

    def word(self, key: TermKey) -> np.ndarray:
        word, coefs = key
        m = self.slot(coefs[0])
        for j, letter in enumerate(word):
            m = m @ self.t.mats[letter - 1].array @ self.slot(coefs[j + 1])
        return m


def evaluate(f: NcPoly, t: matcore.MatrixTuple):
    """Value of f at the tuple.

    A self-adjoint polynomial returns a SelfAdjointMatrix (after checking
    Hermiticity to 1e-12); anything else returns a plain array.
    """
    if f.n != t.n:
        raise ValueError(f"polynomial arity {f.n} vs tuple arity {t.n}")
    ev = _Evaluator(f.algebra, t)
    out = np.zeros((t.dim, t.dim), dtype=np.complex128)
    for key, s in f.terms.items():
        out += s * ev.word(key)
    if f.is_selfadjoint():
        scale = max(1.0, float(np.max(np.abs(out))))
        gap = float(np.max(np.abs(out - out.conj().T)))
        if gap > _HERM_TOL * scale:
            raise AssertionError(f"self-adjoint polynomial broke Hermiticity: gap {gap}")
        return matcore.SelfAdjointMatrix.hermitian_part(out)
    return out


def dquotient(f: NcPoly, i: int) -> NcBiPoly:
    """Difference quotient in slot i: split each word at each t_i."""
    if not 1 <= i <= f.n:
        raise ValueError(f"index {i} out of 1..{f.n}")
    terms: Dict[PairKey, complex] = {}
    for (word, coefs), s in f.terms.items():
        for j, letter in enumerate(word):
            if letter != i:
                continue
            lkey = (word[:j], coefs[: j + 1])
            rkey = (word[j + 1 :], coefs[j + 1 :])
            key = (lkey, rkey)
            terms[key] = terms.get(key, 0.0) + s
    return NcBiPoly(f.n, terms, f.algebra)


def compose(f: NcPoly, gs: Sequence[NcPoly]) -> NcPoly:
    """Substitution f(g_1, ..., g_n): the grade-0 case of _compose_graded."""
    if len(gs) != f.n:
        raise ValueError("need one substituted polynomial per indeterminate")
    alg = f.algebra
    for g in gs:
        alg = _join(alg, g.algebra)
    return _compose_graded(f, [[g] for g in gs], 0, alg)[0]


def _apply_pairs(pairs, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Accumulate sum a @ z @ b over evaluated tensor legs into out."""
    for a, b in pairs:
        out += a @ z @ b
    return out


class NcJacobian:
    """Evaluated derivative grid of a polynomial map.

    entry (i, j) holds the slot-i difference quotient of the j-th
    component; applied to a direction tuple h it returns the directional
    derivative tuple  (sum_i entry(i, j) # h_i)_j.
    """

    def __init__(self, entries, t: matcore.MatrixTuple):
        self.n = len(entries)
        self.entries = entries
        self.t = t
        self.k = t.dim
        self._pairs = [
            [entries[i][j].evaluate_pairs(t) for j in range(self.n)]
            for i in range(self.n)
        ]

    def apply(self, hs: Sequence[np.ndarray]) -> List[np.ndarray]:
        if len(hs) != self.n:
            raise ValueError("direction tuple has wrong arity")
        out = []
        for j in range(self.n):
            acc = np.zeros((self.k, self.k), dtype=np.complex128)
            for i in range(self.n):
                _apply_pairs(self._pairs[i][j], hs[i], acc)
            out.append(acc)
        return out

    def as_real_matrix(self) -> np.ndarray:
        """Real matrix over the orthonormal Hermitian coordinates.

        Column c of block (j, i) holds the coordinates of the Hermitian
        part of entry (i, j) applied to the c-th basis element e.  The
        basis is built and applied a chunk of about 2^16 matrix entries
        at a time (64 elements at k = 32).  Each a @ e @ b is one BLAS
        product per matrix whatever the chunk, so the chunking cannot
        change a value.
        """
        k = self.k
        d = k * k
        step = max(1, _CHUNK_ENTRIES // d)
        big = np.zeros((self.n * d, self.n * d))
        for c0 in range(0, d, step):
            c1 = min(c0 + step, d)
            basis = matcore.sa_basis(k, c0, c1)
            for i in range(self.n):
                for j in range(self.n):
                    img = np.zeros((c1 - c0, k, k), dtype=np.complex128)
                    for a, b in self._pairs[i][j]:
                        img += a @ basis @ b
                    img = 0.5 * (img + np.conj(np.swapaxes(img, -1, -2)))
                    cols = slice(i * d + c0, i * d + c1)
                    big[j * d : (j + 1) * d, cols] = matcore.to_coords(img).T
        return big


def jacobian(fs: Sequence[NcPoly], t: matcore.MatrixTuple) -> NcJacobian:
    n = len(fs)
    for f in fs:
        if f.n != n:
            raise ValueError("component arity must match the number of components")
        if f.n != t.n:
            raise ValueError("polynomial arity vs tuple arity mismatch")
    entries = [[dquotient(fs[j], i + 1) for j in range(n)] for i in range(n)]
    return NcJacobian(entries, t)


def logabs_functional(jac: NcJacobian) -> float:
    """(1/k^2) log|det| of the real Jacobian; -inf below the singular floor."""
    r = jac.as_real_matrix()
    sigma = np.linalg.svd(r, compute_uv=False)
    if sigma.size == 0 or float(sigma[-1]) < _SINGULAR_FLOOR:
        return float("-inf")
    return float(np.sum(np.log(sigma)) / (jac.k**2))


# majorants ----------------------------------------------------------------


def _majorant_levels(f: NcPoly, radii: Sequence[float]) -> Dict[int, float]:
    """Commutative majorant per degree: coefficients to norm products, t_i to radii."""
    levels: Dict[int, float] = {}
    for (word, coefs), s in f.terms.items():
        v = abs(s)
        for slot in coefs:
            for name, _ in slot:
                v *= f.algebra.norm(name)
        for letter in word:
            v *= radii[letter - 1]
        levels[len(word)] = levels.get(len(word), 0.0) + v
    return levels


def _still_shrinks(levels: Dict[int, float]) -> bool:
    """The last two nonzero levels shrink: their per-step ratio is below 1."""
    nz = sorted(d for d, v in levels.items() if v > 0)
    if len(nz) < 2:
        return True
    a, b = nz[-2], nz[-1]
    return (levels[b] / levels[a]) ** (1.0 / (b - a)) < 1.0


def majorant_value(f: NcPoly, radii: Sequence[float]) -> float:
    """Commutative majorant: coefficients to norm products, t_i to radii."""
    if len(radii) != f.n:
        raise ValueError("need one radius per indeterminate")
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    return sum(_majorant_levels(f, radii).values())


def majorant_radius(f: NcPoly, radii: Sequence[float]) -> bool:
    """Convergence certificate at the given multiradius.

    Polynomials always pass.  A truncated series passes when the last two
    nonzero majorant degree levels still shrink (ratio < 1).
    """
    if len(radii) != f.n:
        raise ValueError("need one radius per indeterminate")
    return not f.truncated or _still_shrinks(_majorant_levels(f, radii))


# perturbative inversion ----------------------------------------------------


def _graded_mul(a, b, order, n, alg):
    out = [NcPoly.zero(n, alg) for _ in range(order + 1)]
    for p, ap in enumerate(a):
        if not ap.terms:
            continue
        for q, bq in enumerate(b):
            if p + q > order:
                break
            if not bq.terms:
                continue
            out[p + q] = out[p + q] + ap * bq
    return out


def _compose_graded(f: NcPoly, gs, order, alg):
    """Substitute graded tuples into f, keeping grades <= order."""
    n = gs[0][0].n if gs else f.n
    out = [NcPoly.zero(n, alg) for _ in range(order + 1)]
    for (word, coefs), s in f.terms.items():
        acc = [NcPoly(n, {((), (coefs[0],)): s}, alg)] + [
            NcPoly.zero(n, alg) for _ in range(order)
        ]
        for j, letter in enumerate(word):
            acc = _graded_mul(acc, gs[letter - 1], order, n, alg)
            slot_poly = [NcPoly(n, {((), (coefs[j + 1],)): 1.0}, alg)] + [
                NcPoly.zero(n, alg) for _ in range(order)
            ]
            acc = _graded_mul(acc, slot_poly, order, n, alg)
        for m in range(order + 1):
            out[m] = out[m] + acc[m]
    return out


def perturbation_inverse(
    ps: Sequence[NcPoly], eps: float, order: int
) -> List[NcPoly]:
    """Inverse of t_i + eps p_i(t), truncated at the given order in eps.

    Fixed-point iteration g = t - eps p(g) on graded components; the
    returned polynomials fold eps back into the scalars.  Raises when the
    majorant of the graded tail stops shrinking at unit radius.
    """
    n = len(ps)
    if order < 0:
        raise ValueError("order must be >= 0")
    alg = ps[0].algebra if ps else CoefficientAlgebra.scalars()
    for p in ps:
        if p.n != n:
            raise ValueError("component arity must equal the number of components")
        alg = _join(alg, p.algebra)
    gs = [
        [NcPoly.indet(n, i + 1, alg)] + [NcPoly.zero(n, alg) for _ in range(order)]
        for i in range(n)
    ]
    for _ in range(order):
        new = []
        for i in range(n):
            comp = _compose_graded(ps[i], gs, order - 1, alg)
            gi = [NcPoly.indet(n, i + 1, alg)] + [comp[m] * -1.0 for m in range(order)]
            new.append(gi)
        gs = new
    out = []
    ones = (1.0,) * n
    for i in range(n):
        levels = {m: eps**m * majorant_value(gs[i][m], ones) for m in range(order + 1)}
        if not _still_shrinks(levels):
            raise ValueError(f"majorant divergence: eps={eps} too large for component {i + 1}")
        total = NcPoly.zero(n, alg)
        for m in range(order + 1):
            total = total + gs[i][m] * (eps**m)
        total.truncated = True
        out.append(total)
    return out


# text form ------------------------------------------------------------------


def _fmt_scalar(z: complex) -> str:
    if z.imag == 0.0:
        r = z.real
        if r == int(r) and abs(r) < 1e15:
            return str(int(r))
        return repr(r)
    return repr(complex(z))


def _word_parts(key: TermKey) -> List[str]:
    word, coefs = key
    parts: List[str] = []
    for j, slot in enumerate(coefs):
        parts.extend(name + ("*" if star else "") for name, star in slot)
        if j < len(word):
            parts.append(f"t{word[j]}")
    return parts


def _signed_sum(f: _TermSum, key_parts) -> str:
    """Sorted terms joined as `a + b - c`; a real negative scalar shows as `-`."""
    chunks = []
    for idx, (key, s) in enumerate(f.sorted_terms()):
        neg = s.imag == 0.0 and s.real < 0
        z = -s if neg else s
        body = " ".join(([] if z == 1 else [_fmt_scalar(z)]) + key_parts(key)) or "1"
        chunks.append(("- " if neg else "+ " if idx else "") + body)
    return " ".join(chunks) or "0"


def poly_text(f: NcPoly) -> str:
    return _signed_sum(f, _word_parts)


def bipoly_text(f: NcBiPoly) -> str:
    """Tensor terms as `left (x) right`, ordered by split position."""

    def leg(key: TermKey) -> str:
        return " ".join(_word_parts(key)) or "1"

    return _signed_sum(f, lambda pair: [leg(pair[0]), "(x)", leg(pair[1])])


_NUM_RE = re.compile(r"^[0-9]+(\.[0-9]*)?([eE][+-]?[0-9]+)?$|^\.[0-9]+$")


class PolyParseError(ValueError):
    pass


def parse_poly(text: str, n: int, algebra: Optional[CoefficientAlgebra] = None) -> NcPoly:
    """Parse the term grammar: whitespace-separated tokens per term.

    Tokens: `tK` (indeterminate, 1-based), decimal literals (scalars),
    coefficient names from the algebra (optional trailing `*` for the
    adjoint), with `+` or `-` between terms.
    """
    alg = algebra if algebra is not None else CoefficientAlgebra.scalars()
    tokens = text.split()
    if not tokens:
        raise PolyParseError("empty polynomial text")
    out = NcPoly.zero(n, alg)
    sign = 1.0
    cur_scalar: complex = 1.0
    cur_word: List[int] = []
    cur_coefs: List[List[Tuple[str, bool]]] = [[]]
    saw_any = False

    def flush(pos):
        nonlocal out, sign, cur_scalar, cur_word, cur_coefs, saw_any
        if not saw_any:
            raise PolyParseError(f"token {pos}: empty term")
        key = (tuple(cur_word), tuple(tuple(s) for s in cur_coefs))
        out = out + NcPoly(n, {key: sign * cur_scalar}, alg)
        sign, cur_scalar, cur_word, cur_coefs, saw_any = 1.0, 1.0, [], [[]], False

    for pos, tok in enumerate(tokens, start=1):
        if tok in ("+", "-"):
            if not saw_any:
                if tok == "-" and pos == 1:
                    sign = -sign
                    continue
                raise PolyParseError(f"token {pos}: dangling {tok!r}")
            flush(pos)
            if tok == "-":
                sign = -1.0
            continue
        m = _INDET_RE.match(tok)
        if m:
            i = int(m.group(1))
            if not 1 <= i <= n:
                raise PolyParseError(f"token {pos}: t{i} out of range 1..{n}")
            cur_word.append(i)
            cur_coefs.append([])
            saw_any = True
            continue
        if _NUM_RE.match(tok):
            cur_scalar *= float(tok)
            saw_any = True
            continue
        star = tok.endswith("*")
        name = tok[:-1] if star else tok
        if name in alg.gens:
            cur_coefs[-1].append((name, star))
            saw_any = True
            continue
        raise PolyParseError(f"token {pos}: unknown token {tok!r}")
    flush(len(tokens))
    return out
