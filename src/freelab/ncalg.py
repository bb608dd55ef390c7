"""Non-commutative polynomial calculus with operator coefficients.

Polynomials in indeterminates t1..tn carry coefficients from a fixed
algebra: plain scalars, or a concrete matrix model given by named
generator matrices of a common dimension.  A term is one flat word of
letters, such as  b0 t1 b1 t2 b*,  with the int i for t_i and the string
"b" or "b*" for a generator or its adjoint, times one complex scalar.
Named coefficients stay symbolic in their order, and the adjoint of a
Hermitian generator folds back to the generator, so equality of normal
forms is exact and decidable.

Difference quotients split each word at every occurrence of the marked
indeterminate and land in the tensor square, keyed by pairs of words; an
evaluated tensor leg (a, b) acts on a matrix z as a @ z @ b.  Jacobians
collect the split derivatives of a polynomial map; flattened over the
orthonormal Hermitian coordinates of matcore they become real matrices,
from which the log-determinant functional is read off.  Perturbative
inverses are truncations guarded by a majorant growth test.
"""

from __future__ import annotations

import cmath
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import matcore

Word = Tuple[Union[int, str], ...]  # t_i as the int i, a coefficient as "b" or "b*"
PairKey = Tuple[Word, Word]

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

    @classmethod
    def scalars(cls) -> "CoefficientAlgebra":
        return cls(None)

    @classmethod
    def matrix_model(cls, gens: Dict[str, np.ndarray]) -> "CoefficientAlgebra":
        return cls(dict(gens))

    def is_selfadjoint(self, name: str) -> bool:
        return self._sa[name]

    def norm(self, name: str) -> float:
        return float(np.linalg.norm(self.gens[name], 2))

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


def _norm_word(word: Word, n: int, alg: CoefficientAlgebra) -> Word:
    out = []
    for letter in word:
        if isinstance(letter, str):
            name = letter.removesuffix("*")
            if name not in alg.gens:
                raise ValueError(f"unknown coefficient {name!r}")
            out.append(name if alg.is_selfadjoint(name) else letter)
        else:
            i = int(letter)
            if not 1 <= i <= n:
                raise ValueError(f"indeterminate index out of range in word {tuple(word)}")
            out.append(i)
    return tuple(out)


def _term_sort_key(word: Word):
    """Indeterminate count, the indeterminates, then the coefficient runs
    between them ("b*" sorts right after "b": * precedes every name character)."""
    indets = tuple(x for x in word if isinstance(x, int))
    runs: List[tuple] = [()]
    for x in word:
        if isinstance(x, int):
            runs.append(())
        else:
            runs[-1] += (x,)
    return (len(indets), indets, tuple(runs))


def _mul_terms(a: "_TermSum", b: "_TermSum", key_mul) -> dict:
    terms = {}
    for k1, s1 in a.terms.items():
        for k2, s2 in b.terms.items():
            key = key_mul(k1, k2)
            terms[key] = terms.get(key, 0.0) + s1 * s2
    return terms


class _TermSum:
    """Finite sum of keyed terms with complex scalars: the ring behind
    NcPoly (a key is a word) and NcBiPoly (a key is a pair of words).

    A subclass says how a key is normalised (``_norm_key``), how two keys
    multiply (``_mul_key``), how keys sort (``_sort_key``) and which key
    is the unit (``_UNIT``).  Sums and products of normal forms, whose keys
    are normal already, skip the normalisation (``normal=True``).
    """

    __slots__ = ("n", "algebra", "terms")

    def __init__(self, n, terms, algebra=None, *, normal=False):
        self.n = int(n)
        self.algebra = algebra if algebra is not None else CoefficientAlgebra.scalars()
        clean = {}
        for key, scalar in terms.items():
            z = complex(scalar)
            if z == 0:
                continue
            key = key if normal else self._norm_key(key)
            clean[key] = clean.get(key, 0.0) + z
        self.terms = {k: v for k, v in clean.items() if v != 0}

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
        return type(self)(self.n, terms, alg, normal=True)

    def __sub__(self, other):
        return self + (self._coerce(other) * -1.0)

    def __mul__(self, other):
        other = self._coerce(other)  # a scalar z is z times the unit key
        alg = _join(self.algebra, other.algebra)
        return type(self)(self.n, _mul_terms(self, other, self._mul_key), alg, normal=True)

    def __rmul__(self, other):
        if np.isscalar(other):
            return self * other
        return NotImplemented

    def __neg__(self):
        return self * -1.0

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0]))


class NcPoly(_TermSum):
    """Element of the coefficient algebra's polynomial ring in t1..tn."""

    __slots__ = ()
    _UNIT: Word = ()
    _sort_key = staticmethod(_term_sort_key)

    @staticmethod
    def _mul_key(a: Word, b: Word) -> Word:
        return a + b

    def _norm_key(self, key: Word) -> Word:
        return _norm_word(key, self.n, self.algebra)

    # construction helpers ------------------------------------------------

    @classmethod
    def one(cls, n, algebra=None):
        return cls(n, {cls._UNIT: 1.0}, algebra)

    @classmethod
    def scalar(cls, n, value, algebra=None):
        return cls(n, {cls._UNIT: value}, algebra)

    @classmethod
    def indet(cls, n, i, algebra=None):
        return cls(n, {(i,): 1.0}, algebra)

    @classmethod
    def coefficient(cls, n, name, algebra, star=False):
        return cls(n, {(name + "*" * star,): 1.0}, algebra)

    # structure -----------------------------------------------------------

    def adjoint(self) -> "NcPoly":
        # a Hermitian generator's "h*" folds back to "h" in the constructor
        terms = {}
        for word, s in self.terms.items():
            aw = tuple(
                x if isinstance(x, int) else x[:-1] if x.endswith("*") else x + "*"
                for x in reversed(word)
            )
            terms[aw] = s.conjugate()
        return NcPoly(self.n, terms, self.algebra)

    def is_selfadjoint(self) -> bool:
        return self == self.adjoint()

    def __repr__(self):
        return f"NcPoly({poly_text(self)!r})"


class NcBiPoly(_TermSum):
    """Element of the tensor square; legs act on z as (a, b): z -> a z b."""

    __slots__ = ()
    _UNIT: PairKey = ((), ())

    def _norm_key(self, key: PairKey) -> PairKey:
        return (_norm_word(key[0], self.n, self.algebra), _norm_word(key[1], self.n, self.algebra))

    @staticmethod
    def _mul_key(a: PairKey, b: PairKey) -> PairKey:
        # (a (x) b)(c (x) d) = ac (x) bd, leg by leg
        return (a[0] + b[0], a[1] + b[1])

    @staticmethod
    def _sort_key(key: PairKey):
        return (_term_sort_key(key[0]), _term_sort_key(key[1]))

    @classmethod
    def tensor(cls, left: NcPoly, right: NcPoly) -> "NcBiPoly":
        alg = _join(left.algebra, right.algebra)
        if left.n != right.n:
            raise ValueError("arity mismatch")
        return cls(left.n, _mul_terms(left, right, lambda a, b: (a, b)), alg, normal=True)

    def evaluate_pairs(self, t: matcore.MatrixTuple):
        """Evaluated tensor legs [(a, b), ...] with scalars folded into a; terms
        share their right legs' products, which callers must not write to."""
        cache = _letter_values(self.algebra, t)
        return [
            (matcore._word_product(cache, lw) * s, matcore._word_product(cache, rw))
            for (lw, rw), s in self.sorted_terms()
        ]

    def __repr__(self):
        return f"NcBiPoly({bipoly_text(self)!r})"


# evaluation ---------------------------------------------------------------


def _letter_values(alg: CoefficientAlgebra, t: matcore.MatrixTuple) -> dict:
    """The product cache of matcore._word_product at the tuple, in dimension
    k: each letter as a word of length 1, and the empty word as 1_k.  A
    matrix coefficient g of dimension d acts as g (x) 1_{k/d}."""
    k = t.dim
    cache = {(): np.eye(k, dtype=np.complex128)}
    cache.update({(i + 1,): m.array for i, m in enumerate(t.mats)})
    if alg.gens:
        if k % alg.dim != 0:
            raise ValueError(
                f"dimension mismatch: coefficients live in dim {alg.dim}, tuple in dim {k}"
            )
        rep = np.eye(k // alg.dim)
        for name, g in alg.gens.items():
            cache[name,] = np.kron(g, rep)
            cache[name + "*",] = cache[name,].conj().T
    return cache


def evaluate(f: NcPoly, t: matcore.MatrixTuple):
    """Value of f at the tuple.

    A self-adjoint polynomial returns a SelfAdjointMatrix (after checking
    Hermiticity to 1e-12); anything else returns a plain array.
    """
    if f.n != t.n:
        raise ValueError(f"polynomial arity {f.n} vs tuple arity {t.n}")
    cache = _letter_values(f.algebra, t)
    out = np.zeros((t.dim, t.dim), dtype=np.complex128)
    for word, s in f.terms.items():
        out += s * matcore._word_product(cache, word)
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
    for word, s in f.terms.items():
        for j, letter in enumerate(word):
            if letter == i:
                key = (word[:j], word[j + 1 :])
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
                for a, b in self._pairs[i][j]:
                    acc += a @ hs[i] @ b
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
    if n != t.n:
        raise ValueError("polynomial arity vs tuple arity mismatch")
    for f in fs:
        if f.n != n:
            raise ValueError("component arity must match the number of components")
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
    """Commutative majorant per degree: coefficients to norms, t_i to radii."""
    levels: Dict[int, float] = {}
    for word, s in f.terms.items():
        v = abs(s)
        for x in word:
            v *= radii[x - 1] if isinstance(x, int) else f.algebra.norm(x.removesuffix("*"))
        degree = sum(isinstance(x, int) for x in word)
        levels[degree] = levels.get(degree, 0.0) + v
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
    for word, s in f.terms.items():
        acc = [NcPoly.scalar(n, s, alg)]
        for letter in word:  # a coefficient letter is a grade-0 factor
            g = gs[letter - 1] if isinstance(letter, int) else [NcPoly(n, {(letter,): 1.0}, alg)]
            acc = _graded_mul(acc, g, order, n, alg)
        for m, am in enumerate(acc):
            out[m] = out[m] + am
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


def _word_parts(word: Word) -> List[str]:
    return [f"t{x}" if isinstance(x, int) else x for x in word]


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

    def leg(word: Word) -> str:
        return " ".join(_word_parts(word)) or "1"

    return _signed_sum(f, lambda pair: [leg(pair[0]), "(x)", leg(pair[1])])


_NUM_RE = re.compile(r"^[0-9]+(\.[0-9]*)?([eE][+-]?[0-9]+)?$|^\.[0-9]+$")


class PolyParseError(ValueError):
    pass


def parse_poly(text: str, n: int, algebra: Optional[CoefficientAlgebra] = None) -> NcPoly:
    """Parse the term grammar: whitespace-separated tokens per term.

    Tokens: `tK` (indeterminate, 1-based), decimal literals (scalars),
    coefficient names from the algebra (optional trailing `*` for the
    adjoint), with `+` or `-` between terms.  A literal, a term's scalar
    product or the running sum that is not finite is a parse error.
    """
    alg = algebra if algebra is not None else CoefficientAlgebra.scalars()
    tokens = text.split()
    if not tokens:
        raise PolyParseError("empty polynomial text")
    out = NcPoly.zero(n, alg)
    sign = 1.0
    cur_scalar: complex = 1.0
    cur_word: list = []
    saw_any = False

    def flush(pos):
        nonlocal out, sign, cur_scalar, cur_word, saw_any
        if not saw_any:
            raise PolyParseError(f"token {pos}: empty term")
        out = out + NcPoly(n, {tuple(cur_word): sign * cur_scalar}, alg)
        if not all(cmath.isfinite(v) for v in out.terms.values()):
            raise PolyParseError(f"token {pos}: the sum is not finite")
        sign, cur_scalar, cur_word, saw_any = 1.0, 1.0, [], False

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
            saw_any = True
            continue
        if _NUM_RE.match(tok):
            cur_scalar *= float(tok)
            if not cmath.isfinite(cur_scalar):
                raise PolyParseError(f"token {pos}: scalar {tok!r} makes the term not finite")
            saw_any = True
            continue
        if tok.removesuffix("*") in alg.gens:
            cur_word.append(tok)
            saw_any = True
            continue
        raise PolyParseError(f"token {pos}: unknown token {tok!r}")
    flush(len(tokens))
    return out
