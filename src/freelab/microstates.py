"""Microstate sets and Monte Carlo volume estimation.

A tracial specification assigns target trace values to words in n
self-adjoint variables X and m reference variables Y.  A tuple of k x k
Hermitian matrices is a microstate when every matrix has operator norm
at most R and every word of length 1..l traces within eps of its
target.  The relative variant fixes a Y-tuple and measures the volume
of matching X-tuples; the per-k entropy value is

    (1/k^2) log lambda(Gamma) + (n/2) log k

with lambda the Lebesgue measure induced by the non-normalized trace
inner product (matcore's lambda coordinates), and the reported
extrapolation is max over k of (value - stderr).  ``estimate_chi`` is
the one sweep over k, with every setting in one checked ``Sweep``: at
each k the sup over a pool of fixed Y-candidates, where the plain
estimate (m = 0) is the pool of one empty candidate.  One membership
pass tests a block of rows, each word's trace and then each letter's
norm: an estimate passes the fixed Y tuple through it, as one row of Y
letters on the Y-only words, before any draw (the one step that also
keeps a Y candidate), then each block of samples on the words with an X
letter, starting from the Y tuple's products.

Targets come from an explicit table (tracial symmetry enforced: values
constant on cyclic rotations and reversals, words canonicalized by
minimal rotation) or from a generator that can emit targets to any
length: a free family of scalar laws (moments by the first-block cumulant
recursion) or an explicit matrix model, whose traces may be complex and are
conjugated for a word whose canonical form is a rotation of its reversal.

One estimator streams the log-weights of accepted draws from either of
two proposals: ball rejection (uniform in the Hilbert-Schmidt ball that
contains the set; every weight equal) and Gaussian importance sampling
with the reference density matched to the target second moments.  Zero
acceptances yield -inf with a recorded one-sided upper bound.  Sampling
is chunked over fixed index ranges of the counter-based generator and
reduced in chunk order, so results are bit-identical for any thread
count (0 means every core).  Each chunk streams through sub-blocks of
rows, each tested and weighed before the next in one workspace per worker,
kept across calls; a letter is drawn (one sampler pass) only for the rows
that passed the words of the letters before it.  The sub-blocks' size, 1 MiB
of matrices per thread at any k, is the estimator's alone and only bounds
memory, so it cannot change a result.  The filter's word traces are exact
only to rounding, but each row's traces, and so its verdict, are a function
of that row alone, so the draws, weights and log-volumes are bitwise too.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import matcore, rng, spectra

_CHUNK = 4096
# The estimator's sub-block, in matrix entries over a row's n letters (1 MiB
# complex); each sampler fills one per letter, and a worker's workspace keeps
# one with its scratch in 2 to 3 MiB at depth 4.  Measured as the smallest
# of 2^15..2^18 that slowed no benchmark command (see README).
_SUBBLOCK_ENTRIES = 2**16
_TARGET_TOL = 1e-12


def canonical_word(word) -> Tuple[int, ...]:
    """Minimal cyclic rotation over the word and its reversal."""
    w = tuple(int(i) for i in word)
    return min(_min_rotation(w), _min_rotation(w[::-1]))


def _min_rotation(w: Tuple[int, ...]) -> Tuple[int, ...]:
    """Minimal cyclic rotation of w alone."""
    return min((w[s:] + w[:s] for s in range(len(w))), default=w)


@functools.cache
def canonical_words(letters: int, length: int) -> Tuple[Tuple[int, ...], ...]:
    """The canonical words of one length in letters 1..letters, sorted, memoized."""
    words = {canonical_word(w) for w in product(range(1, letters + 1), repeat=length)}
    return tuple(sorted(words))


def _real_word(w: Tuple[int, ...]) -> bool:
    """Whether w's reversal is one of its rotations, so that tau(w) is real."""
    return _min_rotation(w[::-1]) == _min_rotation(w)


def _check_letters(word, letters: int) -> None:
    """IndexError unless every letter of ``word`` lies in 1..letters."""
    if word and not 1 <= min(word) <= max(word) <= letters:
        raise IndexError(f"word {list(word)} has a letter outside 1..{letters}")


# --- free-family moments ----------------------------------------------------


def _first_blocks(p, others, kappa, run):
    """Sum over the blocks B = {0} + a subset of ``others`` of a length-p word, of
    kappa[|B|] times run(a, b), the moment of positions a..b-1, per run B leaves."""
    total = 0.0
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            v = kappa[r + 1]
            bounds = (0,) + extra + (p,)
            for a, b in zip(bounds, bounds[1:]):
                if v == 0.0:
                    break
                v *= run(a + 1, b)
            total += v
    return total


class FreeModel:
    """Free family of scalar laws; letters may share a factor (aliasing).

    tau(w) sums over the blocks B that hold w's first letter and lie in its
    factor: kappa_|B| times the moments of the runs B leaves, memoized."""

    def __init__(self, factors: Sequence[spectra.SpectralMeasure], assign: Sequence[int]):
        self.factors = list(factors)
        self.assign = tuple(int(a) for a in assign)
        self.letters = len(self.assign)
        if not self.factors:
            raise ValueError("free model needs at least one factor")
        if any(a < 0 or a >= len(self.factors) for a in self.assign):
            raise ValueError("factor assignment out of range")
        self._laws: Dict[int, Tuple[List[float], List[float]]] = {}  # factor: (m, kappa)
        self._cache: Dict[Tuple[int, ...], float] = {}

    def _kappa(self, fi: int, p: int) -> List[float]:
        """Factor fi's free cumulants, extended to order p in increasing order:
        kappa_q is m_q less every first block but the whole word, runs priced by m."""
        m, kappa = self._laws.setdefault(fi, ([1.0], [0.0]))
        for q in range(len(m), p + 1):
            m.append(self.factors[fi].moment(q))
            kappa.append(0.0)  # drops the whole word's term from the sum
            kappa[q] = m[q] - _first_blocks(q, range(1, q), kappa, lambda a, b: m[b - a])
        return kappa

    def word_moment(self, word: Tuple[int, ...]) -> float:
        if not word:
            return 1.0
        if word not in self._cache:
            _check_letters(word, self.letters)
            p, letters = len(word), [self.assign[i - 1] for i in word]
            # every factor of w to order p: an overflow fails on the first word that long
            for fi in set(letters):
                self._kappa(fi, p)
            others = [i for i in range(1, p) if letters[i] == letters[0]]
            self._cache[word] = _first_blocks(
                p, others, self._kappa(letters[0], p), lambda a, b: self.word_moment(word[a:b])
            )
        return self._cache[word]


class MatrixModel:
    """Targets read off a fixed tuple of Hermitian matrices.

    tau(w) is complex in general, with tau(reversed w) = conj tau(w); it
    is stored as a float when the reversal of w is one of its rotations,
    which makes it real.
    """

    def __init__(self, mats: Sequence[np.ndarray]):
        self.tuple = matcore.MatrixTuple(
            [matcore.SelfAdjointMatrix.hermitian_part(np.asarray(a)) for a in mats]
        )
        self.letters = self.tuple.n
        self._cache: Dict[Tuple[int, ...], complex] = {}
        # every letter as a length-1 product, and each prefix the kernel forms
        self._products = {(i,): m.array for i, m in enumerate(self.tuple.mats, start=1)}

    def word_moment(self, word: Tuple[int, ...]) -> complex:
        if not word:
            return 1.0
        if word not in self._cache:
            _check_letters(word, self.letters)
            acc = matcore._word_product(self._products, word)
            t = complex(np.trace(acc) / self.tuple.dim)
            self._cache[word] = float(t.real) if _real_word(word) else t
        return self._cache[word]


class ProblemsError(ValueError):
    """Invalid input: ``problems`` lists every problem under ``heading``."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__(f"{self.heading}: " + "; ".join(self.problems))


class SpecError(ProblemsError):
    """An invalid tracial specification."""

    heading = "invalid specification"


class SpecTooShallow(SpecError):
    """A membership test needed a word the specification cannot price."""


class SettingsError(ProblemsError):
    """Invalid sweep or check settings."""

    heading = "invalid settings"


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _int_problems(name, v, low) -> List[str]:
    """The problem of a setting that must be an integer >= low, if any."""
    return [] if _is_int(v) and v >= low else [f"{name} must be an integer >= {low}, not {v!r}"]


def _window_problems(l, eps, radius) -> List[str]:
    """The problems of a window (l, eps, R): depth l >= 0, eps and R > 0."""
    return _int_problems("l", l, 0) + [
        f"{name} must be positive and finite, not {v!r}"
        for name, v in (("eps", eps), ("radius", radius))
        if not (_is_real(v) and abs(v) <= sys.float_info.max and v > 0)
    ]


class TracialSpec:
    """Target word traces for n X-letters followed by m Y-letters.

    ``targets``, a mapping from words to values or a sequence of (word,
    value) pairs, prices every word of length 1..l_max; without targets or
    a generator the table is empty.  Every rule on the fields and targets
    is checked here, and a SpecError lists every problem found.
    """

    def __init__(self, n, m, l_max, *, targets=None, generator=None):
        problems = [
            f"field {name!r} must be a nonnegative integer"
            for name, v in (("n", n), ("m", m), ("l_max", l_max))
            if not _is_int(v) or v < 0
        ]
        if problems:
            raise SpecError(problems)
        self.n, self.m, self.l_max = int(n), int(m), int(l_max)
        letters = self.n + self.m
        if self.n < 1:
            problems.append("need at least one X letter (n >= 1)")
        if targets is not None and generator is not None:
            problems.append("give either targets or a generator, not both")
        if generator is not None and generator.letters != letters:
            problems.append(
                f"the generator models {generator.letters} letters, not n + m = {letters}"
            )
        self.generator = generator
        self.targets: Dict[Tuple[int, ...], float] = {}
        seen: Dict[Tuple[int, ...], Tuple[str, Tuple[int, ...]]] = {}  # first entry per class
        items = targets.items() if isinstance(targets, dict) else targets or ()
        for num, (raw, value) in enumerate(items, start=1):
            label = f"targets[{num}]"
            if not isinstance(raw, (list, tuple)) or not all(_is_int(i) for i in raw):
                problems.append(f"{label}: word {raw!r} is not a list of letter indices")
                continue
            word = tuple(int(i) for i in raw)
            before = len(problems)
            if any(i < 1 or i > letters for i in word):
                problems.append(
                    f"{label}: word {list(word)} has a letter out of range 1..{letters}"
                )
            if len(word) > self.l_max:
                problems.append(f"{label}: word {list(word)} is longer than l_max={self.l_max}")
            if not _is_real(value):
                problems.append(f"{label}: value {value!r} is not a number")
            elif not abs(value) <= sys.float_info.max:
                problems.append(f"{label}: value {value!r} is not finite")
            if len(problems) > before:
                continue
            v = float(value)
            if not word:
                if abs(v - 1.0) > _TARGET_TOL:
                    problems.append(f"{label}: the empty word must target 1, not {v}")
                continue
            c = canonical_word(word)
            if c in self.targets and abs(self.targets[c] - v) > _TARGET_TOL:
                first, w0 = seen[c]
                what = (
                    "repeated with a different value" if w0 == word
                    else "a tracial symmetry conflict"
                )
                problems.append(
                    f"{label}: word {list(word)} is {what} against {first} "
                    f"{list(w0)} ({self.targets[c]} vs {v})"
                )
            self.targets[c] = v
            seen.setdefault(c, (label, word))
        # a valid table prices every word up to l_max; the walk stops at the
        # first length that lacks one, so a mistyped large l_max costs little
        if targets is not None and not problems:
            for length in range(1, self.l_max + 1):
                words = canonical_words(letters, length)
                missing = [w for w in words if w not in self.targets]
                if missing:
                    problems.append(
                        f"targets: no value for word {list(missing[0])}; {len(missing)} of the "
                        f"{len(words)} words of length {length} lack one (l_max={self.l_max})"
                    )
                    break
        if problems:
            raise SpecError(problems)

    # factories -----------------------------------------------------------

    @classmethod
    def from_targets(cls, n, m, l_max, targets) -> "TracialSpec":
        return cls(n, m, l_max, targets=targets)

    @classmethod
    def free_model(cls, n, m, l_max, factors, assign) -> "TracialSpec":
        return cls(n, m, l_max, generator=FreeModel(factors, assign))

    # lookups ---------------------------------------------------------------

    @property
    def letters(self) -> int:
        return self.n + self.m

    def _canonical(self, word) -> Tuple[int, ...]:
        w = canonical_word(word)
        _check_letters(w, self.letters)
        return w

    def target(self, word) -> complex:
        """tau(word): a float, or a complex matrix-model trace; conjugated
        when the canonical form is a rotation of the word's reversal."""
        w = self._canonical(word)
        if not w:
            return 1.0
        if self.generator is not None:
            v = self.generator.word_moment(w)
            if isinstance(v, complex) and _min_rotation(tuple(int(i) for i in word)) != w:
                return v.conjugate()
            return v
        if len(w) > self.l_max:
            raise SpecTooShallow([f"word of length {len(w)} exceeds l_max={self.l_max}"])
        if w not in self.targets:
            raise SpecTooShallow([f"no target for word {w}"])
        return self.targets[w]

    def has_target(self, word) -> bool:
        w = self._canonical(word)
        if self.generator is not None:
            return True
        return not w or w in self.targets

    def required_words(self, l: int) -> Tuple[Tuple[int, ...], ...]:
        """canonical_words of each length 1..l in turn."""
        return tuple(w for j in range(1, l + 1) for w in canonical_words(self.letters, j))

    # serialization ------------------------------------------------------------

    @classmethod
    def from_dict(cls, d) -> "TracialSpec":
        """Specification from its JSON document.

        The document's shape is checked here and every other rule in
        ``__init__``; one SpecError lists every problem of both.
        """
        if not isinstance(d, dict):
            raise SpecError(["specification document must be a JSON object"])
        problems: List[str] = []
        generator = None
        if "generator" in d:
            generator = _generator_from_dict(d["generator"], problems)
        targets = d.get("targets")
        if isinstance(targets, list):
            targets = [
                (e.get("word"), e.get("value")) if isinstance(e, dict) else (e, None)
                for e in targets
            ]
        elif targets is not None:
            problems.append("field 'targets' must be a list of {word, value} entries")
            targets = None
        elif "generator" not in d:
            problems.append("give either targets (an empty table is []) or a generator")
        try:
            spec = cls(
                d.get("n"), d.get("m", 0), d.get("l_max"), targets=targets, generator=generator
            )
        except SpecError as e:
            problems = e.problems + problems
        if problems:
            raise SpecError(problems)
        return spec

    @classmethod
    def load(cls, path: str) -> "TracialSpec":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def _generator_from_dict(g, problems: List[str]):
    """Model of a specification's generator block, or None after appending
    its problems."""
    kind = g.get("kind") if isinstance(g, dict) else None
    if kind == "free":
        docs, assign, before = g.get("factors"), g.get("assign"), len(problems)
        factors = []
        if not isinstance(docs, list):
            problems.append("generator: field 'factors' must be a list of measures")
        else:
            for i, doc in enumerate(docs, start=1):
                try:
                    factors.append(spectra.measure_from_dict(doc))
                except spectra.MeasureFormatError as e:
                    problems.append(f"generator: factors[{i}]: {e}")
        if not isinstance(assign, list) or not all(_is_int(a) for a in assign):
            problems.append("generator: field 'assign' must be a list of factor indices")
        if len(problems) == before:
            try:
                return FreeModel(factors, assign)
            except ValueError as e:
                problems.append(f"generator: {e}")
    elif kind == "matrix":
        try:
            return MatrixModel(
                [
                    np.array([[complex(re, im) for re, im in row] for row in mat])
                    for mat in g.get("matrices")
                ]
            )
        except (TypeError, ValueError, OverflowError) as e:
            problems.append(
                f"generator: field 'matrices' must hold square matrices of [re, im] entries ({e})"
            )
    elif isinstance(g, dict):
        problems.append(f"generator: kind {kind!r} is neither 'free' nor 'matrix'")
    else:
        problems.append("field 'generator' must be an object with a 'kind'")
    return None


def suggested_radius(spec: TracialSpec) -> float:
    """Default R: 2 + 2 max|support| of a generator's model, else 4.

    Every free factor has bounded support; a variance-v semicircle lies
    in [-2 sqrt(v), 2 sqrt(v)]."""
    gen = spec.generator
    if isinstance(gen, MatrixModel):
        stack = gen.tuple.stack()
        return 2.0 + 2.0 * float(matcore.operator_norms(stack).max())
    if isinstance(gen, FreeModel):
        return 2.0 + 2.0 * max(max(map(abs, f.support)) for f in gen.factors)
    return 4.0


# --- membership ---------------------------------------------------------------


@dataclass(frozen=True)
class MicrostateParams:
    k: int
    l: int
    eps: float
    radius: float

    def __post_init__(self):
        problems = _int_problems("k", self.k, 1) + _window_problems(self.l, self.eps, self.radius)
        if problems:
            raise SettingsError(problems)


@dataclass(frozen=True)
class Sweep:
    """The settings of one k sweep, checked once: the window (l, eps,
    radius) at each k of the ascending k_list, nsamples per k, the base
    seed, threads (0 means every core) and the Y pool of a conditioned
    run.  A SettingsError lists every bad setting."""

    k_list: Tuple[int, ...]
    l: int
    eps: float
    radius: float
    nsamples: int = 100_000
    seed: int = 0
    threads: int = 1
    y_pool: int = 32

    def __post_init__(self):
        ks = self.k_list
        ok = isinstance(ks, (list, tuple)) and ks and all(_is_int(k) and k >= 1 for k in ks)
        problems = [] if ok and list(ks) == sorted(ks) else [
            f"k_list must be ascending positive integers, not {ks!r}"
        ]
        problems += _window_problems(self.l, self.eps, self.radius)
        for name, low in (("nsamples", 100), ("threads", 0), ("y_pool", 1)):
            problems += _int_problems(name, getattr(self, name), low)
        if not _is_int(self.seed):
            problems.append(f"seed must be an integer, not {self.seed!r}")
        if problems:
            raise SettingsError(problems)
        conv = {"k_list": lambda ks: tuple(map(int, ks)), "eps": float, "radius": float}
        for f in fields(self):
            object.__setattr__(self, f.name, conv.get(f.name, int)(getattr(self, f.name)))

    def at(self, k: int) -> MicrostateParams:
        """The window at matrix size k."""
        return MicrostateParams(k, self.l, self.eps, self.radius)


def _trace(cache, w, ws=rng.FRESH, real=False):
    """Trace of the word w = uv with |u| = ceil(|w|/2) per row, so only
    products up to half the depth are formed.

    When ``real`` says the word's reversal is one of its rotations, so its
    trace is real, the real trace alone is returned; if the tail v also reads
    the same reversed, v is Hermitian and tr(uv) = sum(u * conj(v)) is one
    contiguous inner product of the rows' float64 views (a Y-only v of one
    row broadcasts).  Other words keep sum(u * v^T).  Exact only to rounding,
    but a row's bits never depend on the rows that share its batch (a BLAS
    gemv's would, so none is used).
    """
    h = (len(w) + 1) // 2
    u = matcore._word_product(cache, w[:h], ws)
    tail = w[h:]
    if not tail:
        t = np.einsum("...ii->...", u)
    elif real and tail == tail[::-1]:
        v = matcore._word_product(cache, tail, ws)
        return np.einsum("mi,mi->m", *(p.reshape(len(p), -1).view(np.float64) for p in (u, v)))
    else:
        t = np.einsum("...ij,...ji->...", u, matcore._word_product(cache, tail, ws))
    return t.real if real else t


def _compact(ok, a, ws):
    """Move the rows of a where ok holds, in order, to a's front and return
    that front.

    With at most half the rows kept, no copy is needed: rows only move
    toward the front, in runs whose destination ends before their first
    source row, each one np.take between disjoint slices of a.  A run is as
    long as the rows rejected before it, so for independently accepted rows
    the runs grow geometrically.  With more kept, the kept rows go through a
    copy taken from ws.
    """
    idx = np.flatnonzero(ok)
    live = len(idx)
    if live == len(a):
        return a
    if 2 * live > len(a):
        with ws:
            a[:live] = np.compress(ok, a, axis=0, out=ws.take((live,) + a.shape[1:], a.dtype))
        return a[:live]
    j = int(np.argmin(ok))  # the rows before the first rejected one stay put
    while j < live:
        end = min(live, int(idx[j]))
        src = a[idx[j] : idx[end - 1] + 1]
        np.take(src, idx[j:end] - idx[j], axis=0, out=a[j:end], mode="clip")
        j = end
    return a[:live]


def _stages(words, first, last):
    """``words`` split by their largest letter in first..last, one list per
    letter in order, each keeping the words' order."""
    stages = [[] for _ in range(first, last + 1)]
    for c in words:
        stages[max(i for i in c[0] if i <= last) - first].append(c)
    return stages


def _trace_filter(stages, block, first, p, cache, ws, fill=None, ids=None):
    """The one membership pass: which rows of a letter-major (letters, count,
    k, k) block, its letters numbered first, first + 1, ..., lie in window p.

    It runs one stage per letter i of the block, in order: each word of
    ``stages[i - first]`` ((word, real, target) as _member_test prices them,
    every word whose largest letter of the block is i) must trace within eps
    of its target, then letter i's operator norm must be <= R
    (matcore.norms_leq, given the letter's square when a word formed it, for
    the x^4 certificate).  A row's verdict is the AND of its tests, so their
    order cannot change it.  Products start from ``cache`` (earlier letters
    and their products) and the block's letters as products of length 1, and
    each one formed is added to it: taken from the workspace ``ws`` and
    handed back on return, or with rng.FRESH kept in ``cache`` for a later
    pass.  With ``fill``, the block is scratch: letter i is drawn at stage i,
    fill(i - first, ids, out, ws), for the rows still alive only, their
    sample indices ``ids`` (an int array of the block's rows).  Rejected rows
    are dropped after each test, but moved (to the front of ids and of each
    letter and product with a letter of the block, in place) only once the
    survivors are at most half the rows held, or before a letter is drawn:
    a block that mostly survives moves once, at the end, letters only.  A
    letter or product from an earlier stage holds the block's rows, unlike
    the one-row Y letters of an earlier pass, so it moves with the block,
    and the final move takes every letter of the block.  The stages after
    the first hold only the survivors, and take their draws, products and
    moves from one slab the size of the block's later letters, taken from
    ``ws`` at the second stage, so the workspace's depth does not depend on
    how many rows survive (a stage that outgrows the slab, which only many
    survivors can, takes new arrays).  Returns the surviving rows in order,
    the front of the block.
    """
    k, last = block.shape[-1], first + len(block) - 1
    ok = np.ones(block.shape[1], dtype=bool)

    def drop(ok, ids, ws):
        # letters from an earlier pass come after the block's (Y after X), so
        # a product holds the rows exactly when its least letter is the block's
        cache.update({key: _compact(ok, a, ws) for key, a in cache.items() if min(key) <= last})
        ids = ids if ids is None else _compact(ok, ids, ws)
        return np.ones(np.count_nonzero(ok), dtype=bool), ids

    with ws:
        if fill is None:
            cache.update({(i,): x for i, x in enumerate(block, start=first)})
        scratch = ws
        for i, words in enumerate(stages, start=first):
            if fill is not None:
                live = np.count_nonzero(ok)
                if not live:
                    return block[:, :0]
                if i == first + 1:
                    scratch = rng.Workspace(ws.take(block[1:].shape, block.dtype))
                if live < len(ok):
                    ok, ids = drop(ok, ids, scratch)
                x = cache[(i,)] = block[i - first, :live]
                fill(i - first, ids, x, scratch)
                ids = ids if i < last else None  # no later letter reads them
            for w, real, tgt in words:
                ok &= np.abs(_trace(cache, w, scratch, real) / k - tgt) < p.eps
                live = np.count_nonzero(ok)
                if not live:
                    return block[:, :0]
                if 2 * live <= len(ok):
                    ok, ids = drop(ok, ids, scratch)
            ok &= matcore.norms_leq(cache[(i,)], p.radius, cache.get((i, i)))
    for x in block:  # once the products are handed back: a copy reuses their memory
        _compact(ok, x[: len(ok)], ws)
    return block[:, : np.count_nonzero(ok)]


def _member_test(spec, p):
    """Membership in window p, priced once (the words of length 1..l, their
    targets, and the split into Y-only words and words with an X letter).

    ``settle(yarrs)`` is the one test of a Y-microstate, for an estimate's
    fixed Y tuple (an (m, k, k) stack) and y_candidates alike: _trace_filter
    on the Y-only words, with the tuple as a one-row block of letters
    n+1..n+m and rng.FRESH as its workspace, so the Y letters and their
    products stay in the cache that seeds each X pass.  It returns None when
    the Y tuple fails, else member(xstack, ws, fill, ids): the same pass on
    the words with an X letter, staged by their largest X letter, over an
    (n, count, k, k) stack of X letters (drawn by ``fill`` at the sample
    indices ``ids`` as the pass reaches each letter, when given), whose
    member rows it moves to xstack's front and returns, so xstack is scratch.
    """
    if p.l > spec.l_max and spec.generator is None:
        raise SpecTooShallow([f"l={p.l} exceeds the table depth l_max={spec.l_max}"])
    words = [(w, _real_word(w), spec.target(w)) for w in spec.required_words(p.l)]
    yonly = _stages([c for c in words if min(c[0]) > spec.n], spec.n + 1, spec.letters)
    xwords = _stages([c for c in words if min(c[0]) <= spec.n], 1, spec.n)

    def settle(yarrs=None):
        ycache = {}
        if yarrs is not None:
            if not _trace_filter(yonly, yarrs[:, None], spec.n + 1, p, ycache, rng.FRESH).size:
                return None

        def member(xstack, ws=rng.FRESH, fill=None, ids=None):
            return _trace_filter(xwords, xstack, 1, p, dict(ycache), ws, fill, ids)

        return member

    return settle


# --- volume estimators ----------------------------------------------------------


@dataclass
class VolumeEstimate:
    log_volume: float
    stderr_log: float
    samples: int
    method: str
    accepted: int
    upper_bound: Optional[float] = None


def _run_chunks(work, starts, threads: int):
    """work(c) for each start c, in order, on ``threads`` workers (0: every
    core), but never more workers than starts, and no pool for one."""
    threads = min(threads or os.cpu_count() or 1, len(starts))
    if threads <= 1:
        return [work(c) for c in starts]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(work, starts))


def _ball(spec, p, seed):
    """Uniform draws in a Hilbert-Schmidt ball per letter; every row weighs
    0, so the reduction is (acc, 0, acc, acc) and acc/N is binomial."""
    n, k = spec.n, p.k
    # the second-moment window already confines the set to the HS ball of
    # radius sqrt(k (m2 + eps)), so shrink the sampling region to match (the
    # member test, built first, has priced every word up to l)
    radii = []
    for i in range(1, n + 1):
        r = p.radius
        if p.l >= 2:
            r = min(r, math.sqrt(max(spec.target((i, i)), 0.0) + p.eps))
        radii.append(r)
    log_region = sum(matcore.ball_log_volume(k, r) for r in radii)
    seeds = [rng.derive(seed, 0xBA11, i) for i in range(n)]

    def fill(i, ids, out, ws):
        matcore.ball_stack(k, len(out), radii[i], seeds[i], out=out, _ws=ws, _rows=ids)

    def weigh(xs, ws):
        return np.zeros(xs.shape[1])

    def close(acc, mx, s1, s2, nsamples):
        phat = acc / nsamples
        return log_region + math.log(phat), math.sqrt((1.0 - phat) / (phat * nsamples))

    return "ball-rejection", fill, weigh, close, log_region


def _importance(spec, p, seed):
    """GUE draws with each letter's variance matched to its second-moment
    target; the stderr is the delta method's."""
    n, k = spec.n, p.k
    variances = []
    for i in range(1, n + 1):
        v = spec.target((i, i)) if spec.has_target((i, i)) else 1.0
        variances.append(max(float(v), 0.5 * p.eps))
    log_norm = sum(0.5 * k * k * math.log(2.0 * math.pi * v / k) for v in variances)
    seeds = [rng.derive(seed, 0x6A55, i) for i in range(n)]

    def fill(i, ids, out, ws):
        matcore.gue_stack(k, len(out), variances[i], seeds[i], out=out, _ws=ws, _rows=ids)

    def weigh(xs, ws):
        logw = np.full(xs.shape[1], log_norm)
        for x, v in zip(xs, variances):
            with ws:  # |x|^2 by the same element operations as np.abs(x) ** 2
                sq = np.abs(x, out=ws.take(x.shape))
                frob2 = np.sum(np.square(sq, out=sq), axis=(1, 2))
            logw += k * frob2 / (2.0 * v)
        return logw

    def close(acc, mx, s1, s2, nsamples):
        rel_var = max(nsamples * s2 / (s1 * s1) - 1.0, 0.0)
        return mx + math.log(s1) - math.log(nsamples), math.sqrt(rel_var / nsamples)

    return "gaussian-importance", fill, weigh, close, n * matcore.ball_log_volume(k, p.radius)


_WORKSPACES: List[rng.Workspace] = []  # idle ones, kept across calls and threads
_WORKSPACES_LOCK = threading.Lock()


@contextmanager
def _workspace():
    """A workspace for one worker: an idle one, or a new one, kept afterwards.

    A free list rather than thread-local storage: the pool's threads end
    with each call, and the workspaces must outlive them.
    """
    with _WORKSPACES_LOCK:
        ws = _WORKSPACES.pop() if _WORKSPACES else rng.Workspace()
    try:
        with ws:
            yield ws
    finally:
        with _WORKSPACES_LOCK:
            _WORKSPACES.append(ws)


def _volume(spec, p, proposal, member, nsamples, threads) -> VolumeEstimate:
    """The one estimator over a proposal (method, fill, weigh, close, region).

    Each chunk of _CHUNK samples streams through the fewest sub-blocks of
    equal rows that hold at most _SUBBLOCK_ENTRIES entries over all n
    letters.  Each worker holds one workspace (rng.Workspace) for the
    chunk, with an (n, rows, k, k) buffer x and the sample indices ids of a
    sub-block's rows.  member(x, ws, fill, ids) draws X letter i + 1 only for
    the rows that passed the words and norms of the letters before it:
    ``fill(i, ids, out, ws)`` is one sampler pass into the front of the
    letter's contiguous rows x[i], at the counter blocks of the live rows'
    ids.  ``weigh(xs, ws)`` gives the log-weights of the member rows before
    the next sub-block; every temporary of the sampler, the filter and the
    weights is taken from the workspace and handed back after its phase, so
    a warm workspace allocates nothing per sub-block.  ``member`` None
    accepts no row, and nothing is drawn.  Each row is drawn from its own
    counter block, tested and weighed alone, and the chunks are reduced
    whole, in chunk order, so neither the sub-blocks, the stages nor the
    thread count can change a result.  The
    log-weights w (volume over proposal density) of the accepted rows
    stream into (acc, mx = max w, s1 = sum e^(w - mx), s2 = sum e^(2(w -
    mx))), which ``close(acc, mx, s1, s2, N)`` turns into (log volume,
    stderr).  No acceptance gives -inf with the bound region - log N, where
    ``region`` is a log-volume containing the set.
    """
    method, fill, weigh, close, region = proposal
    n, k = spec.n, p.k
    most = max(1, _SUBBLOCK_ENTRIES // (n * k * k))

    def work(c0):
        count = min(_CHUNK, nsamples - c0)
        rows = -(-count // -(-count // most))  # ceil(count / ceil(count / most))
        parts = []
        with _workspace() as ws:
            buf = ws.take((n, rows, k, k), np.complex128)
            ids = ws.take((rows,), np.intp)
            for r0 in range(0, count, rows):
                m = min(rows, count - r0)
                np.add(np.arange(m), c0 + r0, out=ids[:m])
                with ws:
                    parts.append(weigh(member(buf[:, :m], ws, fill, ids[:m]), ws))
        return np.concatenate(parts)

    chunks = [] if member is None else _run_chunks(work, range(0, nsamples, _CHUNK), threads)
    acc, mx, s1, s2 = 0, float("-inf"), 0.0, 0.0
    for logw in chunks:
        if not logw.size:
            continue
        cm = float(logw.max())
        c1 = float(np.sum(np.exp(logw - cm)))
        c2 = float(np.sum(np.exp(2.0 * (logw - cm))))
        m2 = max(mx, cm)
        r_old = math.exp(mx - m2) if acc else 0.0
        r_new = math.exp(cm - m2)
        s1 = s1 * r_old + c1 * r_new
        s2 = s2 * r_old**2 + c2 * r_new**2
        mx = m2
        acc += logw.size
    if acc == 0:
        return VolumeEstimate(
            float("-inf"), float("inf"), nsamples, method, 0,
            upper_bound=region - math.log(nsamples),
        )
    return VolumeEstimate(*close(acc, mx, s1, s2, nsamples), nsamples, method, acc)


def estimate_volume(
    spec: TracialSpec,
    p: MicrostateParams,
    sampler: str = "auto",
    y: Optional[matcore.MatrixTuple] = None,
    nsamples: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> VolumeEstimate:
    """Monte Carlo estimate of log lambda(Gamma) at fixed k.

    With a fixed ``y`` the X-section of the joint microstate set is
    measured; the specification must then carry m = y.n Y-letters.
    """
    problems = _int_problems("nsamples", nsamples, 100) + _int_problems("threads", threads, 0)
    if problems:
        raise SettingsError(problems)
    if y is None:
        if spec.m != 0:
            raise ValueError("spec has Y letters: pass the fixed y tuple")
        yarr = None
    else:
        if y.n != spec.m or spec.m == 0:
            raise ValueError("y arity does not match the specification")
        if y.dim != p.k:
            raise ValueError("y dimension != k")
        yarr = y.stack()
    method = sampler
    if sampler == "auto":
        method = "ball" if p.k <= 2 else "importance"
    proposal = {"ball": _ball, "importance": _importance}.get(method)
    if proposal is None:
        raise ValueError(f"unknown sampler {sampler!r}")
    member = _member_test(spec, p)(yarr)
    return _volume(spec, p, proposal(spec, p, seed), member, nsamples, threads)


# --- chi estimators ---------------------------------------------------------------


@dataclass
class ChiPoint:
    k: int
    log_volume: float
    value: float
    stderr: float
    y_id: str = ""  # the winning Y-candidate of a relative estimate


@dataclass
class ChiEstimate:
    per_k: List[ChiPoint]
    extrapolated: float
    sigma: float  # the stderr of the point that gives the extrapolation
    y_used: str


def _haar_unitary(k: int, seed: int) -> np.ndarray:
    """Haar unitary from a Ginibre draw, orthonormalized column by column."""
    w = rng.normals(seed, 0, 2 * k * k)
    g = (w[: k * k] + 1j * w[k * k :]).reshape(k, k) / math.sqrt(2.0)
    q = np.zeros((k, k), dtype=np.complex128)
    for j in range(k):
        v = g[:, j].copy()
        for _ in range(2):  # re-orthogonalize once for stability
            if j:
                v -= q[:, :j] @ (q[:, :j].conj().T @ v)
        q[:, j] = v / np.linalg.norm(v)
    return q


def y_candidates(
    spec: TracialSpec, p: MicrostateParams, pool: int, seed: int
) -> List[Tuple[str, matcore.MatrixTuple]]:
    """Model-aware Y-tuples, each kept exactly when the estimate's settle step
    accepts it (priced once per window).

    Per Y letter, atomic/grid laws contribute Haar-conjugated quantile
    diagonals, semicircular laws GUE draws, matrix models block embeddings
    (conjugated after the first candidate).  Aliased letters reuse one base
    matrix, so exact-correlation constraints stay satisfied.
    """
    if spec.generator is None:
        raise SpecError(
            ["Y letters need a generator to propose Y candidates; a target table has none"]
        )
    if spec.m == 0:
        raise ValueError("specification has no Y letters")
    gen, settle, k = spec.generator, _member_test(spec, p), p.k
    if isinstance(gen, MatrixModel):
        if k % gen.tuple.dim != 0:
            return []  # no embedding of the model into dimension k
        rep = np.eye(k // gen.tuple.dim)
        embedded = [np.kron(m.array, rep) for m in gen.tuple.mats[spec.n :]]
    out: List[Tuple[str, matcore.MatrixTuple]] = []
    for attempt in range(64 * pool):
        sub = rng.derive(seed, 0x9001, attempt)
        if isinstance(gen, MatrixModel):
            mats = embedded
            if attempt > 0:
                q = _haar_unitary(k, sub)
                mats = [q @ m @ q.conj().T for m in mats]
            tup = matcore.MatrixTuple(
                [matcore.SelfAdjointMatrix.hermitian_part(m) for m in mats]
            )
            desc = f"model#{attempt}"
        else:
            bases: Dict[int, matcore.SelfAdjointMatrix] = {}
            for fi in set(gen.assign[spec.n :]):
                f = gen.factors[fi]
                fseed = rng.derive(sub, fi)
                if f.kind == "semicircle":
                    bases[fi] = matcore.sample_gue(k, f.variance, fseed)
                else:
                    locs = f.quantile((np.arange(k) + 0.5) / k)
                    q = _haar_unitary(k, fseed)
                    m = (q * locs[None, :]) @ q.conj().T
                    bases[fi] = matcore.SelfAdjointMatrix.hermitian_part(m)
            tup = matcore.MatrixTuple([bases[fi] for fi in gen.assign[spec.n :]])
            desc = f"free#{attempt}"
        if settle(tup.stack()) is not None:
            out.append((desc, tup))
            if len(out) == pool:
                break
    return out


def estimate_chi(spec: TracialSpec, sweep: Sweep, pool=None) -> ChiEstimate:
    """Per-k normalized values over the k sweep of ``sweep``.

    Each k is the sup over a pool of fixed Y-candidates of the X-section's
    volume, the first of the largest winning: ``pool(p)`` lists window p's
    candidates as (id, Y-tuple, seed of its estimate), and an empty pool
    gives the -inf row of an empty sup.  The default pool with no Y letters
    is the one empty candidate on derive(seed, 0xC41, k); with Y letters,
    up to ``sweep.y_pool`` y_candidates on derive(seed, 0x9CA, k), each ci
    measured on derive(seed, 0xE57, k, ci), which needs a generator (else
    SpecError).  The extrapolation is max over k of (value - stderr), with
    the stderr of the first k attaining it; (-inf, inf) if none is finite.
    """
    seed, inf = sweep.seed, math.inf

    def default_pool(p):
        if spec.m == 0:
            return [("", None, rng.derive(seed, 0xC41, p.k))]
        cands = y_candidates(spec, p, sweep.y_pool, rng.derive(seed, 0x9CA, p.k))
        return [(d, y, rng.derive(seed, 0xE57, p.k, ci)) for ci, (d, y) in enumerate(cands)]

    pts = []
    for k in sweep.k_list:
        p = sweep.at(k)
        cands = (pool or default_pool)(p)
        if not cands:
            empty = f"none (no {k}-dim Y-microstates found; empty sup)"
            pts.append(ChiPoint(k, -inf, -inf, inf, empty))
            continue
        vols = [
            estimate_volume(spec, p, "auto", y, sweep.nsamples, s, sweep.threads)
            for _, y, s in cands
        ]
        ve, y_id = max(zip(vols, [c[0] for c in cands]), key=lambda vc: vc[0].log_volume)
        # an estimate that accepted nothing is (-inf, inf), and so is its point
        value = ve.log_volume / (k * k) + 0.5 * spec.n * math.log(k)
        pts.append(ChiPoint(k, ve.log_volume, value, ve.stderr_log / (k * k), y_id))
    finite = [(pt.value - pt.stderr, pt.stderr) for pt in pts if pt.value > -inf]
    extrapolated, sigma = max(finite, key=lambda t: t[0]) if finite else (-inf, inf)
    y_used = "; ".join(f"k={pt.k}:{pt.y_id}" for pt in pts if pt.y_id)
    return ChiEstimate(pts, extrapolated, sigma, y_used)


# --- block maps -----------------------------------------------------------------


def block_split(z: matcore.MatrixTuple, order: int) -> matcore.MatrixTuple:
    """Hermitian block parts of each matrix, (i, j, input) lexicographic.

    The (i, j) block X of a matrix maps to (X + X*)/2 when i >= j and to
    (X - X*)/(2i) when i < j, each a Hermitian matrix of the block size.
    """
    if order < 1:
        raise ValueError("block order must be >= 1")
    k = z.dim
    if k % order != 0:
        raise ValueError(f"dimension {k} not divisible by block order {order}")
    kp = k // order
    out = []
    for i in range(order):
        for j in range(order):
            for r in range(z.n):
                x = z.mats[r].array[i * kp : (i + 1) * kp, j * kp : (j + 1) * kp]
                if i >= j:
                    y = 0.5 * (x + x.conj().T)
                else:
                    y = (-0.5j) * (x - x.conj().T)
                out.append(matcore.SelfAdjointMatrix(y))
    return matcore.MatrixTuple(out)


def block_assemble(entries: matcore.MatrixTuple, order: int) -> matcore.MatrixTuple:
    """Inverse of block_split.

    The split is measure preserving for the lambda inner product with
    weight 1 on diagonal blocks and 2 off the diagonal:
    Tr(Z^2) = sum_i Tr(Y_ii^2) + 2 sum_{i != j} Tr(Y_ij^2), since
    ||A - iB||^2 = ||A||^2 + ||B||^2 for Hermitian A and B; T-BLOCK
    reports the residual as its parseval_residual.
    """
    if order < 1:
        raise ValueError("block order must be >= 1")
    cnt = entries.n
    if cnt % (order * order) != 0:
        raise ValueError(f"{cnt} entries do not fill {order}x{order} blocks")
    nout = cnt // (order * order)
    kp = entries.dim
    k = order * kp

    def ent(i, j, r):
        return entries.mats[(i * order + j) * nout + r].array

    out = []
    for r in range(nout):
        z = np.zeros((k, k), dtype=np.complex128)
        for i in range(order):
            z[i * kp : (i + 1) * kp, i * kp : (i + 1) * kp] = ent(i, i, r)
            for j in range(i):
                x = ent(i, j, r) - 1j * ent(j, i, r)
                z[i * kp : (i + 1) * kp, j * kp : (j + 1) * kp] = x
                z[j * kp : (j + 1) * kp, i * kp : (i + 1) * kp] = x.conj().T
        out.append(matcore.SelfAdjointMatrix(z))
    return matcore.MatrixTuple(out)
