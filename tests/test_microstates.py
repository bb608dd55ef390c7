"""Moment targets, membership windows, Monte Carlo volume estimators,
chi sweeps (plain and relative), and block decompositions."""

import json
import math
import sys
import tracemalloc
from dataclasses import replace
from functools import lru_cache, reduce
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freelab import matcore, microstates as ms, rng, spectra
from freelab.microstates import MicrostateParams, Sweep, TracialSpec


def semicircle():
    return spectra.SpectralMeasure.semicircle(1.0)


def two_atom(a=1.0):
    return spectra.SpectralMeasure.atomic([(-a, 0.5), (a, 0.5)])


def sc_spec(l_max=4):
    return TracialSpec.free_model(1, 0, l_max, [semicircle()], [0])


def free_pair_spec(l_max=4):
    return TracialSpec.free_model(1, 1, l_max, [semicircle(), two_atom()], [0, 1])


def tuple_of(arrays):
    return matcore.MatrixTuple([matcore.SelfAdjointMatrix(a) for a in arrays])


def gue_tuple(k, seed):
    return matcore.MatrixTuple([matcore.sample_gue(k, 1.0, seed)])


def is_microstate(t, spec, p):
    """Membership of one tuple, all its letters taken as X, by the estimator's test."""
    return ms._member_test(spec, p)()(t.stack()[:, None]).shape[1] == 1


# --- canonical words and moment engines ---------------------------------------


def test_canonical_word_minimizes_over_rotations_and_reversal():
    w = (2, 1, 1, 3)
    orbit = set()
    for base in (w, w[::-1]):
        for s in range(len(base)):
            orbit.add(base[s:] + base[:s])
    assert ms.canonical_word(w) == min(orbit)
    assert ms.canonical_word(()) == ()
    assert ms.canonical_word((5,)) == (5,)
    assert ms.canonical_word((1, 2)) == ms.canonical_word((2, 1))


def test_free_model_semicircle_moments_are_catalan():
    gen = ms.FreeModel([semicircle()], [0])
    catalan = [1, 2, 5, 14, 42]
    for p, c in enumerate(catalan, start=1):
        assert gen.word_moment((1,) * (2 * p)) == pytest.approx(c, abs=1e-10)
        assert gen.word_moment((1,) * (2 * p - 1)) == pytest.approx(0.0, abs=1e-12)


def test_free_model_mixed_moments():
    gen = ms.FreeModel([semicircle(), two_atom()], [0, 1])
    assert gen.word_moment((1, 2)) == pytest.approx(0.0, abs=1e-12)
    assert gen.word_moment((1, 2, 1, 2)) == pytest.approx(0.0, abs=1e-12)
    assert gen.word_moment((1, 1, 2, 2)) == pytest.approx(1.0, abs=1e-12)
    assert gen.word_moment((2, 2)) == pytest.approx(1.0, abs=1e-12)
    assert gen.word_moment((2, 2, 2)) == pytest.approx(0.0, abs=1e-12)
    assert gen.word_moment((2, 2, 2, 2)) == pytest.approx(1.0, abs=1e-12)


def test_free_model_aliased_letters_are_perfectly_correlated():
    gen = ms.FreeModel([semicircle()], [0, 0])
    # tau((x - y)^2) = m2 - 2 tau(xy) + m2 must vanish when x = y
    second = (
        gen.word_moment((1, 1))
        - 2.0 * gen.word_moment((1, 2))
        + gen.word_moment((2, 2))
    )
    assert second == pytest.approx(0.0, abs=1e-12)


@lru_cache(maxsize=None)
def nc_partitions(p):
    """Non-crossing partitions of {0..p-1}, each a tuple of sorted blocks."""
    if p == 0:
        return ((),)
    out = []
    for r in range(p):
        for extra in combinations(range(1, p), r):
            block = (0,) + extra
            bounds = block + (p,)
            gap_parts = [
                [tuple(tuple(i + a + 1 for i in bl) for bl in part)
                 for part in nc_partitions(b - a - 1)]
                for a, b in zip(bounds, bounds[1:])
            ]
            for combo in product(*gap_parts):
                out.append((block,) + tuple(bl for part in combo for bl in part))
    return tuple(out)


def reference_moment(model, word):
    """tau(word) as the sum over every non-crossing partition of the word
    whose blocks each lie in one factor, of its blocks' free cumulants."""
    letters = [model.assign[i - 1] for i in word]
    kappa = {}
    for fi in set(letters):
        m = [model.factors[fi].moment(q) for q in range(len(word) + 1)]
        kappa[fi] = [0.0] * len(m)
        for q in range(1, len(m)):
            rest = 0.0
            for part in nc_partitions(q):
                if len(part) == 1:
                    continue
                v = 1.0
                for bl in part:
                    v *= kappa[fi][len(bl)]
                rest += v
            kappa[fi][q] = m[q] - rest
    total = 0.0
    for part in nc_partitions(len(word)):
        v = 1.0
        for bl in part:
            if any(letters[i] != letters[bl[0]] for i in bl):
                v = 0.0
                break
            v *= kappa[letters[bl[0]]][len(bl)]
        total += v
    return total


DYADIC_LAWS = [
    semicircle(),
    two_atom(),
    spectra.SpectralMeasure.atomic([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]),
]


@st.composite
def free_words(draw, laws):
    """A free family of 1..3 of the laws over 1..4 letters, so that letters
    alias, and words of length 1..8 in those letters."""
    factors = draw(st.lists(st.sampled_from(laws), min_size=1, max_size=3))
    assign = draw(st.lists(st.integers(0, len(factors) - 1), min_size=1, max_size=4))
    word = st.lists(st.integers(1, len(assign)), min_size=1, max_size=8).map(tuple)
    return factors, assign, draw(st.lists(word, min_size=1, max_size=4))


@given(free_words(DYADIC_LAWS))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_first_block_moments_are_the_partition_sum_to_the_bit_on_dyadic_laws(case):
    # every moment and cumulant of these laws is a dyadic rational, so the
    # sums are exact in any grouping
    factors, assign, words = case
    model = ms.FreeModel(factors, assign)
    for w in words:
        assert model.word_moment(w) == reference_moment(model, w), w


@given(free_words(DYADIC_LAWS), st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_first_block_moments_match_the_partition_sum_with_a_uniform_factor(case, first):
    # the uniform law's moments are not dyadic, so the two groupings round apart
    factors, assign, words = case
    model = ms.FreeModel(factors + [spectra.SpectralMeasure.uniform(-1.0, 2.0)],
                         assign + [len(factors)])
    u = len(assign) + 1  # the uniform letter, first or last in every word
    for w in words:
        w = (u,) + w[1:] if first else w[:-1] + (u,)
        want = reference_moment(model, w)
        assert model.word_moment(w) == pytest.approx(want, rel=1e-13, abs=0), w


def test_matrix_model_moments_are_normalized_traces():
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    gen = ms.MatrixModel([a, b])
    assert gen.word_moment((1,)) == pytest.approx(0.0, abs=1e-14)
    assert gen.word_moment((1, 1)) == pytest.approx(1.0, abs=1e-14)
    assert gen.word_moment((1, 2)) == pytest.approx(np.trace(a @ b).real / 2, abs=1e-14)
    assert gen.word_moment((1, 2, 1, 2)) == pytest.approx(-1.0, abs=1e-14)


def random_model(n, k, seed):
    """n random k x k Hermitian matrices (a + a*)/1.5 with a complex Ginibre."""
    g = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a = g.standard_normal((k, k)) + 1j * g.standard_normal((k, k))
        out.append((a + a.conj().T) / 1.5)
    return out


@given(
    n=st.integers(1, 3),
    k=st.integers(1, 5),
    l=st.integers(1, 4),
    eps=st.sampled_from([0.5, 0.2, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_a_matrix_model_is_a_microstate_of_its_own_spec(n, k, l, eps, seed):
    # from three letters on, tau(x1 x3 x2) is complex: the spec must keep it
    spec = TracialSpec(n, 0, l, generator=ms.MatrixModel(random_model(n, k, seed)))
    t = spec.generator.tuple
    radius = 1.0 + float(matcore.operator_norms(t.stack()).max())
    assert is_microstate(t, spec, MicrostateParams(k=k, l=l, eps=eps, radius=radius))
    for w in spec.required_words(l):
        assert spec.target(w[::-1]) == complex(spec.target(w)).conjugate()


def test_a_three_letter_model_has_complex_targets():
    spec = TracialSpec(3, 0, 3, generator=ms.MatrixModel(random_model(3, 4, 1)))
    x = [m.array for m in spec.generator.tuple]
    want = np.trace(x[0] @ x[2] @ x[1]) / 4
    assert abs(want.imag) > 0.5
    assert spec.target((1, 3, 2)) == pytest.approx(want, abs=1e-14)
    assert spec.target((1, 2, 3)) == pytest.approx(np.conj(want), abs=1e-14)
    assert isinstance(spec.target((1, 2, 1, 2)), float)


# --- tracial specifications ----------------------------------------------------


def test_from_targets_canonicalizes_words():
    spec = TracialSpec.from_targets(
        2, 0, 2, {(1, 2): 0.5, (1,): 0.0, (2,): 0.0, (1, 1): 1.0, (2, 2): 1.0}
    )
    assert spec.target((2, 1)) == pytest.approx(0.5)
    assert spec.has_target((2, 1))
    assert spec.target(()) == 1.0


def test_from_targets_rejects_tracial_conflicts():
    with pytest.raises(ValueError, match="tracial symmetry conflict"):
        TracialSpec.from_targets(2, 0, 2, {(1, 2): 0.5, (2, 1): 0.3})
    with pytest.raises(ValueError, match="out of range"):
        TracialSpec.from_targets(1, 0, 2, {(3,): 0.0})
    with pytest.raises(ValueError, match="longer than l_max"):
        TracialSpec.from_targets(1, 0, 1, {(1, 1): 1.0})


def test_spec_error_lists_every_problem_in_one_error():
    doc = {
        "n": 1, "m": 0, "l_max": 2,
        "targets": [
            {"word": [], "value": 0.5},
            {"word": [2], "value": 0.0},
            {"word": [1, 1], "value": "1"},
            {"word": [1, 1], "value": float("nan")},
            {"word": [1], "value": 0.0},
            {"word": [1], "value": 0.5},
            {"value": 1.0},
            7,
        ],
    }
    with pytest.raises(ms.SpecError) as info:
        TracialSpec.from_dict(doc)
    assert info.value.problems == [
        "targets[1]: the empty word must target 1, not 0.5",
        "targets[2]: word [2] has a letter out of range 1..1",
        "targets[3]: value '1' is not a number",
        "targets[4]: value nan is not finite",
        "targets[6]: word [1] is repeated with a different value against targets[5] [1] "
        "(0.0 vs 0.5)",
        "targets[7]: word None is not a list of letter indices",
        "targets[8]: word 7 is not a list of letter indices",
    ]
    assert str(info.value).startswith("invalid specification: targets[1]: the empty")


@pytest.mark.parametrize("kind", ["free", "matrix", "table"])
def test_a_word_with_a_letter_outside_the_spec_is_an_error(kind):
    # n = m = 1: letters 1 and 2.  Letter 0 must not wrap round to a free
    # model's last letter, nor read as a word a table leaves unpriced
    specs = {
        "free": lambda: free_pair_spec(2),
        "matrix": lambda: TracialSpec(1, 1, 2, generator=ms.MatrixModel(random_model(2, 2, 0))),
        "table": lambda: TracialSpec.from_targets(1, 1, 1, {(1,): 0.0, (2,): 0.0}),
    }
    spec = specs[kind]()
    assert spec.has_target((2,)) and spec.target(()) == 1.0
    lookups = [spec.target, spec.has_target]
    if spec.generator is not None:  # the models check their own words the same way
        lookups.append(spec.generator.word_moment)
    for word in [(0,), (0, 0), (3,), (3, 3), (1, 3), (2, -1)]:
        for lookup in lookups:
            with pytest.raises(IndexError, match=r"has a letter outside 1\.\.2"):
                lookup(word)


def test_target_lookup_depth_errors():
    spec = TracialSpec.from_targets(1, 0, 2, {(1,): 0.0, (1, 1): 1.0})
    with pytest.raises(ms.SpecTooShallow):
        spec.target((1, 1, 1))
    # a table must price every word up to l_max: the spec names the first gap
    with pytest.raises(ms.SpecError, match=r"no value for word \[1, 1\]; 1 of the 1 words"):
        TracialSpec.from_targets(1, 0, 2, {(1,): 0.0})
    # the library's empty table (neither targets nor a generator) fails lazily
    empty = TracialSpec(1, 0, 2)
    assert not empty.has_target((1, 1))
    with pytest.raises(ms.SpecTooShallow, match=r"no target for word \(1, 1\)"):
        empty.target((1, 1))


def test_a_table_must_price_every_word_up_to_l_max():
    with pytest.raises(ms.SpecError) as info:
        TracialSpec.from_targets(2, 0, 3, {(1,): 0.0, (2,): 0.0, (1, 1): 1.0})
    assert info.value.problems == [
        "targets: no value for word [1, 2]; 2 of the 3 words of length 2 lack one (l_max=3)"
    ]
    # the walk stops at the first incomplete length, so a huge l_max loads at once
    with pytest.raises(ms.SpecError, match=r"word \[1, 1, 1\]; 1 of the 1 words of length 3"):
        TracialSpec.from_targets(1, 0, 10**6, {(1,): 0.0, (1, 1): 1.0})
    # an explicit empty table is complete at depth 0
    assert TracialSpec.from_dict({"n": 1, "m": 0, "l_max": 0, "targets": []}).targets == {}


def test_required_words_lists_canonical_classes():
    spec = TracialSpec(2, 0, 2)
    assert spec.required_words(2) == ((1,), (2,), (1, 1), (1, 2), (2, 2))


# the number of bracelets (necklaces up to rotation and reversal) of length 1..7
BRACELETS = {2: [2, 3, 4, 6, 8, 13, 18], 3: [3, 6, 10, 21, 39, 92, 198]}  # OEIS A000029, A027671


@pytest.mark.parametrize("letters", sorted(BRACELETS))
def test_canonical_words_are_the_bracelets(letters):
    by_length = [ms.canonical_words(letters, n) for n in range(1, 8)]
    assert [len(words) for words in by_length] == BRACELETS[letters]
    for words in by_length:  # distinct canonical words, as many as the classes: all of them
        assert words == sorted(set(words))
        assert all(ms.canonical_word(w) == w for w in words)
    for l in range(5):
        concat = tuple(w for words in by_length[:l] for w in words)
        assert TracialSpec(letters, 0, l).required_words(l) == concat
        assert concat == tuple(sorted(concat, key=lambda w: (len(w), w)))


def test_marginals_restrict_the_letter_set():
    # the joint spec's words in one letter price that letter's own law
    joint = free_pair_spec()
    for p, want in [(1, 0.0), (2, 1.0), (3, 0.0), (4, 2.0)]:
        assert joint.target((1,) * p) == pytest.approx(want, abs=1e-12)
    for p, want in [(1, 0.0), (2, 1.0), (3, 0.0), (4, 1.0)]:
        assert joint.target((2,) * p) == pytest.approx(want, abs=1e-12)
    assert joint.target((1, 1, 2, 2)) == pytest.approx(1.0, abs=1e-12)


def test_spec_serialization_roundtrip(tmp_path):
    docs = [
        {"n": 1, "m": 1, "l_max": 3,
         "generator": {"kind": "free",
                       "factors": [{"kind": "semicircle", "variance": 1.0},
                                   {"kind": "atomic", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}],
                       "assign": [0, 1]}},
        {"n": 1, "m": 0, "l_max": 2,
         "targets": [{"word": [1], "value": 0.0}, {"word": [1, 1], "value": 1.0}]},
        {"n": 1, "m": 0, "l_max": 2,
         "generator": {"kind": "matrix",
                       "matrices": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]]}},
    ]
    specs = [
        free_pair_spec(3),
        TracialSpec.from_targets(1, 0, 2, {(1,): 0.0, (1, 1): 1.0}),
        TracialSpec(1, 0, 2, generator=ms.MatrixModel([np.diag([1.0, -1.0])])),
    ]
    for doc, spec in zip(docs, specs):
        back = TracialSpec.from_dict(json.loads(json.dumps(doc)))
        assert (back.n, back.m, back.l_max) == (spec.n, spec.m, spec.l_max)
        for w in spec.required_words(2):
            if spec.has_target(w):
                assert back.target(w) == pytest.approx(spec.target(w), abs=1e-12)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(docs[0]))
    loaded = TracialSpec.load(str(path))
    assert loaded.target((1, 1, 2)) == pytest.approx(specs[0].target((1, 1, 2)))


def test_suggested_radius_tracks_support_bounds():
    # a variance-v semicircle lies in [-2 sqrt(v), 2 sqrt(v)]
    assert ms.suggested_radius(sc_spec()) == pytest.approx(6.0)
    wide_sc = TracialSpec.free_model(1, 0, 2, [spectra.SpectralMeasure.semicircle(9.0)], [0])
    assert ms.suggested_radius(wide_sc) == pytest.approx(14.0)
    wide = TracialSpec.free_model(1, 1, 2, [semicircle(), two_atom(2.0)], [0, 1])
    assert ms.suggested_radius(wide) == pytest.approx(6.0)
    model = TracialSpec(1, 0, 2, generator=ms.MatrixModel([np.diag([3.0, -1.0])]))
    assert ms.suggested_radius(model) == pytest.approx(8.0)


def test_atomic_support_sets_the_default_radius():
    # the largest |atom| sits at a negative location
    mu = spectra.SpectralMeasure.atomic([(1.0, 0.5), (-3.0, 0.5)])
    assert mu.support == (-3.0, 1.0)
    spec = TracialSpec.free_model(1, 0, 2, [mu], [0])
    assert ms.suggested_radius(spec) == 8.0


# --- membership -----------------------------------------------------------------


def test_two_atom_membership_window():
    spec = TracialSpec.free_model(1, 0, 2, [two_atom()], [0])
    p = MicrostateParams(k=2, l=2, eps=0.01, radius=4.0)
    good = tuple_of([np.diag([1.0, -1.0])])
    bad = tuple_of([np.eye(2)])
    assert is_microstate(good, spec, p)
    assert not is_microstate(bad, spec, p)


def test_gue_samples_are_usually_semicircle_microstates():
    spec = sc_spec()
    p = MicrostateParams(k=64, l=4, eps=0.3, radius=4.0)
    hits = sum(is_microstate(gue_tuple(64, rng.derive(3, i)), spec, p) for i in range(20))
    assert hits / 20 > 0.5


def test_independent_draws_are_usually_relative_microstates():
    spec = free_pair_spec(3)
    k = 64
    locs = two_atom().quantile((np.arange(k) + 0.5) / k)
    y = tuple_of([np.diag(locs)])
    p = MicrostateParams(k=k, l=3, eps=0.35, radius=4.0)
    joint = [matcore.MatrixTuple(gue_tuple(k, rng.derive(5, i)).mats + y.mats) for i in range(10)]
    hits = sum(is_microstate(t, spec, p) for t in joint)
    assert hits / 10 > 0.3


def test_membership_windows_are_nested_in_eps_and_l():
    spec = sc_spec()
    k = 6
    tuples = [gue_tuple(k, rng.derive(77, i)) for i in range(400)]

    def members(l, eps):
        p = MicrostateParams(k=k, l=l, eps=eps, radius=4.0)
        return [is_microstate(t, spec, p) for t in tuples]

    tight = members(2, 0.2)
    loose = members(2, 0.5)
    deep = members(4, 0.5)
    assert 0 < sum(tight) < sum(loose)
    assert 0 < sum(deep) <= sum(loose)
    assert all(l for t, l in zip(tight, loose) if t)
    assert all(l for d, l in zip(deep, loose) if d)


def _naive_member_mask(xstack, spec, p, yarrs=None):
    """Reference membership of the rows of an (n, count, k, k) stack: eigvalsh
    norms, left-to-right word products."""
    words = spec.required_words(p.l)
    targets = [spec.target(w) for w in words]
    out = []
    for row in np.moveaxis(xstack, 1, 0):
        mats = list(row) + ([] if yarrs is None else list(yarrs))
        ok = all(np.abs(np.linalg.eigvalsh(a)).max() <= p.radius for a in mats)
        for w, tgt in zip(words, targets):
            prod = mats[w[0] - 1]
            for letter in w[1:]:
                prod = prod @ mats[letter - 1]
            ok = ok and abs(np.trace(prod) / p.k - tgt) < p.eps
        out.append(ok)
    return np.array(out, dtype=bool)


@given(
    n=st.sampled_from([1, 2, 3]),
    with_y=st.booleans(),
    k=st.integers(1, 6),
    l=st.integers(0, 4),
    eps=st.floats(0.2, 1.5),
    radius=st.floats(0.8, 3.0),
    variance=st.floats(0.3, 2.5),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_member_mask_matches_the_naive_reference(n, with_y, k, l, eps, radius, variance, seed):
    # radii 0.8..3 put GUE draws at k <= 6 on every side of the Frobenius
    # bound, the x^4 certificate and the operator norm
    factors = [semicircle(), two_atom(), semicircle(), two_atom()][: n + with_y]
    spec = TracialSpec.free_model(n, int(with_y), 4, factors, list(range(n + with_y)))
    p = MicrostateParams(k=k, l=l, eps=eps, radius=radius)
    count = 48
    xstack = np.stack(
        [matcore.gue_stack(k, count, variance, rng.derive(seed, i)) for i in range(n)]
    )
    yarrs = matcore.gue_stack(k, 1, 0.5, rng.derive(seed, 99)) if with_y else None
    test = ms._member_test(spec, p)(yarrs)  # None: a Y norm above R admits no row
    expected = xstack[:, _naive_member_mask(xstack, spec, p, yarrs)]
    got = test(xstack) if test else xstack[:, :0]  # moves the member rows to xstack's front
    assert np.array_equal(got, expected)


@given(st.lists(st.booleans(), max_size=70), st.booleans())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_compaction_moves_the_kept_rows_to_the_front_in_order(ok, with_workspace):
    # at most half kept: runs of rows moved in place; more: through a copy
    ok = np.array(ok, dtype=bool)
    a = np.arange(len(ok) * 6, dtype=float).reshape(-1, 2, 3)
    expected = a[ok]
    got = ms._compact(ok, a, rng.Workspace() if with_workspace else rng.FRESH)
    assert np.shares_memory(got, a) or not len(got)
    assert np.array_equal(got, expected)


def _letter_stacks(n, m, k, rows, seed):
    """n X letters as (rows, k, k) GUE stacks, then m fixed Y letters as one
    (1, k, k) matrix each, as the filter's product cache holds them."""
    xs = [matcore.gue_stack(k, rows, 1.0, rng.derive(seed, i)) for i in range(n)]
    return xs + [matcore.gue_stack(k, 1, 1.0, rng.derive(seed, 50 + j)) for j in range(m)]


@pytest.mark.parametrize("m", [0, 1], ids=["x-only", "fixed-y"])
@pytest.mark.parametrize("k", [1, 3, 4, 6])
def test_each_row_is_traced_alone(k, m):
    # every word up to length 4 in three letters, the last a fixed Y letter
    # when m = 1: a row's trace and word product have the same bits in a
    # batch of one as in batches of 2..9 rows at several offsets
    rows = 16
    letters = _letter_stacks(3 - m, m, k, rows, seed=k)

    def batch(s, e):
        return {(i,): a if len(a) == 1 else a[s:e] for i, a in enumerate(letters, start=1)}

    spans = [(s, s + size) for size in range(2, 10) for s in (0, 3, rows - size)]
    for w in (w for l in range(1, 5) for w in product(range(1, 4), repeat=l)):
        if min(w) > 3 - m:
            continue  # Y-only: one matrix, not a row per sample
        real = ms._real_word(w)
        alone = [
            (ms._trace(batch(r, r + 1), w, real=real), matcore._word_product(batch(r, r + 1), w))
            for r in range(rows)
        ]
        for s, e in spans:
            trace = ms._trace(batch(s, e), w, real=real)
            prod = matcore._word_product(batch(s, e), w)
            for r in range(s, e):
                assert trace[r - s].tobytes() == alone[r][0].tobytes(), (w, s, e, r)
                assert prod[r - s].tobytes() == alone[r][1].tobytes(), (w, s, e, r)


@given(
    n=st.integers(1, 3),
    m=st.integers(0, 1),
    k=st.integers(1, 6),
    rows=st.integers(1, 4),
    word=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, m=0, k=3, rows=1, word=[1, 2, 3], seed=0)  # complex-class
@example(n=2, m=1, k=1, rows=1, word=[1, 2, 3, 3], seed=1)  # broadcast Y at k = 1
@example(n=2, m=1, k=4, rows=3, word=[1, 3, 2, 2, 3], seed=2)  # complex, Y in both halves
@settings(max_examples=80, deadline=None, derandomize=True)
def test_traces_match_the_naive_product(n, m, k, rows, word, seed):
    # a trace may differ from the left-to-right product's in its last bits,
    # by at most 1e-13 times the product of its letters' Frobenius norms,
    # which bounds |tr w| itself; a real-class word returns a real array
    letters = _letter_stacks(n, m, k, rows, seed)
    w = tuple(1 + (i - 1) % (n + m) for i in word)
    real = ms._real_word(w)
    got = ms._trace({(i,): a for i, a in enumerate(letters, start=1)}, w, real=real)
    assert got.dtype == (np.float64 if real else np.complex128)
    assert got.shape == ((1,) if min(w) > n else (rows,))
    for r in range(rows):
        mats = [letters[i - 1][min(r, len(letters[i - 1]) - 1)] for i in w]
        want = np.trace(reduce(np.matmul, mats))
        bound = 1e-13 * math.prod(np.linalg.norm(a) for a in mats)
        assert abs(got[min(r, len(got) - 1)] - want) <= bound, (w, r)


def test_a_three_letter_matrix_spec_traces_its_own_tuple():
    # every word up to length 4 of a kind "matrix" spec, (1, 2, 3) complex:
    # the filter's traces of the model's own matrices, as one-row stacks,
    # are its targets
    spec = TracialSpec.from_dict(
        {"n": 3, "m": 0, "l_max": 4,
         "generator": {"kind": "matrix", "matrices": [
             [[[c.real, c.imag] for c in row] for row in a] for a in random_model(3, 3, 8)
         ]}}
    )
    cache = {(i,): m.array[None] for i, m in enumerate(spec.generator.tuple, start=1)}
    assert abs(spec.target((1, 2, 3)).imag) > 0.1
    for w in spec.required_words(4):
        real = ms._real_word(w)
        got = ms._trace(cache, w, real=real) / 3
        assert got.dtype == (np.float64 if real else np.complex128)
        assert got[0] == pytest.approx(spec.target(w), rel=1e-13, abs=1e-13), w


@given(
    k=st.integers(1, 5),
    l=st.integers(1, 4),
    eps=st.sampled_from([0.5, 0.1]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_membership_is_invariant_under_unitary_conjugation(k, l, eps, seed):
    # a model's own words sit on target, its targets shifted by 2 eps miss
    # by eps: both verdicts keep a margin of eps from the window edge
    own = TracialSpec(2, 0, l, generator=ms.MatrixModel(random_model(2, k, seed)))
    shifted = TracialSpec.from_targets(
        2, 0, l, {w: own.target(w) + 2.0 * eps for w in own.required_words(l)}
    )
    t = own.generator.tuple
    g = np.random.default_rng([seed, 1])
    q, _ = np.linalg.qr(g.standard_normal((k, k)) + 1j * g.standard_normal((k, k)))
    moved = matcore.MatrixTuple(
        [matcore.SelfAdjointMatrix.hermitian_part(q @ m.array @ q.conj().T) for m in t]
    )
    radius = 1.0 + float(matcore.operator_norms(t.stack()).max())
    p = MicrostateParams(k=k, l=l, eps=eps, radius=radius)
    for spec, member in ((own, True), (shifted, False)):
        assert is_microstate(t, spec, p) == is_microstate(moved, spec, p) == member


def test_membership_validation_errors():
    spec = TracialSpec.from_targets(1, 0, 2, {(1,): 0.0, (1, 1): 1.0})
    t = gue_tuple(4, 0)
    with pytest.raises(ms.SpecTooShallow):
        is_microstate(t, spec, MicrostateParams(k=4, l=3, eps=0.1, radius=4.0))


def test_params_validation():
    nan, inf = float("nan"), float("inf")
    for bad in [dict(k=0, l=2, eps=0.1, radius=4.0), dict(k=2, l=-1, eps=0.1, radius=4.0),
                dict(k=2, l=2, eps=0.0, radius=4.0), dict(k=2, l=2, eps=0.1, radius=0.0),
                dict(k=2, l=2, eps=nan, radius=4.0), dict(k=2, l=2, eps=inf, radius=4.0),
                dict(k=2, l=2, eps=0.1, radius=nan), dict(k=2, l=2, eps=0.1, radius=inf),
                dict(k=2, l=2, eps=0.1, radius=-inf)]:
        with pytest.raises(ValueError):
            MicrostateParams(**bad)


def test_params_name_every_bad_field():
    with pytest.raises(ms.SettingsError) as err:
        MicrostateParams(k=0, l="2", eps=float("nan"), radius=-3.0)
    assert err.value.problems == [
        "k must be an integer >= 1, not 0",
        "l must be an integer >= 0, not '2'",
        "eps must be positive and finite, not nan",
        "radius must be positive and finite, not -3.0",
    ]


# --- volume estimators -----------------------------------------------------------


def test_unconstrained_interval_volume_is_exact():
    spec = TracialSpec.from_targets(1, 0, 0, {})
    p = MicrostateParams(k=1, l=0, eps=0.1, radius=2.0)
    ve = ms.estimate_volume(spec, p, sampler="ball", nsamples=1000, seed=1)
    assert ve.log_volume == pytest.approx(math.log(4.0), abs=1e-14)
    assert ve.stderr_log == 0.0
    assert ve.accepted == ve.samples == 1000
    assert ve.method == "ball-rejection"
    vi = ms.estimate_volume(spec, p, sampler="importance", nsamples=20000, seed=2)
    assert vi.method == "gaussian-importance"
    assert abs(vi.log_volume - math.log(4.0)) < 3.0 * vi.stderr_log


def test_point_mass_window_volume_matches_interval():
    spec = TracialSpec.free_model(1, 0, 2, [spectra.SpectralMeasure.atomic([(0.0, 1.0)])], [0])
    p = MicrostateParams(k=1, l=2, eps=0.01, radius=2.0)
    ve = ms.estimate_volume(spec, p, sampler="ball", nsamples=200_000, seed=4)
    # the first-moment window |x| < eps binds: volume 2 eps
    assert abs(ve.log_volume - math.log(0.02)) < 3.0 * ve.stderr_log
    assert ve.stderr_log < 0.01


def test_ball_and_importance_estimates_agree():
    spec = sc_spec(2)
    p = MicrostateParams(k=4, l=2, eps=0.5, radius=4.0)
    vb = ms.estimate_volume(spec, p, sampler="ball", nsamples=200_000, seed=7)
    vi = ms.estimate_volume(spec, p, sampler="importance", nsamples=200_000, seed=8)
    assert vb.accepted > 1000 and vi.accepted > 1000
    sigma = math.hypot(vb.stderr_log, vi.stderr_log)
    assert abs(vb.log_volume - vi.log_volume) < 3.0 * sigma


def test_volume_is_thread_count_invariant_and_rerunnable():
    spec = sc_spec(2)
    p = MicrostateParams(k=3, l=2, eps=0.4, radius=4.0)
    one = ms.estimate_volume(spec, p, sampler="importance", nsamples=30_000, seed=9, threads=1)
    four = ms.estimate_volume(spec, p, sampler="importance", nsamples=30_000, seed=9, threads=4)
    again = ms.estimate_volume(spec, p, sampler="importance", nsamples=30_000, seed=9, threads=1)
    assert one.log_volume == four.log_volume == again.log_volume
    assert one.stderr_log == four.stderr_log == again.stderr_log
    pb = MicrostateParams(k=2, l=2, eps=0.4, radius=4.0)
    b1 = ms.estimate_volume(spec, pb, sampler="ball", nsamples=20_000, seed=10, threads=1)
    b3 = ms.estimate_volume(spec, pb, sampler="ball", nsamples=20_000, seed=10, threads=3)
    assert b1.log_volume == b3.log_volume


@given(
    sampler=st.sampled_from(["ball", "importance"]),
    k=st.integers(1, 3),
    nsamples=st.integers(4097, 9000),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=6, deadline=None, derandomize=True)
def test_volume_is_bit_identical_at_one_and_two_threads(sampler, k, nsamples, seed):
    # more than one 4096-sample chunk, so the second thread has work
    spec = sc_spec(2)
    p = MicrostateParams(k=k, l=2, eps=0.4, radius=4.0)
    one = ms.estimate_volume(spec, p, sampler, nsamples=nsamples, seed=seed, threads=1)
    two = ms.estimate_volume(spec, p, sampler, nsamples=nsamples, seed=seed, threads=2)
    assert one == two


SPLIT_CASES = {
    "semicircle-k12": (sc_spec(), 12),
    "semicircle-k16": (sc_spec(), 16),
    "free-pair-k9": (TracialSpec.free_model(2, 0, 4, [semicircle(), two_atom()], [0, 1]), 9),
    "conditioned-k9": (free_pair_spec(), 9),
}


def _sampler_passes(monkeypatch, spec, p, sampler, y, nsamples):
    """rng.words calls of one single-threaded estimate: one per sampler pass."""
    calls = []
    words = rng.words
    monkeypatch.setattr(rng, "words", lambda *a, **kw: calls.append(a) or words(*a, **kw))
    ms.estimate_volume(spec, p, sampler, y, nsamples, seed=3, threads=1)
    monkeypatch.setattr(rng, "words", words)
    return len(calls)


@pytest.mark.parametrize("sampler", ["importance", "ball"])
@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_volume_is_bit_identical_across_sub_block_sizes(monkeypatch, case, sampler):
    # every case has n k^2 > 16, where the default size splits each chunk
    spec, k = SPLIT_CASES[case]
    if sampler == "importance":
        p = MicrostateParams(k=k, l=4, eps=0.4, radius=4.0)
    else:
        # ball draws fail a depth-4 window; at R = 2.1 about half of them pass
        # the norm test, some only after an eigen-solve
        p = MicrostateParams(k=k, l=2, eps=0.4, radius=2.1)
    y = ms.y_candidates(spec, p, 1, seed=1)[0][1] if spec.m else None
    nkk = spec.n * k * k
    default_rows = ms._SUBBLOCK_ENTRIES // nkk
    assert 1 < default_rows < ms._CHUNK

    # at the default size each letter fills a sub-block in one sampler pass,
    # with n = 2 letters at the semicircle cases' k as well
    pair = SPLIT_CASES["free-pair-k9"][0]
    for s, ys in [(spec, y)] + ([(pair, None)] if case.startswith("semicircle") else []):
        most = ms._SUBBLOCK_ENTRIES // (s.n * k * k)  # rows per sub-block, at most
        sub_blocks = -(-ms._CHUNK // most) + -(-157 // most)
        assert _sampler_passes(monkeypatch, s, p, sampler, ys, 4096 + 157) == s.n * sub_blocks

    def run(rows, threads, nsamples=4096 + 157):
        # by default two chunks, the second short, so the second thread has work
        monkeypatch.setattr(ms, "_SUBBLOCK_ENTRIES", rows * nkk)
        return ms.estimate_volume(spec, p, sampler, y, nsamples, seed=3, threads=threads)

    whole = run(ms._CHUNK, 1)
    assert 0 < whole.accepted < whole.samples
    for rows, threads in ((777, 1), (777, 2), (default_rows, 1), (default_rows, 2), (ms._CHUNK, 2)):
        assert run(rows, threads) == whole, (rows, threads)
    # one-row sub-blocks pay a filter pass per row, so they run on a short stream
    assert run(1, 1, 300) == run(ms._CHUNK, 1, 300)


@pytest.mark.parametrize("sampler", ["importance", "ball"])
def test_the_sampler_fills_each_letter_of_a_sub_block_in_place(monkeypatch, sampler):
    # the X block is letter-major, (n, rows, k, k), so every letter's rows are
    # one C-contiguous array: no sampler pass gathers into a strided slot
    outs = []
    for name in ("gue_stack", "ball_stack"):
        def recording(*a, sample=getattr(matcore, name), **kw):
            outs.append(kw["out"])
            return sample(*a, **kw)

        monkeypatch.setattr(matcore, name, recording)
    spec, k = SPLIT_CASES["free-pair-k9"]
    p = MicrostateParams(k=k, l=2, eps=0.4, radius=2.1)
    ve = ms.estimate_volume(spec, p, sampler, nsamples=4096 + 157, seed=3, threads=1)
    assert ve.accepted > 0
    assert len(outs) > spec.n
    assert all(out.flags.c_contiguous for out in outs)


def _workspace_bytes():
    # tracemalloc does not see a workspace's buffer, an anonymous memory map
    return {id(ws): ws._buf.nbytes for ws in ms._WORKSPACES}


def test_estimate_volume_memory_does_not_grow_with_the_chunk(monkeypatch):
    # a whole 4096-sample chunk at k=16, or of a pair at k=8, is 16 MiB of X
    # matrices alone; the sub-blocks hold about 1 MiB of them
    for spec, k in ((sc_spec(), 16), (SPLIT_CASES["free-pair-k9"][0], 8)):
        monkeypatch.setattr(ms, "_WORKSPACES", [])
        p = MicrostateParams(k=k, l=4, eps=0.4, radius=4.0)
        ms.estimate_volume(spec, p, "importance", nsamples=100, seed=0)  # fill the caches
        tracemalloc.start()
        try:
            ms.estimate_volume(spec, p, "importance", nsamples=4096, seed=0, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, (spec.n, k, peak)
        # the sub-blocks themselves live in the one worker's workspace
        held = list(_workspace_bytes().values())
        assert len(held) == 1 and held[0] <= 3 * 2**20, (spec.n, k, held)
        assert peak + held[0] < 6 * 2**20, (spec.n, k, peak, held)


WARM_CASES = {
    "semicircle": sc_spec(),
    "free-pair": SPLIT_CASES["free-pair-k9"][0],
    "free-triple": TracialSpec.free_model(3, 0, 4, [semicircle(), two_atom()], [0, 1, 0]),
}


@pytest.mark.parametrize("case", list(WARM_CASES))
@pytest.mark.parametrize("threads", [1, 2])
def test_a_warm_estimate_allocates_no_sub_block(monkeypatch, threads, case):
    # a sub-block at k=8 needs 1 MiB of X matrices and as much again of word
    # products and sampler scratch; a warm workspace lends all of it, so what
    # the call itself allocates (weights, traces, masks) stays under half an
    # X.  Each letter of X is one contiguous array, which the sampler fills
    # in place, with its own memory lending the sampler's scratch
    monkeypatch.setattr(ms, "_WORKSPACES", [])
    spec = WARM_CASES[case]
    p = MicrostateParams(k=8, l=4, eps=0.4, radius=4.0)
    ms.estimate_volume(spec, p, "importance", nsamples=2 * 4096, seed=0, threads=threads)
    warm = _workspace_bytes()
    tracemalloc.start()
    try:
        ms.estimate_volume(spec, p, "importance", nsamples=4096, seed=1, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 2**10, peak
    # what the workspaces hold instead: at most one per thread, each at most
    # 3 MiB, and a larger call (more chunks, a short tail) grows no warm one
    ms.estimate_volume(spec, p, "importance", nsamples=5 * 4096 + 157, seed=2, threads=threads)
    held = _workspace_bytes()
    assert 1 <= len(held) <= threads
    assert max(held.values()) <= 3 * 2**20, held
    assert {key: held[key] for key in warm} == warm


@pytest.mark.parametrize("threads", [1, 2])
def test_workspace_reuse_never_leaks_into_a_result(monkeypatch, threads):
    monkeypatch.setattr(ms, "_WORKSPACES", [])  # cold: no workspace kept yet
    pair = SPLIT_CASES["free-pair-k9"][0]
    cases = [
        (sc_spec(), MicrostateParams(k=6, l=4, eps=0.4, radius=4.0), "importance", 4096 + 157),
        (pair, MicrostateParams(k=3, l=2, eps=0.4, radius=2.1), "ball", 4096 + 300),
    ]
    cold = [ms.estimate_volume(s, p, smp, nsamples=ns, seed=5, threads=threads)
            for s, p, smp, ns in cases]
    # grow the workspaces (two letters at k = 9, a k = 16 sub-block), then
    # shrink the demand (k = 2, few samples), and measure again
    others = [
        (pair, MicrostateParams(k=9, l=4, eps=0.4, radius=4.0), "importance", 8192),
        (sc_spec(), MicrostateParams(k=16, l=4, eps=0.4, radius=4.0), "ball", 300),
        (sc_spec(), MicrostateParams(k=2, l=2, eps=0.4, radius=4.0), "importance", 100),
    ]
    for s, p, smp, ns in others:
        ms.estimate_volume(s, p, smp, nsamples=ns, seed=9, threads=threads)
    assert 1 <= len(ms._WORKSPACES) <= threads
    warm = [ms.estimate_volume(s, p, smp, nsamples=ns, seed=5, threads=threads)
            for s, p, smp, ns in cases]
    assert warm == cold
    assert all(0 < v.accepted < v.samples for v in cold)


def test_workspace_free_list_survives_many_workers(monkeypatch):
    # more workers than cores, switching threads often: a lost update of the
    # free list would drop a workspace or lend one to two workers at once
    monkeypatch.setattr(ms, "_WORKSPACES", [])
    p = MicrostateParams(k=3, l=4, eps=0.4, radius=4.0)
    whole = ms.estimate_volume(sc_spec(), p, "importance", nsamples=8 * 4096, seed=2, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = ms.estimate_volume(sc_spec(), p, "importance", nsamples=8 * 4096, seed=2,
                                     threads=8)
            assert got == whole
    finally:
        sys.setswitchinterval(interval)
    assert 1 <= len(ms._WORKSPACES) <= 8
    assert len({id(ws) for ws in ms._WORKSPACES}) == len(ms._WORKSPACES)


def test_public_samplers_return_fresh_arrays():
    # called without a workspace, a second call must not overwrite the first
    calls = [
        lambda s: rng.words(s, 0, 64),
        lambda s: rng.normals_from_words(rng.words(s, 0, 64)),
        lambda s: matcore.gue_stack(3, 5, 1.0, s),
        lambda s: matcore.ball_stack(3, 5, 2.0, s),
    ]
    for call in calls:
        first = call(1)
        kept = first.copy()
        second = call(2)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert not np.array_equal(second, kept)


def test_zero_acceptance_reports_an_upper_bound():
    # scalar microstates cannot satisfy tau(y) ~ 0 and tau(y^2) ~ 1 at once
    spec = TracialSpec.free_model(1, 0, 2, [two_atom()], [0])
    p = MicrostateParams(k=1, l=2, eps=0.1, radius=2.0)
    ve = ms.estimate_volume(spec, p, sampler="ball", nsamples=1000, seed=3)
    assert ve.log_volume == float("-inf")
    assert ve.accepted == 0
    assert np.isfinite(ve.upper_bound)
    vi = ms.estimate_volume(spec, p, sampler="importance", nsamples=1000, seed=3)
    assert vi.log_volume == float("-inf")
    assert vi.upper_bound == pytest.approx(
        matcore.ball_log_volume(1, 2.0) - math.log(1000), abs=1e-12
    )


@pytest.mark.parametrize("sampler", ["importance", "ball"])
def test_a_y_tuple_failing_a_y_only_word_draws_nothing(monkeypatch, sampler):
    # tau(y) = 1/3 misses the two-atom law's mean 0 by more than eps, while
    # ||y|| = 1 <= R: the word (2,) alone rules out every X row
    spec = free_pair_spec(4)
    p = MicrostateParams(k=3, l=4, eps=0.2, radius=4.0)
    y = tuple_of([np.diag([1.0, 1.0, -1.0]).astype(complex)])
    draws = []
    for name in ("gue_stack", "ball_stack"):
        monkeypatch.setattr(matcore, name, lambda *a, name=name, **kw: draws.append(name))
    ve = ms.estimate_volume(spec, p, sampler, y, nsamples=1000, seed=3)
    assert draws == []
    assert (ve.log_volume, ve.stderr_log, ve.accepted) == (float("-inf"), float("inf"), 0)
    radius = p.radius if sampler == "importance" else math.sqrt(1.0 + p.eps)
    assert ve.upper_bound == matcore.ball_log_volume(3, radius) - math.log(1000)


def test_volume_validation_errors():
    spec = sc_spec(2)
    p = MicrostateParams(k=2, l=2, eps=0.4, radius=4.0)
    with pytest.raises(ValueError, match="nsamples must be an integer >= 100"):
        ms.estimate_volume(spec, p, nsamples=50)
    with pytest.raises(ValueError, match="unknown sampler"):
        ms.estimate_volume(spec, p, sampler="quadrature")
    pair = free_pair_spec(2)
    with pytest.raises(ValueError, match="pass the fixed y"):
        ms.estimate_volume(pair, p)
    y_bad = tuple_of([np.eye(3)])
    with pytest.raises(ValueError, match="dimension"):
        ms.estimate_volume(pair, p, y=y_bad)
    two_y = tuple_of([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="arity"):
        ms.estimate_volume(pair, p, y=two_y)


def test_volume_settings_follow_the_sweep_rules():
    spec = sc_spec(2)
    p = MicrostateParams(k=2, l=2, eps=0.4, radius=4.0)
    with pytest.raises(ms.SettingsError) as err:
        ms.estimate_volume(spec, p, nsamples=150.0, threads=-3)
    assert err.value.problems == [
        "nsamples must be an integer >= 100, not 150.0",
        "threads must be an integer >= 0, not -3",
    ]
    with pytest.raises(ms.SettingsError, match="threads must be an integer >= 0, not -3"):
        ms.estimate_volume(spec, p, threads=-3, nsamples=200)


# --- chi sweeps -------------------------------------------------------------------


def test_chi_normalization_identity():
    spec = TracialSpec.from_targets(1, 0, 0, {})
    est = ms.estimate_chi(spec, Sweep([1, 2], 0, 0.1, 2.0, nsamples=1000, seed=1))  # ball at k <= 2
    # k = 1: interval volume is exact and the stderr vanishes
    assert est.per_k[0].value == pytest.approx(math.log(4.0), abs=1e-14)
    assert est.per_k[0].stderr == 0.0
    for pt in est.per_k:
        want = pt.log_volume / pt.k**2 + 0.5 * spec.n * math.log(pt.k)
        assert pt.value == pytest.approx(want, abs=1e-14)
    assert est.extrapolated == pytest.approx(
        max(pt.value - pt.stderr for pt in est.per_k), abs=1e-14
    )
    best = max(est.per_k, key=lambda pt: pt.value - pt.stderr)
    assert est.sigma == best.stderr


def test_chi_semicircle_sweep_approaches_the_limit():
    spec = sc_spec()
    est = ms.estimate_chi(spec, Sweep([2, 3, 4], 4, 0.4, 4.0, nsamples=30_000, seed=11))
    vals = [pt.value for pt in est.per_k]
    assert vals[0] < vals[1] < vals[2]
    assert 1.0 < est.extrapolated < 1.45


def test_chi_rerun_is_bitwise_deterministic():
    spec = sc_spec(2)
    sweep = Sweep([2, 3], 2, 0.4, 4.0, nsamples=20_000, seed=5)
    a = ms.estimate_chi(spec, sweep)
    b = ms.estimate_chi(spec, sweep)
    assert a == b


def test_chi_input_validation():
    spec = sc_spec(2)
    with pytest.raises(ValueError, match="ascending"):
        ms.estimate_chi(spec, Sweep([3, 2], 2, 0.4, 4.0, nsamples=1000))
    with pytest.raises(ValueError, match="ascending"):
        ms.estimate_chi(spec, Sweep([], 2, 0.4, 4.0, nsamples=1000))
    with pytest.raises(ValueError, match="ascending"):
        ms.estimate_chi(free_pair_spec(2), Sweep([3, 2], 2, 0.4, 4.0, nsamples=1000, y_pool=2))


def test_sweep_lists_every_bad_setting_and_stores_converted_values():
    with pytest.raises(ms.SettingsError) as err:
        Sweep((2, 1), -1, 0.0, float("inf"), nsamples=99, seed="s", threads=-1, y_pool=0)
    assert err.value.heading == "invalid settings"
    assert err.value.problems == [
        "k_list must be ascending positive integers, not (2, 1)",
        "l must be an integer >= 0, not -1",
        "eps must be positive and finite, not 0.0",
        "radius must be positive and finite, not inf",
        "nsamples must be an integer >= 100, not 99",
        "threads must be an integer >= 0, not -1",
        "y_pool must be an integer >= 1, not 0",
        "seed must be an integer, not 's'",
    ]
    sweep = Sweep([np.int64(2), 3], np.int64(2), 1, 4, nsamples=np.int64(100))
    assert sweep == Sweep((2, 3), 2, 1.0, 4.0, nsamples=100)
    assert type(sweep.k_list) is tuple and type(sweep.eps) is float
    assert type(sweep.nsamples) is int
    assert sweep.at(3) == MicrostateParams(k=3, l=2, eps=1.0, radius=4.0)


def test_chi_on_every_core_is_bit_identical_to_one_thread(monkeypatch):
    # threads 0 means every core: two here, and 8,192 samples are two chunks
    workers = []
    pool = ms.ThreadPoolExecutor

    def recording(max_workers):
        workers.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(ms.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(ms, "ThreadPoolExecutor", recording)
    spec = sc_spec(2)
    sweep = Sweep([3, 4], 2, 0.4, 4.0, nsamples=8192, seed=4, threads=1)
    one = ms.estimate_chi(spec, sweep)
    assert workers == []
    assert ms.estimate_chi(spec, replace(sweep, threads=0)) == one
    assert workers == [2, 2]
    # one chunk runs on the calling thread, and a pool has no more workers than chunks
    workers.clear()
    ms.estimate_chi(spec, replace(sweep, nsamples=4096, threads=0))
    assert workers == []
    assert ms.estimate_chi(spec, replace(sweep, threads=8)) == one
    assert workers == [2, 2]
    # a pool: each k's Y candidates are settled, then each is measured on two
    # threads, through the fixed-Y products and traces of every sub-block
    spec, sweep = free_pair_spec(), replace(sweep, l=4, y_pool=2)
    workers.clear()
    one = ms.estimate_chi(spec, sweep)
    assert workers == [] and all(math.isfinite(pt.log_volume) for pt in one.per_k)
    assert ms.estimate_chi(spec, replace(sweep, threads=0)) == one
    assert len(workers) >= 2 and set(workers) == {2}


# --- relative chi -------------------------------------------------------------------


def _is_y_microstate(tup, spec, p):
    """Reference: eigvalsh norms, and left-to-right traces of every Y-only word."""
    ywords = [w for w in spec.required_words(p.l) if min(w) > spec.n]
    ys = tup.stack()

    def tau(w):
        acc = np.eye(p.k)
        for i in w:
            acc = acc @ ys[i - spec.n - 1]
        return np.trace(acc) / p.k

    return bool((matcore.operator_norms(ys) <= p.radius).all()) and all(
        abs(tau(w) - spec.target(w)) < p.eps for w in ywords
    )


def test_y_candidates_pass_the_marginal_test():
    spec = free_pair_spec(3)
    p = MicrostateParams(k=8, l=3, eps=0.3, radius=4.0)
    cands = ms.y_candidates(spec, p, 4, seed=6)
    assert len(cands) == 4
    for desc, tup in cands:
        assert desc.startswith("free#")
        assert _is_y_microstate(tup, spec, p)
    # a rejecting window: a semicircle Y rarely meets its depth-4 words at eps 0.15
    sc_y = TracialSpec.free_model(1, 1, 4, [semicircle(), semicircle()], [0, 1])
    ps = MicrostateParams(k=6, l=4, eps=0.15, radius=4.0)
    scands = ms.y_candidates(sc_y, ps, 2, seed=6)
    assert scands and int(scands[-1][0].split("#")[1]) >= len(scands)  # some attempt failed
    assert all(_is_y_microstate(tup, sc_y, ps) for _, tup in scands)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = TracialSpec(1, 1, 2, generator=ms.MatrixModel([flip, np.diag([1.0, -1.0])]))
    pm = MicrostateParams(k=4, l=2, eps=0.2, radius=4.0)
    mcands = ms.y_candidates(model, pm, 2, seed=6)
    assert mcands and all(d.startswith("model#") for d, _ in mcands)
    assert all(_is_y_microstate(tup, model, pm) for _, tup in mcands)
    podd = MicrostateParams(k=3, l=2, eps=0.2, radius=4.0)
    assert ms.y_candidates(model, podd, 2, seed=6) == []
    with pytest.raises(ValueError, match="no Y letters"):
        ms.y_candidates(sc_spec(), p, 1, seed=6)


def test_relative_chi_of_a_free_pair_matches_the_x_marginal():
    spec = free_pair_spec()
    est = ms.estimate_chi(spec, Sweep([2, 3], 3, 0.4, 4.0, nsamples=20_000, seed=21, y_pool=6))
    assert 0.8 < est.extrapolated < 1.5
    assert est.y_used.startswith("k=2:") and "; k=3:" in est.y_used
    assert est.y_used == "; ".join(f"k={pt.k}:{pt.y_id}" for pt in est.per_k)
    assert all(pt.y_id.startswith("free#") for pt in est.per_k)


def test_relative_chi_detects_exact_correlation():
    corr = TracialSpec.free_model(1, 1, 4, [semicircle()], [0, 0])
    sweep = Sweep([3, 4], 2, 0.2, 4.0, nsamples=30_000)
    rel = ms.estimate_chi(corr, replace(sweep, seed=22, y_pool=4))
    plain = ms.estimate_chi(
        TracialSpec.free_model(1, 0, 4, [semicircle()], [0]), replace(sweep, seed=23)
    )
    for rp, pp in zip(rel.per_k, plain.per_k):
        assert pp.value - rp.value > 0.25


def test_relative_reduces_to_plain_without_y_letters():
    spec = sc_spec(2)
    sweep = Sweep([2], 2, 0.4, 4.0, nsamples=5000, seed=3)
    a = ms.estimate_chi(spec, replace(sweep, y_pool=4))
    b = ms.estimate_chi(spec, sweep)
    assert a == b and not a.y_used


def test_pool_of_minus_inf_volumes_names_its_first_candidate(monkeypatch):
    # the Y law's quantile diagonals pass a tiny window, no X sample does
    spec = free_pair_spec(2)
    vols = []
    real = ms.estimate_volume

    def recording(*args, **kwargs):
        ve = real(*args, **kwargs)
        vols.append(ve.log_volume)
        return ve

    monkeypatch.setattr(ms, "estimate_volume", recording)
    est = ms.estimate_chi(spec, Sweep([2], 2, 1e-3, 4.0, nsamples=300, seed=8, y_pool=3))
    assert vols == [float("-inf")] * 3
    assert est.per_k[0].log_volume == float("-inf")
    assert est.per_k[0].y_id == "free#0"
    assert est.y_used == "k=2:free#0"


def test_relative_empty_pool_reports_minus_inf():
    spec = free_pair_spec(2)
    est = ms.estimate_chi(spec, Sweep([1], 2, 0.05, 4.0, nsamples=200, seed=25, y_pool=4))
    assert est.extrapolated == float("-inf")
    assert "empty sup" in est.y_used
    assert est.per_k[0].value == float("-inf")
    assert est.per_k[0].y_id == "none (no 1-dim Y-microstates found; empty sup)"


# --- block maps ----------------------------------------------------------------------


def test_block_split_scalar_blocks():
    z = tuple_of(
        [np.array([[2.0, 3.0 + 4.0j], [3.0 - 4.0j, 5.0]])]
    )
    parts = ms.block_split(z, 2)
    # (i, j) lexicographic: diagonal entries, Im of the upper block,
    # Re of the lower block
    got = [float(m.array[0, 0].real) for m in parts.mats]
    assert got == pytest.approx([2.0, 4.0, 3.0, 5.0], abs=1e-14)


def test_block_roundtrip_and_parseval():
    for k, order, seed in [(6, 2, 1), (6, 3, 2), (8, 4, 3)]:
        z = gue_tuple(k, seed)
        parts = ms.block_split(z, order)
        assert parts.n == order * order
        back = ms.block_assemble(parts, order)
        assert np.max(np.abs(back.mats[0].array - z.mats[0].array)) < 1e-13
        # Tr z^2 = sum_i Tr Y_ii^2 + 2 sum_{i != j} Tr Y_ij^2
        total = 0.0
        for idx in range(order * order):
            i, j = divmod(idx, order)
            w = 1.0 if i == j else 2.0
            y = parts.mats[idx].array
            total += w * float(np.trace(y @ y).real)
        want = float(np.trace(z.mats[0].array @ z.mats[0].array).real)
        assert total == pytest.approx(want, rel=1e-12)


def test_block_split_order_one_is_identity():
    z = gue_tuple(4, 9)
    parts = ms.block_split(z, 1)
    assert parts.n == 1
    assert np.array_equal(parts.mats[0].array, z.mats[0].array)


def test_block_map_validation_errors():
    z = gue_tuple(6, 1)
    with pytest.raises(ValueError, match="not divisible"):
        ms.block_split(z, 4)
    with pytest.raises(ValueError, match=">= 1"):
        ms.block_split(z, 0)
    parts = ms.block_split(z, 2)
    short = matcore.MatrixTuple(list(parts.mats[:3]))
    with pytest.raises(ValueError, match="do not fill"):
        ms.block_assemble(short, 2)


def test_from_dict_rejects_repeated_word_with_different_values():
    doc = {
        "n": 2, "m": 0, "l_max": 2,
        "targets": [
            {"word": [1, 1], "value": 1.0},
            {"word": [1], "value": 0.0},
            {"word": [1, 1], "value": 3.0},
            {"word": [1, 2], "value": 0.5},
            {"word": [1, 2], "value": 0.25},
        ],
    }
    with pytest.raises(ValueError, match=r"\[1, 1\] \(1.0 vs 3.0\).*\[1, 2\] \(0.5 vs 0.25\)"):
        TracialSpec.from_dict(doc)
    # a repeat within the target tolerance is the same target, not a conflict
    doc["targets"] = [{"word": [1, 1], "value": 1.0}, {"word": [1, 1], "value": 1.0 + 1e-13}] + [
        {"word": w, "value": v} for w, v in (([1], 0.0), ([2], 0.0), ([1, 2], 0.5), ([2, 2], 1.0))
    ]
    assert TracialSpec.from_dict(doc).target((1, 1)) == pytest.approx(1.0, abs=1e-12)
