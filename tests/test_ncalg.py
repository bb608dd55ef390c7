"""Polynomial calculus: normal forms, difference quotients, Jacobians,
log-determinant functional, majorants, perturbative inverses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freelab import matcore, ncalg
from freelab.ncalg import CoefficientAlgebra, NcBiPoly, NcPoly


def sa(a):
    return matcore.SelfAdjointMatrix.hermitian_part(np.asarray(a, dtype=complex))


def rand_sa(rng, k):
    return sa(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))


def rand_tuple(rng, n, k):
    return matcore.MatrixTuple([rand_sa(rng, k) for _ in range(n)])


def rand_poly(rng, n, max_deg, nterms):
    f = NcPoly.zero(n)
    for _ in range(nterms):
        deg = int(rng.integers(0, max_deg + 1))
        term = NcPoly.scalar(n, float(rng.normal()))
        for _ in range(deg):
            term = term * NcPoly.indet(n, int(rng.integers(1, n + 1)))
        f = f + term
    return f


def as_array(v):
    return v.array if isinstance(v, matcore.SelfAdjointMatrix) else v


# --- ring structure ---------------------------------------------------------


def test_multiply_by_one_and_squares():
    t1 = NcPoly.indet(2, 1)
    f = t1 * NcPoly.indet(2, 2) + 3.0 * t1
    assert f * NcPoly.one(2) == f
    sq = t1 * t1
    x1 = sa(np.diag([1.0, -1.0]))
    x2 = sa(np.eye(2))
    val = ncalg.evaluate(sq, matcore.MatrixTuple([x1, x2]))
    assert abs(matcore.normalized_trace(val) - 1.0) < 1e-15


def test_multiply_concatenates_coefficients():
    rng = np.random.default_rng(0)
    alg = CoefficientAlgebra.matrix_model(
        {"b": rng.normal(size=(2, 2)), "c": rng.normal(size=(2, 2))}
    )
    f = NcPoly.coefficient(2, "b", alg) * NcPoly.indet(2, 1)
    g = NcPoly.indet(2, 2) * NcPoly.coefficient(2, "c", alg)
    prod = f * g
    assert len(prod.terms) == 1
    ((word, coefs),) = prod.terms
    assert word == (1, 2)
    assert coefs == ((("b", False),), (), (("c", False),))


def test_mismatched_algebras_rejected():
    a1 = CoefficientAlgebra.matrix_model({"b": np.eye(2)})
    a2 = CoefficientAlgebra.matrix_model({"c": np.eye(3)})
    f = NcPoly.coefficient(1, "b", a1)
    g = NcPoly.coefficient(1, "c", a2)
    with pytest.raises(ValueError):
        f * g


def test_mismatched_arities_rejected():
    # a sum kept the left operand's arity, so f + g and g + f differed
    f, g = NcPoly.indet(2, 1), NcPoly.indet(3, 1)
    ff, gg = NcBiPoly.tensor(f, f), NcBiPoly.tensor(g, g)
    for op in (lambda: f + g, lambda: g + f, lambda: g - f, lambda: f * g, lambda: ff * gg):
        with pytest.raises(ValueError, match="arity mismatch"):
            op()


def test_adjoint_and_selfadjointness():
    t1, t2 = NcPoly.indet(2, 1), NcPoly.indet(2, 2)
    assert (t1 * t2).adjoint() == t2 * t1
    assert (t1 * t2 + t2 * t1).is_selfadjoint()
    assert not (t1 * t2).is_selfadjoint()
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    alg = CoefficientAlgebra.matrix_model({"b": b})
    assert not (NcPoly.coefficient(1, "b", alg) * NcPoly.indet(1, 1)).is_selfadjoint()
    h = np.array([[1.0, 2.0], [2.0, -1.0]])
    alg2 = CoefficientAlgebra.matrix_model({"h": h})
    assert (NcPoly.coefficient(1, "h", alg2) * 1.0).is_selfadjoint()


def test_hermitian_generator_star_folds():
    h = np.array([[1.0, 2.0], [2.0, -1.0]])
    alg = CoefficientAlgebra.matrix_model({"h": h})
    starred = NcPoly.coefficient(1, "h", alg, star=True)
    assert starred == NcPoly.coefficient(1, "h", alg)


# one product rule: Gaussian-integer scalars keep every product and sum
# exact, so the ring laws hold with ==, not just to rounding

_ALG = CoefficientAlgebra.matrix_model({
    "a": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "b": np.array([[1.0, 2.0], [3.0, 4.0]]),
    "h": np.array([[1.0, 2.0], [2.0, -1.0]]),
})
_scalars = st.builds(complex, st.integers(-3, 3), st.integers(-2, 2))
_slots = st.lists(
    st.tuples(st.sampled_from(["a", "b", "h"]), st.booleans()), max_size=2
).map(tuple)


@st.composite
def _term_keys(draw, n=2, max_len=2):
    word = tuple(draw(st.lists(st.integers(1, n), max_size=max_len)))
    return (word, tuple(draw(_slots) for _ in range(len(word) + 1)))


def _polys(n=2, max_len=2, max_terms=3):
    terms = st.dictionaries(_term_keys(n, max_len), _scalars, max_size=max_terms)
    return terms.map(lambda t: NcPoly(n, t, _ALG))


_bipolys = st.dictionaries(st.tuples(_term_keys(), _term_keys()), _scalars, max_size=3).map(
    lambda t: NcBiPoly(2, t, _ALG)
)


@given(st.sampled_from([_polys(), _bipolys]).flatmap(lambda s: st.tuples(s, s, s)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_product_is_associative_and_distributive(fgh):
    f, g, h = fgh
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@given(_polys(), _polys())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_adjoint_reverses_products(f, g):
    assert (f * g).adjoint() == g.adjoint() * f.adjoint()


@given(_polys(), _polys(), _polys(), _polys())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_tensor_products_multiply_leg_by_leg(a, b, c, d):
    assert NcBiPoly.tensor(a, b) * NcBiPoly.tensor(c, d) == NcBiPoly.tensor(a * c, b * d)


@given(_polys(n=3, max_len=3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_compose_with_the_indeterminates_is_the_identity(f):
    assert ncalg.compose(f, [NcPoly.indet(3, i + 1) for i in range(3)]) == f


@given(_polys(max_len=3), st.lists(_polys(), min_size=2, max_size=2), st.integers(0, 999))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_compose_evaluates_as_substitution(f, gs, seed):
    gs = [g + g.adjoint() for g in gs]  # self-adjoint, so each value is a tuple entry
    x = rand_tuple(np.random.default_rng(seed), 2, 4)
    inner = matcore.MatrixTuple([ncalg.evaluate(g, x) for g in gs])
    want = as_array(ncalg.evaluate(f, inner))
    got = as_array(ncalg.evaluate(ncalg.compose(f, gs), x))
    assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


# --- evaluation -------------------------------------------------------------


def test_evaluate_identity_and_constant_square():
    rng = np.random.default_rng(1)
    t = rand_tuple(rng, 2, 3)
    v = ncalg.evaluate(NcPoly.indet(2, 1), t)
    assert np.array_equal(as_array(v), t.mats[0].array)
    x1 = sa(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x2 = sa(np.eye(2))
    f = NcPoly.indet(2, 1) * NcPoly.indet(2, 1) + NcPoly.indet(2, 2)
    got = ncalg.evaluate(f, matcore.MatrixTuple([x1, x2]))
    assert np.abs(as_array(got) - 2.0 * np.eye(2)).max() < 1e-15


def test_evaluate_long_word_against_direct_product():
    rng = np.random.default_rng(7)
    gens = {
        nm: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for nm in ["b0", "b1", "b2", "b3", "b4"]
    }
    alg = CoefficientAlgebra.matrix_model(gens)
    f = ncalg.parse_poly("b0 t1 b1 t2 b2 t1 b3 t4 b4", 4, alg)
    t = rand_tuple(rng, 4, 4)
    emb = {nm: np.kron(g, np.eye(2)) for nm, g in gens.items()}
    x = [m.array for m in t.mats]
    want = (
        emb["b0"] @ x[0] @ emb["b1"] @ x[1] @ emb["b2"] @ x[0] @ emb["b3"] @ x[3] @ emb["b4"]
    )
    got = ncalg.evaluate(f, t)
    assert np.abs(as_array(got) - want).max() < 1e-12


def test_evaluate_respects_normal_form():
    rng = np.random.default_rng(2)
    t1, t2 = NcPoly.indet(2, 1), NcPoly.indet(2, 2)
    a = (t1 + t2) * (t1 + t2)
    b = t1 * t1 + t1 * t2 + t2 * t1 + t2 * t2
    assert a == b
    c = NcPoly.scalar(2, 2.0) * t1 * NcPoly.scalar(2, 3.0)
    assert c == 6.0 * t1
    x = rand_tuple(rng, 2, 3)
    assert np.abs(as_array(ncalg.evaluate(a, x)) - as_array(ncalg.evaluate(b, x))).max() < 1e-12


def test_evaluate_dimension_mismatch():
    alg = CoefficientAlgebra.matrix_model({"b": np.eye(2)})
    f = NcPoly.coefficient(1, "b", alg) * NcPoly.indet(1, 1)
    t = matcore.MatrixTuple([sa(np.eye(3))])
    with pytest.raises(ValueError):
        ncalg.evaluate(f, t)


# --- difference quotients ---------------------------------------------------


def test_dquotient_axioms():
    t1, t2 = NcPoly.indet(2, 1), NcPoly.indet(2, 2)
    one = NcPoly.one(2)
    assert ncalg.dquotient(t1, 1) == NcBiPoly.tensor(one, one)
    assert ncalg.dquotient(t2, 1) == NcBiPoly.zero(2)
    assert ncalg.dquotient(t1 * t1, 1) == (
        NcBiPoly.tensor(one, t1) + NcBiPoly.tensor(t1, one)
    )


def test_dquotient_long_word_splits():
    rng = np.random.default_rng(7)
    gens = {
        nm: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for nm in ["b0", "b1", "b2", "b3", "b4"]
    }
    alg = CoefficientAlgebra.matrix_model(gens)
    f = ncalg.parse_poly("b0 t1 b1 t2 b2 t1 b3 t4 b4", 4, alg)

    def cf(nm):
        return NcPoly.coefficient(4, nm, alg)

    def tt(i):
        return NcPoly.indet(4, i)

    want = NcBiPoly.tensor(
        cf("b0"), cf("b1") * tt(2) * cf("b2") * tt(1) * cf("b3") * tt(4) * cf("b4")
    ) + NcBiPoly.tensor(cf("b0") * tt(1) * cf("b1") * tt(2) * cf("b2"), cf("b3") * tt(4) * cf("b4"))
    assert ncalg.dquotient(f, 1) == want
    assert (
        ncalg.bipoly_text(ncalg.dquotient(f, 1))
        == "b0 (x) b1 t2 b2 t1 b3 t4 b4 + b0 t1 b1 t2 b2 (x) b3 t4 b4"
    )


def test_dquotient_kills_missing_letter():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = rand_poly(rng, 3, 4, 4)
        for i in (1, 2, 3):
            occurs = any(i in w for w, _ in f.terms)
            d = ncalg.dquotient(f, i)
            assert bool(d.terms) == occurs


def test_leibniz_rule():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        f = rand_poly(rng, n, 4, 3)
        g = rand_poly(rng, n, 4, 3)
        i = int(rng.integers(1, n + 1))
        t = rand_tuple(rng, n, k)
        h = rand_sa(rng, k).array
        one = NcPoly.one(n)
        lhs = ncalg.dquotient(f * g, i).apply(t, h)
        rhs = (
            ncalg.dquotient(f, i) * NcBiPoly.tensor(one, g)
            + NcBiPoly.tensor(f, one) * ncalg.dquotient(g, i)
        ).apply(t, h)
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() < 1e-10 * scale


# --- Jacobians and the log functional ---------------------------------------


def test_jacobian_identity_map():
    rng = np.random.default_rng(5)
    t = rand_tuple(rng, 2, 3)
    jac = ncalg.jacobian([NcPoly.indet(2, 1), NcPoly.indet(2, 2)], t)
    hs = [rand_sa(rng, 3).array for _ in range(2)]
    out = jac.apply(hs)
    assert np.abs(out[0] - hs[0]).max() < 1e-15
    assert np.abs(out[1] - hs[1]).max() < 1e-15
    r = jac.as_real_matrix()
    assert np.abs(r - np.eye(2 * 9)).max() < 1e-13


def test_jacobian_conjugation_action():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    alg = CoefficientAlgebra.matrix_model({"a": a})
    f = NcPoly.coefficient(1, "a", alg) * NcPoly.indet(1, 1) * NcPoly.coefficient(
        1, "a", alg, star=True
    )
    t = rand_tuple(rng, 1, 3)
    h = rand_sa(rng, 3).array
    out = ncalg.jacobian([f], t).apply([h])
    assert np.abs(out[0] - a @ h @ a.conj().T).max() < 1e-12


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(8)
    k = 3
    for _ in range(100):
        n = int(rng.integers(1, 3))
        fs = [rand_poly(rng, n, 3, 3) for _ in range(n)]
        t = rand_tuple(rng, n, k)
        hs = [rand_sa(rng, k).array for _ in range(n)]
        jac = ncalg.jacobian(fs, t)
        got = jac.apply(hs)
        eps = 1e-5
        for j, fj in enumerate(fs):
            plus = ncalg.evaluate(
                fj, matcore.MatrixTuple([sa(t.mats[i].array + eps * hs[i]) for i in range(n)])
            )
            minus = ncalg.evaluate(
                fj, matcore.MatrixTuple([sa(t.mats[i].array - eps * hs[i]) for i in range(n)])
            )
            fd = (as_array(plus) - as_array(minus)) / (2 * eps)
            denom = max(np.abs(fd).max(), 1e-6)
            assert np.abs(got[j] - fd).max() / denom < 1e-6


def test_logabs_identity_scaling_conjugation():
    rng = np.random.default_rng(9)
    t = rand_tuple(rng, 1, 3)
    assert ncalg.logabs_functional(ncalg.jacobian([NcPoly.indet(1, 1)], t)) == 0.0
    for k in (2, 3, 5):
        tk = rand_tuple(rng, 1, k)
        got = ncalg.logabs_functional(ncalg.jacobian([NcPoly.indet(1, 1) * 2.5], tk))
        assert abs(got - math.log(2.5)) < 1e-12
    k = 2
    a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    alg = CoefficientAlgebra.matrix_model({"a": a})
    f = NcPoly.coefficient(1, "a", alg) * NcPoly.indet(1, 1) * NcPoly.coefficient(
        1, "a", alg, star=True
    )
    got = ncalg.logabs_functional(ncalg.jacobian([f], rand_tuple(rng, 1, k)))
    want = (2.0 / k) * math.log(abs(np.linalg.det(a)))
    assert abs(got - want) < 1e-9


def test_logabs_singular_map_is_minus_inf():
    rng = np.random.default_rng(10)
    t = rand_tuple(rng, 2, 2)
    # both components equal: rank-deficient real Jacobian
    f = NcPoly.indet(2, 1)
    assert ncalg.logabs_functional(ncalg.jacobian([f, f], t)) == float("-inf")


def test_logabs_chain_rule():
    rng = np.random.default_rng(11)
    n, k = 2, 3
    t = [NcPoly.indet(n, i + 1) for i in range(n)]
    fs = [t[0] * t[1] + t[1] * t[0] * t[0] + 0.5 * t[0], t[1] * t[1] - 2.0 * t[0] * t[1] * t[0]]
    gs = [0.2 * t[0] * t[0] + t[0] + 0.3 * t[1], t[1] + 0.1 * (t[0] * t[1] + t[1] * t[0])]
    for _ in range(5):
        x = rand_tuple(rng, n, k)
        gx = matcore.MatrixTuple([sa(as_array(ncalg.evaluate(g, x))) for g in gs])
        lhs = ncalg.logabs_functional(
            ncalg.jacobian([ncalg.compose(f, gs) for f in fs], x)
        )
        rhs = ncalg.logabs_functional(ncalg.jacobian(fs, gx)) + ncalg.logabs_functional(
            ncalg.jacobian(gs, x)
        )
        assert abs(lhs - rhs) < 1e-8


# --- majorants ---------------------------------------------------------------


def test_majorant_polynomials_always_converge():
    rng = np.random.default_rng(12)
    for _ in range(5):
        f = rand_poly(rng, 2, 5, 4)
        assert ncalg.majorant_radius(f, [10.0, 10.0])


def test_majorant_geometric_series():
    geo = NcPoly.zero(1)
    for k in range(12):
        term = NcPoly.one(1)
        for _ in range(k):
            term = term * (NcPoly.indet(1, 1) * 0.5)
        geo = geo + term
    geo.truncated = True
    assert ncalg.majorant_radius(geo, [1.9])
    assert not ncalg.majorant_radius(geo, [2.1])


def test_majorant_value_of_sandwiched_letter():
    rng = np.random.default_rng(13)
    gens = {"b0": rng.normal(size=(2, 2)), "b1": rng.normal(size=(2, 2))}
    alg = CoefficientAlgebra.matrix_model(gens)
    f = ncalg.parse_poly("b0 t1 b1", 1, alg)
    r = 1.5
    assert abs(
        ncalg.majorant_value(f, [r]) - alg.norm("b0") * alg.norm("b1") * r
    ) < 1e-12


# --- perturbative inversion ---------------------------------------------------


def test_perturbation_inverse_of_zero():
    zero = NcPoly.zero(2)
    gs = ncalg.perturbation_inverse([zero, zero], 0.1, 3)
    assert gs[0] == NcPoly.indet(2, 1)
    assert gs[1] == NcPoly.indet(2, 2)


def test_perturbation_inverse_cubic_error_scaling():
    rng = np.random.default_rng(14)
    p = NcPoly.indet(1, 1) * NcPoly.indet(1, 1)
    x = rand_tuple(rng, 1, 3)
    errs = []
    for eps in (1e-2, 5e-3):
        g = ncalg.perturbation_inverse([p], eps, 2)
        comp = ncalg.compose(NcPoly.indet(1, 1) + eps * p, g)
        val = as_array(ncalg.evaluate(comp, x))
        errs.append(np.abs(val - x.mats[0].array).max())
    # third-order error: halving eps shrinks it ~8x
    assert errs[1] < errs[0] / 6.0
    assert errs[0] < 1e-3


def test_perturbation_inverse_linear_neumann():
    t = [NcPoly.indet(2, i + 1) for i in range(2)]
    a = np.array([[0.2, -0.1], [0.05, 0.15]])
    ps = [a[0, 0] * t[0] + a[0, 1] * t[1], a[1, 0] * t[0] + a[1, 1] * t[1]]
    eps = 0.3
    gs = ncalg.perturbation_inverse(ps, eps, 40)
    minv = np.linalg.inv(np.eye(2) + eps * a)
    for i in range(2):
        for j in range(2):
            key = ((j + 1,), ((), ()))
            assert abs(gs[i].terms.get(key, 0.0) - minv[i, j]) < 1e-10


def test_perturbation_inverse_majorant_guard():
    p = NcPoly.indet(1, 1) * NcPoly.indet(1, 1)
    with pytest.raises(ValueError):
        ncalg.perturbation_inverse([p], 2.0, 6)


# --- text form ----------------------------------------------------------------


def test_parse_and_format_roundtrip():
    f = ncalg.parse_poly("2 t1 t2 - t2 + 0.5", 2)
    assert ncalg.poly_text(f) == "0.5 - t2 + 2 t1 t2"
    g = ncalg.parse_poly(ncalg.poly_text(f), 2)
    assert f == g


def test_matrix_coefficient_texts_are_pinned():
    # recorded before polynomials and tensor terms shared one printer
    f = ncalg.parse_poly("a t1 b* - 2.5 h* t2 a* t1 + 3 b t1 t1 b* - 7", 2, _ALG)
    g = ncalg.parse_poly("a* t2 a - t1 h t1 + 0.5 b b* t2 t1 a", 2, _ALG)
    c = NcPoly.scalar(2, 1 - 2j, _ALG) * f + NcPoly.scalar(2, -3j, _ALG) * g
    assert [ncalg.poly_text(p) for p in (f, f.adjoint(), c, c.adjoint())] == [
        "- 7 + a t1 b* + 3 b t1 t1 b* - 2.5 h t2 a* t1",
        "- 7 + b t1 a* + 3 b t1 t1 b* - 2.5 t1 a t2 h",
        "(-7+14j) + (1-2j) a t1 b* + -3j a* t2 a + 3j t1 h t1 + (3-6j) b t1 t1 b*"
        " + -1.5j b b* t2 t1 a + (-2.5+5j) h t2 a* t1",
        "(-7-14j) + (1+2j) b t1 a* + 3j a* t2 a + -3j t1 h t1 + (3+6j) b t1 t1 b*"
        " + (-2.5-5j) t1 a t2 h + 1.5j a* t1 t2 b b*",
    ]
    assert [ncalg.bipoly_text(ncalg.dquotient(p, i)) for p, i in ((f, 1), (c, 1), (c, 2))] == [
        "a (x) b* + 3 b (x) t1 b* + 3 b t1 (x) b* - 2.5 h t2 a* (x) 1",
        "3j 1 (x) h t1 + (1-2j) a (x) b* + (3-6j) b (x) t1 b* + 3j t1 h (x) 1"
        " + (3-6j) b t1 (x) b* + -1.5j b b* t2 (x) a + (-2.5+5j) h t2 a* (x) 1",
        "-3j a* (x) a + -1.5j b b* (x) t1 a + (-2.5+5j) h (x) a* t1",
    ]


def test_parse_errors_carry_token_position():
    with pytest.raises(ncalg.PolyParseError, match="token 3"):
        ncalg.parse_poly("t1 + t9", 2)
    with pytest.raises(ncalg.PolyParseError, match="token 2"):
        ncalg.parse_poly("t1 bogus", 2)
    with pytest.raises(ncalg.PolyParseError):
        ncalg.parse_poly("t1 +", 2)
    with pytest.raises(ncalg.PolyParseError):
        ncalg.parse_poly("", 2)
