"""Matrix-layer tests: exact Hermiticity, word traces, eigenvalues, norm tests, samplers."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freelab import matcore, microstates as ms, rng
from freelab.matcore import MatrixTuple, SelfAdjointMatrix


def _rand_herm(k, seed):
    g = rng.normals(seed, 0, 2 * k * k)
    raw = g[: k * k].reshape(k, k) + 1j * g[k * k :].reshape(k, k)
    return SelfAdjointMatrix.hermitian_part(raw)


def test_constructor_rejects_non_hermitian():
    with pytest.raises(ValueError):
        SelfAdjointMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        SelfAdjointMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        SelfAdjointMatrix.hermitian_part(np.array([[1.0, 2.0]]))


def test_hermitian_part_is_exact():
    for s in range(20):
        m = _rand_herm(5, s)
        assert np.array_equal(m.array, m.array.conj().T)


def test_tuple_rejects_mixed_dims():
    with pytest.raises(ValueError):
        MatrixTuple([_rand_herm(2, 0), _rand_herm(3, 1)])


def test_trace_of_unit_is_one():
    for k in (1, 2, 7):
        assert matcore.eval_word_trace(MatrixTuple([SelfAdjointMatrix(np.eye(k))]), (1,)) == 1.0


def test_empty_word_is_unit():
    t = MatrixTuple([_rand_herm(3, 5)])
    assert matcore.eval_word_trace(t, ()) == 1.0


def test_word_trace_against_direct_product():
    # oracle: explicit matrix product and trace, k=2 complex entries
    a = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -0.5]])
    b = np.array([[0.25, 0.5j], [-0.5j, 3.0]])
    t = MatrixTuple([SelfAdjointMatrix(a), SelfAdjointMatrix(b)])
    word = (1, 2, 2, 1)
    want = np.trace(a @ b @ b @ a).real / 2.0
    assert abs(matcore.eval_word_trace(t, word) - want) < 1e-13


def test_word_trace_cyclic_invariance():
    t = MatrixTuple([_rand_herm(4, 11), _rand_herm(4, 12), _rand_herm(4, 13)])
    w = (1, 3, 2, 2, 1)
    vals = [
        matcore.eval_word_trace(t, w[i:] + w[:i]) for i in range(len(w))
    ]
    assert max(abs(v - vals[0]) for v in vals) < 1e-12


def test_word_trace_index_bounds():
    t = MatrixTuple([_rand_herm(2, 1)])
    with pytest.raises(IndexError):
        matcore.eval_word_trace(t, (0,))
    with pytest.raises(IndexError):
        matcore.eval_word_trace(t, (2,))


def test_coords_roundtrip_and_parseval():
    for s in range(5):
        m = _rand_herm(6, 100 + s).array
        c = matcore.to_coords(m)
        assert np.allclose(np.einsum("c,cij->ij", c, matcore.sa_basis(6, 0, 36)), m, atol=1e-14)
        assert abs(np.sum(c * c) - np.trace(m @ m).real) < 1e-10


def test_eigenvalues_satisfy_char_poly():
    # oracle: |det(m - lam I)| relative to the determinant scale
    for s in range(10):
        m = _rand_herm(3, 200 + s)
        ev = np.linalg.eigvalsh(m.array)
        assert ev.shape == (3,)
        assert (np.diff(ev) >= 0).all()
        scale = np.linalg.norm(m.array) ** 3 + 1.0
        for lam in ev:
            d = np.linalg.det(m.array - lam * np.eye(3))
            assert abs(d) / scale < 1e-9


def test_eigenvalue_shift_identity():
    m = _rand_herm(5, 300)
    ev = np.linalg.eigvalsh(m.array)
    ev_shift = np.linalg.eigvalsh(m.array + 2.5 * np.eye(5))
    assert np.allclose(ev_shift, ev + 2.5, atol=1e-10)


def test_eigenvalues_diagonal_exact():
    d = np.diag([3.0, -1.0, 0.5])
    assert np.allclose(np.linalg.eigvalsh(d), [-1.0, 0.5, 3.0])


def test_one_by_one_shapes():
    m = SelfAdjointMatrix(np.array([[2.5]], dtype=complex))
    assert np.linalg.eigvalsh(m.array).shape == (1,)
    stack = np.array([[[1.0]], [[-3.0]]], dtype=complex)
    assert np.allclose(matcore.operator_norms(stack), [1.0, 3.0])
    assert list(matcore.norms_leq(stack, 2.0)) == [True, False]


def test_eigenvalues_match_trace_moments_and_char_poly():
    # oracle independent of any eigen-solver: sum(lam) = Tr x,
    # sum(lam^2) = Tr x^2, and det(x - lam_i) / prod_{j != i}(lam_j - lam_i),
    # which equals the distance from lam_i to the true eigenvalue to first order
    for k in (2, 5, 16):
        m = _rand_herm(k, 400 + k)
        x = m.array
        ev = np.linalg.eigvalsh(m.array)
        scale = np.linalg.norm(x)
        assert (np.diff(ev) >= 0).all()
        assert abs(ev.sum() - np.trace(x).real) < 1e-10 * scale
        assert abs(np.sum(ev**2) - np.trace(x @ x).real) < 1e-10 * scale**2
        for i, lam in enumerate(ev):
            _, logdet = np.linalg.slogdet(x - lam * np.eye(k))
            gaps = np.log(np.abs(np.delete(ev, i) - lam)).sum()
            assert logdet - gaps < math.log(1e-9 * scale)


def _counting_eigen_solve(monkeypatch):
    calls = []
    real = matcore.operator_norms

    def counted(stack):
        calls.append(len(stack))
        return real(stack)

    monkeypatch.setattr(matcore, "operator_norms", counted)
    return calls


def test_certificate_band_falls_back_to_the_eigen_solve(monkeypatch):
    # x = 3 I at k=16: ||x||_F = 12 and (Tr x^4)^(1/4) = 6 both exceed R = 4,
    # so only the eigen-solve sees ||x||_op = 3
    calls = _counting_eigen_solve(monkeypatch)
    stack = np.stack([3.0 * np.eye(16), 5.0 * np.eye(16)]).astype(complex)
    assert list(matcore.norms_leq(stack, 4.0)) == [True, False]
    assert calls == [2]
    sq_frob = matcore.frobenius_norms(stack @ stack)
    assert list(matcore.norms_leq(stack, 4.0, sq_frob)) == [True, False]
    assert calls == [2, 2]


def test_certificate_resolves_the_frobenius_band_without_an_eigen_solve(monkeypatch):
    # x = I at k=16: ||x||_F = 4 > R = 3, but (Tr x^4)^(1/4) = 2 <= R;
    # a GUE draw at k=16 with R between its certificate and its Frobenius norm
    calls = _counting_eigen_solve(monkeypatch)
    g = matcore.gue_stack(16, 1, 1.0, seed=12)
    cert = matcore.frobenius_norms(g @ g)[0] ** 0.5
    frob = matcore.frobenius_norms(g)[0]
    assert cert < frob
    radius = 0.5 * (cert + frob)
    assert matcore.norms_leq(np.eye(16, dtype=complex)[None], 3.0).all()
    assert matcore.norms_leq(g, radius).all()
    assert matcore.norms_leq(g, radius, matcore.frobenius_norms(g @ g)).all()
    assert calls == []


def test_gue_second_moment_mean():
    # mean of tau(x^2) over many seeds; E = variance, batched draws
    k, n = 64, 10000
    stack = matcore.gue_stack(k, n, 1.0, seed=77)
    taus = np.einsum("mij,mji->m", stack, stack).real / k
    se = taus.std(ddof=1) / math.sqrt(n)
    assert abs(taus.mean() - 1.0) < 3 * se


def test_gue_determinism_and_block_alignment():
    a = matcore.gue_stack(4, 8, 2.0, seed=5)
    b = matcore.gue_stack(4, 8, 2.0, seed=5)
    assert (a == b).all()
    # batch draw equals the per-index draws bit for bit
    singles = np.concatenate([matcore.gue_stack(4, 1, 2.0, seed=5, start=i) for i in range(8)])
    assert (a == singles).all()
    assert (matcore.sample_gue(4, 2.0, seed=5).array == a[0]).all()


def test_gue_spectrum_matches_semicircle():
    # KS distance between the ESD at k=256 and the semicircle CDF
    k = 256
    x = matcore.gue_stack(k, 1, 1.0, seed=31415)[0]
    ev = np.linalg.eigvalsh(x)

    def semicirc_cdf(t):
        t = np.clip(t / 2.0, -1.0, 1.0)
        return 0.5 + (t * np.sqrt(1 - t * t) + np.arcsin(t)) / np.pi

    grid_cdf = semicirc_cdf(ev)
    emp_hi = np.arange(1, k + 1) / k
    emp_lo = np.arange(0, k) / k
    ks = max(np.abs(emp_hi - grid_cdf).max(), np.abs(emp_lo - grid_cdf).max())
    assert ks < 0.05


def test_ball_sampler_k1_is_uniform_interval():
    xs = matcore.ball_stack(1, 400, 2.0, seed=0)[:, 0, 0].real
    assert (np.abs(xs) <= 2.0).all()
    # mean 0, var R^2/3 for U(-2,2)
    assert abs(xs.mean()) < 3 * 2.0 / math.sqrt(3 * 400)
    assert abs(xs.var() - 4.0 / 3.0) < 0.35


def test_ball_sampler_op_ball_ratio():
    # P(||x||_op <= R/2) for draws uniform in the op-ball of radius R
    # equals vol(R/2-ball)/vol(R-ball).  Oracle: independent rejection
    # count from the HS ball using closed-form 2x2 eigenvalues.
    k, R = 2, 1.0
    cand = matcore.ball_stack(k, 10**6, R, seed=606)
    tr = np.einsum("mii->m", cand).real
    # eigenvalues of a 2x2 Hermitian: tr/2 +- sqrt((tr/2)^2 - det)
    det = (cand[:, 0, 0] * cand[:, 1, 1] - cand[:, 0, 1] * cand[:, 1, 0]).real
    half = tr / 2.0
    disc = np.sqrt(np.maximum(half * half - det, 0.0))
    opn = np.maximum(np.abs(half + disc), np.abs(half - disc))
    n_R = int((opn <= R).sum())
    n_half = int((opn <= R / 2).sum())
    ratio_oracle = n_half / n_R
    se = math.sqrt(ratio_oracle * (1 - ratio_oracle) / n_R)

    draws = matcore.ball_stack(k, 4096, R, seed=707)
    keep = matcore.norms_leq(draws, R)
    inner = matcore.norms_leq(draws[keep], R / 2)
    p_hat = inner.mean()
    se_hat = math.sqrt(p_hat * (1 - p_hat) / keep.sum())
    assert abs(p_hat - ratio_oracle) < 3 * math.hypot(se, se_hat)


def test_ball_log_volume_closed_forms():
    # k=1: interval of length 2R; d=1 ball formula
    assert abs(matcore.ball_log_volume(1, 2.0) - math.log(4.0)) < 1e-12
    # k=2: 4-ball of radius R*sqrt(2): V = pi^2 rho^4 / 2
    want = 2 * math.log(math.pi) + 4 * math.log(1.5 * math.sqrt(2)) - math.log(2)
    assert abs(matcore.ball_log_volume(2, 1.5) - want) < 1e-12


# ---------------------------------------------------------------------------
# Bit identity of the samplers


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _draw(sampler, k, count, seed, start, out=None):
    if sampler == "gue":
        return matcore.gue_stack(k, count, 1.7, seed, start=start, out=out)
    return matcore.ball_stack(k, count, 2.5, seed, start=start, out=out)


@st.composite
def _draw_plans(draw):
    sampler = draw(st.sampled_from(["gue", "ball"]))
    k = draw(st.integers(1, 16))
    rows = max(1, ms._SUBBLOCK_ENTRIES // (k * k))  # rows of an estimator sub-block at n = 1
    # small counts, or counts just around one or two whole sub-blocks
    near_edge = st.builds(lambda m, d: max(0, m * rows + d), st.integers(1, 2), st.integers(-3, 3))
    count = draw(st.one_of(st.integers(0, 40), near_edge))
    cuts = draw(st.lists(st.integers(0, count), min_size=1, max_size=4))
    return sampler, k, count, sorted(cuts)


@given(plan=_draw_plans(), seed=st.integers(0, 2**64 - 1), start=st.integers(0, 2**20))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_sampler_draws_do_not_depend_on_split_or_out(plan, seed, start):
    sampler, k, count, cuts = plan
    whole = _draw(sampler, k, count, seed, start)
    assert whole.shape == (count, k, k)
    edges = [0] + cuts + [count]
    pieces = [_draw(sampler, k, b - a, seed, start + a) for a, b in zip(edges, edges[1:])]
    assert np.array_equal(_bits(np.concatenate(pieces)), _bits(whole))
    stack = np.full((count, 3, k, k), np.nan, dtype=np.complex128)
    filled = _draw(sampler, k, count, seed, start, out=stack[:, 1])
    assert filled.base is stack  # the out view itself is returned
    assert np.array_equal(_bits(stack[:, 1]), _bits(whole))
    assert np.isnan(stack[:, [0, 2]]).all()


@given(k=st.integers(1, 16), count=st.integers(1, 6), seed=st.integers(0, 999))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_gue_gather_places_each_coordinate_exactly(k, count, seed):
    # At variance k the GUE scale sqrt(variance/k) is exactly 1, so the lambda
    # coordinates of draw i are the normals of its counter block.  Scalar
    # reference: diagonal as is, (i, j) for i < j the pair times 1/sqrt(2)
    # with one rounding per part, (j, i) its exact conjugate.  to_coords
    # multiplies by fl(sqrt 2) and the gather by fl(1/sqrt 2), so the round
    # trip is exact only to an ulp, not bit for bit.
    block = 2 * ((k * k + 1) // 2)
    c = rng.normals(seed, 0, count * block).reshape(count, block)[:, : k * k]
    h = matcore.gue_stack(k, count, float(k), seed)
    want = np.empty((count, k, k), dtype=np.complex128)
    inv = 1.0 / math.sqrt(2.0)
    for idx in np.ndindex(count):
        row, pos = c[idx], k
        for i in range(k):
            want[idx + (i, i)] = complex(row[i], 0.0)
            for j in range(i + 1, k):
                re, im = row[pos] * inv, row[pos + 1] * inv
                want[idx + (i, j)] = complex(re, im)
                want[idx + (j, i)] = complex(re, -im)
                pos += 2
    assert np.array_equal(_bits(h), _bits(want))
    assert np.array_equal(h, np.swapaxes(h, -1, -2).conj())
    back = matcore.to_coords(h)
    assert np.allclose(back, c, rtol=4e-16, atol=0.0)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(_bits(a).tobytes())
    return h.hexdigest()[:16]


def _elementary_digest(sampler, k, count, seed, start):
    """Digest of np.log, np.cos, np.sin (and the ball's np.power) on every
    input the draw's counter range can feed them."""
    d = k * k
    block = 2 * ((d + 1) // 2) + (2 if sampler == "ball" else 0)
    bits = (rng.words(seed, block * start, block * count) >> np.uint64(11)).astype(np.float64)
    u1 = (bits[0::2] + 1.0) * 2.0**-53
    ang = 2.0 * np.pi * (bits[1::2] * 2.0**-53)
    parts = [np.log(u1), np.cos(ang), np.sin(ang)]
    if sampler == "ball":
        parts.append((bits * 2.0**-53) ** (1.0 / d))
    return _digest(*parts)


# (sampler, k, count, seed, start, digest of the draw, digest of the
# elementary functions on its inputs), recorded with the scatter-based
# from_coords and np.stack chunk assembly that the gather replaced
PINNED_DRAWS = [
    ("gue", 1, 3, 0, 0, "731991d361a689e3", "117e1ca53c978caa"),
    ("gue", 3, 5, 11, 7, "d0dd780c7d712b49", "47a497a2f3b1df2b"),
    ("gue", 16, 301, 2**63 + 5, 2, "f2a6eedd3b2053e7", "0adaddfe9d958b53"),
    ("ball", 5, 9, 11, 4, "df93e32a9bc67c6c", "69b4b8b816babd9e"),
    ("ball", 12, 451, 99, 1, "90b3c381937b2fa1", "4171cd84d128fe8f"),
]


@pytest.mark.parametrize("sampler,k,count,seed,start,want,elementary", PINNED_DRAWS)
def test_sampler_draws_match_pinned_bits(sampler, k, count, seed, start, want, elementary):
    # A reordered or fused float operation changes the last bit of some
    # entries.  Where libm or numpy's SIMD gives other log/cos/sin/pow bits
    # on these very inputs, the pinned digest cannot apply.
    if _elementary_digest(sampler, k, count, seed, start) != elementary:
        pytest.skip("np.log/cos/sin/power differ from the recording build on these inputs")
    assert _digest(_draw(sampler, k, count, seed, start)) == want
