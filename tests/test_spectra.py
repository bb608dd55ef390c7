"""Spectral-measure layer: quadrature anchors, change of variables,
conjugate variables, serialization."""

import json
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from freelab import matcore, spectra
from freelab.spectra import SpectralMeasure as SM

HALF_LOG_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)  # 1.4189385...


def test_log_energy_uniform_01():
    # analytic double integral: int int log|s-t| over the unit square = -3/2
    assert abs(spectra.log_energy(SM.uniform(0.0, 1.0)) + 1.5) < 1e-3


def test_log_energy_semicircle():
    assert abs(spectra.log_energy(SM.semicircle(1.0)) + 0.25) < 1e-3


def test_chi_single_semicircle_maximizer_value():
    assert abs(spectra.chi_single(SM.semicircle(1.0)) - HALF_LOG_2PIE) < 1e-3
    assert abs(spectra.semicircle_entropy(1.0) - HALF_LOG_2PIE) < 1e-14


def test_log_energy_atomic_is_minus_inf():
    mu = SM.atomic([(-1.0, 0.5), (1.0, 0.5)])
    assert spectra.log_energy(mu) == float("-inf")
    assert spectra.chi_single(mu) == float("-inf")


def test_log_energy_affine_covariance():
    # I(a X + b) = I(X) + log|a|
    mu = SM.uniform(0.0, 1.0)
    f = spectra.affine_field(3.0, -1.0, (-0.5, 1.5))
    got = spectra.log_energy(spectra.pushforward(mu, f))
    assert abs(got - (spectra.log_energy(mu) + math.log(3.0))) < 1e-3


def test_semicircle_moments_catalan():
    mu = SM.semicircle(1.5)
    assert mu.moment(1) == 0.0
    assert abs(mu.moment(2) - 1.5) < 1e-14
    assert abs(mu.moment(4) - 2.0 * 1.5**2) < 1e-12
    assert abs(mu.moment(6) - 5.0 * 1.5**3) < 1e-12


def test_uniform_moments_whose_powers_overflow_stay_finite():
    # b^2 overflows on [1e200, 1.5e200], and b^3 - a^3 on [-5e102, 5e102]
    assert SM.uniform(1e200, 1.5e200).moment(1) == pytest.approx(1.25e200, rel=1e-14)
    assert SM.uniform(-5e102, 5e102).moment(2) == pytest.approx(5e102**2 / 3, rel=1e-14)
    assert SM.uniform(-5e102, 5e102).moment(3) == 0.0
    # a moment beyond float range still raises
    for a, b, p in ((-1e300, 1e300, 2), (-5e102, 5e102, 4), (1e200, 1.5e200, 2)):
        with pytest.raises(ValueError, match="overflows a float"):
            SM.uniform(a, b).moment(p)
    # a moment whose closed form is finite keeps its bits
    for a, b in ((0.0, 1.0), (-2.0, 3.0), (1e-3, 7.5), (1e100, 2e100)):
        for p in range(1, 7):
            try:
                want = (b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))
            except OverflowError:
                continue
            assert SM.uniform(a, b).moment(p) == want


def test_gridded_mass_is_exactly_one():
    mu = SM.semicircle(1.0).to_grid()
    h = (mu.support[1] - mu.support[0]) / (mu.values.size - 1)
    assert abs(np.trapezoid(mu.values, dx=h) - 1.0) < 1e-12
    assert mu.mass_drift < 1e-4


def test_measure_validation_errors():
    with pytest.raises(spectra.MeasureFormatError):
        SM.atomic([(0.0, 0.7), (1.0, 0.4)])
    with pytest.raises(spectra.MeasureFormatError):
        SM.atomic([(0.0, -0.1), (1.0, 1.1)])
    with pytest.raises(spectra.MeasureFormatError):
        SM.semicircle(0.0)
    with pytest.raises(spectra.MeasureFormatError):
        SM.uniform(1.0, 1.0)
    with pytest.raises(spectra.MeasureFormatError):
        spectra.measure_from_dict({"kind": "wat"})


def test_quantiles():
    u = SM.uniform(-1.0, 3.0)
    assert np.allclose(u.quantile(np.array([0.0, 0.25, 1.0])), [-1.0, 0.0, 3.0])
    at = SM.atomic([(-1.0, 0.5), (1.0, 0.5)])
    q = at.quantile(np.array([0.1, 0.49, 0.51, 0.9]))
    assert list(q) == [-1.0, -1.0, 1.0, 1.0]
    sc = SM.semicircle(1.0)
    assert abs(sc.quantile(np.array([0.5]))[0]) < 1e-3


def test_pushforward_atoms_and_moments():
    at = SM.atomic([(-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)])
    f = spectra.affine_field(2.0, 1.0, (-2.0, 3.0))
    img = spectra.pushforward(at, f)
    assert img.atoms == [(-1.0, 0.25), (1.0, 0.5), (5.0, 0.25)]
    sc = SM.semicircle(1.0)
    img2 = spectra.pushforward(sc, spectra.affine_field(0.5, 0.0, (-2.5, 2.5)))
    assert abs(img2.moment(2) - 0.25) < 1e-4


def test_pushforward_needs_monotone_field():
    f = spectra.polynomial_field([0.0, 0.0, 1.0], (-1.0, 1.0))  # x^2
    assert not f.diffeo
    with pytest.raises(ValueError):
        spectra.pushforward(SM.uniform(-1.0, 1.0), f)
    with pytest.raises(ValueError):
        spectra.cov_correction(SM.uniform(-1.0, 1.0), f)


def test_field_domain_must_cover_support():
    f = spectra.affine_field(1.0, 0.0, (0.0, 0.5))
    with pytest.raises(ValueError):
        spectra.pushforward(SM.uniform(0.0, 1.0), f)


def test_cov_correction_affine_is_log_slope():
    for mu in (SM.semicircle(1.0), SM.uniform(0.0, 1.0)):
        f = spectra.affine_field(1.7, 0.3, (-2.5, 2.5))
        assert abs(spectra.cov_correction(mu, f) - math.log(1.7)) < 1e-6


def test_cov_correction_identity_is_zero():
    f = spectra.identity_field((-2.5, 2.5))
    assert abs(spectra.cov_correction(SM.semicircle(1.0), f)) < 1e-12


def test_cov_correction_atomic_finite():
    at = SM.atomic([(-1.0, 0.5), (1.0, 0.5)])
    f = spectra.polynomial_field([0.0, 1.0, 0.0, 1.0], (-1.5, 1.5))  # x + x^3
    # oracle: direct 2x2 double sum; off-diagonal |f(1)-f(-1)|/2 = 2,
    # diagonal f'(+-1) = 4
    want = 0.5 * math.log(4.0) + 0.5 * math.log(2.0)
    assert abs(spectra.cov_correction(at, f) - want) < 1e-12


def test_change_of_variables_identity_grid():
    # chi(f # mu) = chi(mu) + correction, over the acceptance grid
    cases = {
        "semicircle": (SM.semicircle(1.0), (-2.2, 2.2)),
        "uniform": (SM.uniform(0.0, 1.0), (-0.1, 1.1)),
    }
    for name, (mu, dom) in cases.items():
        for f in (
            spectra.affine_field(1.7, 0.3, dom),
            spectra.polynomial_field([0.0, 1.0, 0.0, 1.0], dom),
            spectra.arctan_field(2.0, dom),
        ):
            lhs = spectra.chi_single(spectra.pushforward(mu, f))
            rhs = spectra.chi_single(mu) + spectra.cov_correction(mu, f)
            assert abs(lhs - rhs) < 2e-3, (name, lhs, rhs)


def test_conjugate_variable_semicircle_is_identity():
    for c2 in (0.25, 1.0, 2.0):
        x, j = spectra.conjugate_variable(SM.semicircle(c2))
        inner = np.abs(x) <= 0.9 * 2.0 * math.sqrt(c2)
        assert np.abs(j - x / c2)[inner].max() < 1e-2


def test_conjugate_variable_uniform_closed_form():
    a, b = -1.0, 1.0
    x, j = spectra.conjugate_variable(SM.uniform(a, b))
    inner = (x > -0.9) & (x < 0.9)
    want = (2.0 / (b - a)) * np.log((x[inner] - a) / (b - x[inner]))
    assert np.abs(j[inner] - want).max() < 1e-6


def test_stationarity_semicircle():
    sc = SM.semicircle(1.0)
    polys, vals = ([0, 1], [0, 0, 1], [0, 0, 0, 1]), (1.0, 0.0, 2.0)
    for (lhs, rhs), val in zip(spectra.inner_product_stationarity(sc, polys), vals, strict=True):
        assert abs(lhs - rhs) < 2e-2
        assert abs(lhs - val) < 2e-2


def test_stationarity_fails_off_semicircle():
    u = SM.uniform(-math.sqrt(3.0), math.sqrt(3.0))
    [(lhs, rhs)] = spectra.inner_product_stationarity(u, [[0, 0, 0, 1]])
    assert abs(lhs - rhs) > 0.1


def test_arcsine_gridded_values():
    ar = spectra.arcsine_gridded(1.0)
    assert abs(ar.moment(2) - 1.0) < 1e-3
    # exact law: I = log(a/2); clipping shifts by < 1e-2
    assert abs(spectra.log_energy(ar) - math.log(math.sqrt(2.0) / 2.0)) < 1e-2


def test_chi_maximum_over_variance_one_family():
    family = {
        "uniform": spectra.chi_single(SM.uniform(-math.sqrt(3), math.sqrt(3))),
        "arcsine": spectra.chi_single(spectra.arcsine_gridded(1.0)),
        "semicircle": spectra.chi_single(SM.semicircle(1.0)),
        "two-atom": spectra.chi_single(SM.atomic([(-1.0, 0.5), (1.0, 0.5)])),
    }
    best = max(family, key=family.get)
    assert best == "semicircle"
    # uniform is the nearest competitor, about 7.5e-3 below; quadrature
    # resolves that gap by two orders of magnitude
    assert family["semicircle"] - family["uniform"] > 5e-3


def test_esd_matches_semicircle():
    k = 256
    m = matcore.sample_gue(k, 1.0, seed=2718)
    ev = np.linalg.eigvalsh(m.array)
    mu = spectra.SpectralMeasure.atomic([(float(t), 1.0 / k) for t in ev])
    assert mu.is_atomic and len(mu.atoms) == k
    locs = np.array([a[0] for a in mu.atoms])

    def cdf(t):
        t = np.clip(t / 2.0, -1.0, 1.0)
        return 0.5 + (t * np.sqrt(1 - t * t) + np.arcsin(t)) / np.pi

    grid_cdf = cdf(np.sort(locs))
    ks = max(
        np.abs(np.arange(1, k + 1) / k - grid_cdf).max(),
        np.abs(np.arange(0, k) / k - grid_cdf).max(),
    )
    assert ks < 0.05


def test_measure_serialization_roundtrip():
    grid = SM.semicircle(1.0).to_grid(64)
    for mu, d in (
        (SM.semicircle(2.0), {"kind": "semicircle", "variance": 2.0}),
        (SM.uniform(-1.0, 4.0), {"kind": "uniform", "interval": [-1.0, 4.0]}),
        (SM.atomic([(0.5, 0.25), (-0.5, 0.75)]),
         {"kind": "atomic", "atoms": [[0.5, 0.25], [-0.5, 0.75]]}),
        (grid, {"kind": "grid", "support": list(grid.support),
                "values": [float(v) for v in grid.values]}),
    ):
        back = spectra.measure_from_dict(json.loads(json.dumps(d)))
        assert back.kind == mu.kind
        assert abs(back.moment(2) - mu.moment(2)) < 1e-9


# --- blocked kernels against full-tensor references ----------------------------
# The references form each quadrature tensor whole, as the kernels once did;
# the row-blocked kernels must reproduce them bit for bit at any block size.


def _bits(v):
    return np.asarray(v, dtype=float).reshape(-1).view(np.uint64)


def _autocorr_ref(mu, ys):
    a, b = mu.support
    xs, ws = leggauss(spectra._GL_ORDER)
    lo = a + ys / 2.0
    width = np.maximum((b - ys / 2.0) - lo, 0.0)
    edges = np.linspace(0.0, 1.0, spectra._X_PANELS + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    halfs = np.diff(edges) / 2.0
    un = (mids[:, None] + halfs[:, None] * xs[None, :]).ravel()
    uw = (halfs[:, None] * np.broadcast_to(ws, (spectra._X_PANELS, spectra._GL_ORDER))).ravel()
    x = lo[:, None] + width[:, None] * un[None, :]
    w = width[:, None] * uw[None, :]
    vals = mu.density(x + ys[:, None] / 2.0) * mu.density(x - ys[:, None] / 2.0)
    return np.sum(w * vals, axis=1)


def _gl_panels_ref(edges):
    xs, ws = leggauss(spectra._GL_ORDER)
    a, b = np.asarray(edges[:-1]), np.asarray(edges[1:])
    mid, half = (a + b)[:, None] / 2.0, (b - a)[:, None] / 2.0
    return (mid + half * xs[None, :]).ravel(), (half * ws[None, :]).ravel()


def _log_energy_ref(mu):
    a, b = mu.support
    L = b - a
    delta = 2.0 * L / spectra._GRID_N
    g0 = float(_autocorr_ref(mu, np.array([0.0]))[0])
    patch = g0 * delta * (math.log(delta) - 1.0)
    edges = delta * (L / delta) ** (np.arange(spectra._Y_PANELS + 1) / spectra._Y_PANELS)
    ys, ws = _gl_panels_ref(edges)
    return 2.0 * (patch + float(np.sum(ws * np.log(ys) * _autocorr_ref(mu, ys))))


def _cov_correction_ref(mu, f):
    if mu.is_atomic:
        x = np.array([a[0] for a in mu.atoms])
        v = np.array([a[1] for a in mu.atoms])
    else:
        x, w = _gl_panels_ref(np.linspace(*mu.support, spectra._X_PANELS + 1))
        v = w * mu.density(x)
    s, t = x[:, None], x[None, :]
    den = s - t
    near = np.abs(den) < 1e-12
    ratio = np.where(
        near,
        np.abs(f.deriv_at((s + t) / 2.0)),
        np.abs(np.where(near, 1.0, f(s) - f(t))) / np.abs(np.where(near, 1.0, den)),
    )
    return float(v @ np.log(ratio) @ v)


def _conjugate_ref(mu, npoints):
    g = mu if mu.kind == "grid" else mu.to_grid(npoints)
    x, p = g.grid(), g.values
    h = x[1] - x[0]
    a, b = g.support
    dp = np.gradient(p, h)
    diff = x[:, None] - x[None, :]
    near = np.abs(diff) < h / 2.0
    integ = np.where(
        near, -dp[:, None] * np.ones((1, x.size)),
        (p[None, :] - p[:, None]) / np.where(near, 1.0, diff),
    )
    regular = np.trapezoid(integ, dx=h, axis=1)
    logterm = np.zeros_like(x)
    logterm[1:-1] = np.log((x[1:-1] - a) / (b - x[1:-1]))
    logterm[0], logterm[-1] = logterm[1], logterm[-2]
    return 2.0 * (regular + p * logterm)


BIT_MEASURES = {
    "semicircle": SM.semicircle(1.0),
    "uniform": SM.uniform(0.0, 1.0),
    "arcsine-grid": spectra.arcsine_gridded(1.0),
    "semicircle-grid": SM.semicircle(2.0).to_grid(301),
}


@pytest.fixture
def block_rows(monkeypatch):
    # a few rows, so every tensor has many block edges and a partial last block
    monkeypatch.setattr(spectra, "_BLOCK_ROWS", 7)
    return 7


@pytest.mark.parametrize("name", sorted(BIT_MEASURES))
def test_blocked_autocorr_and_log_energy_match_full_tensor_bits(name, block_rows):
    mu = BIT_MEASURES[name]
    span = mu.support[1] - mu.support[0]
    for size in (1, 13, 2 * block_rows, 2 * block_rows + 1):
        ys = np.linspace(0.0, 1.01 * span, size)  # the last y is beyond the support
        assert np.array_equal(_bits(spectra._autocorr(mu, ys)), _bits(_autocorr_ref(mu, ys)))
    assert np.array_equal(_bits(spectra.log_energy(mu)), _bits(_log_energy_ref(mu)))


@pytest.mark.parametrize("name", sorted(BIT_MEASURES))
def test_blocked_cov_correction_matches_full_tensor_bits(name, block_rows):
    mu = BIT_MEASURES[name]
    a, b = mu.support
    dom = (a - 0.2, b + 0.2)
    fields = (
        spectra.affine_field(1.7, 0.3, dom),
        spectra.polynomial_field([0.0, 1.0, 0.0, 1.0], dom),
        spectra.arctan_field(2.0, dom),
    )
    for f in fields:
        got = spectra.cov_correction(mu, f)
        assert np.array_equal(_bits(got), _bits(_cov_correction_ref(mu, f)))
    # a repeated atom puts near pairs off the diagonal
    at = SM.atomic([(a + (b - a) * u, 0.25) for u in (0.1, 0.6, 0.6, 0.9)])
    for f in fields:
        got = spectra.cov_correction(at, f)
        assert np.array_equal(_bits(got), _bits(_cov_correction_ref(at, f)))


@pytest.mark.parametrize("rows", [7, 64, 100])
@pytest.mark.parametrize("natoms", [3, 5, 7, 65, 67, 130])
def test_slabbed_cov_correction_on_atoms_matches_full_tensor_bits(natoms, rows, monkeypatch):
    # slabs are 64 or 128 rows wide; these counts leave remainders that are
    # not multiples of 4 or 64, and 3, 5, 7 atoms fit in one narrow slab
    monkeypatch.setattr(spectra, "_BLOCK_ROWS", rows)
    locs = np.random.default_rng(natoms).uniform(-1.5, 1.5, natoms)
    locs[1] = locs[0]  # a repeated atom: near pairs off the diagonal
    w = np.random.default_rng(natoms + 1).uniform(0.5, 1.5, natoms)
    at = SM.atomic(zip(locs.tolist(), (w / w.sum()).tolist()))
    dom = (-2.0, 2.0)
    for f in (
        spectra.affine_field(1.7, 0.3, dom),
        spectra.polynomial_field([0.0, 1.0, 0.0, 1.0], dom),
        spectra.arctan_field(2.0, dom),
    ):
        got = spectra.cov_correction(at, f)
        assert np.array_equal(_bits(got), _bits(_cov_correction_ref(at, f)))


@pytest.mark.parametrize("name", sorted(BIT_MEASURES))
def test_blocked_conjugate_variable_matches_full_tensor_bits(name, block_rows):
    mu = BIT_MEASURES[name]
    for npoints in (spectra._GRID_N, 3 * block_rows + 2):
        x, j = spectra.conjugate_variable(mu.to_grid(npoints))
        assert np.array_equal(_bits(x), _bits(mu.to_grid(npoints).grid()))
        assert np.array_equal(_bits(j), _bits(_conjugate_ref(mu, npoints)))


def test_gauss_legendre_rule_is_shared_and_read_only():
    xs, ws = spectra._gl_rule()
    assert spectra._gl_rule()[0] is xs
    assert not xs.flags.writeable and not ws.flags.writeable
    ref_x, ref_w = leggauss(spectra._GL_ORDER)
    assert np.array_equal(xs, ref_x) and np.array_equal(ws, ref_w)
