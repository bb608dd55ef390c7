"""Exact volumes of the quadratic window, against both samplers.

A depth-2 window on one variable constrains x only through tr x and
tr x^2 = ||x||_F^2, so its volume is a one-dimensional integral of
sphere-shell volumes.  Write s = tr(x)/sqrt(k) for the coordinate along
the unit vector of the diagonal; the other d - 1 = k^2 - 1 coordinates
form x_perp with ||x||_F^2 = s^2 + ||x_perp||^2.  For targets tr x = t1,
tr x^2 = t2 (normalized traces) the window is

    |s - sqrt(k) t1| < eps sqrt(k),   k (t2 - eps) < s^2 + ||x_perp||^2 < k (t2 + eps),

and its volume is

    vol = int [V_{d-1}(sqrt(k (t2 + eps) - s^2)) - V_{d-1}(sqrt(k (t2 - eps) - s^2)_+)] ds

over that s interval, with V_m(r) the volume of the m-ball of radius r.
The operator-norm cutoff cannot bind once R >= sqrt(k (t2 + eps)), the
radius of the outer Hilbert-Schmidt ball; R = 6 covers k <= 24.

With a fixed Y, tr(x y) is one more linear form.  For the free pair of a
semicircle X and the two-atom law +-1 as Y, at Y = diag(+1 (k/2 times),
-1 (k/2 times)), the unit vectors 1/sqrt(k) and Y/sqrt(k) are orthogonal,
so with s1 = tr x / sqrt(k), s2 = tr(x Y) / sqrt(k) and the other
d - 2 coordinates as x_rest the window is

    |s1|, |s2| < eps sqrt(k),   k (1 - eps) < s1^2 + s2^2 + ||x_rest||^2 < k (1 + eps),

a two-dimensional integral of (d - 2)-dimensional shell volumes.  The
words in Y alone trace exactly to their targets 0 and 1.
"""

import math

import numpy as np
import pytest

from freelab import matcore, microstates as ms, spectra

T1, T2, EPS, RADIUS = 0.0, 1.0, 0.4, 6.0
SAMPLES, SEED = 4096, 1


def _log_ball(m, r):
    """log V_m(r), vectorized over r > 0."""
    return 0.5 * m * math.log(math.pi) + m * np.log(r) - math.lgamma(0.5 * m + 1.0)


def oracle_log_volume(k, t1=T1, t2=T2, eps=EPS, nodes=20_001):
    """log vol of the l = 2 window by the trapezoid rule over s.

    Needs t2 + eps > (|t1| + eps)^2, so that every node's outer radius
    is positive.  V(b) - V(a) = V(b) (1 - (a/b)^m) keeps the difference
    accurate in logs.
    """
    m = k * k - 1
    rk = math.sqrt(k)
    s = np.linspace(rk * (t1 - eps), rk * (t1 + eps), nodes)
    outer = k * (t2 + eps) - s * s
    inner = np.maximum(k * (t2 - eps) - s * s, 0.0)
    f = _log_ball(m, np.sqrt(outer)) + np.log1p(-((inner / outer) ** (0.5 * m)))
    w = np.full(nodes, s[1] - s[0])
    w[[0, -1]] *= 0.5
    top = f.max()
    return top + math.log(np.sum(w * np.exp(f - top)))


def fixed_y_oracle_log_volume(k, eps=EPS, nodes=2_001, rows=128):
    """log vol of the fixed-Y window by the trapezoid rule over (s1, s2),
    summed in blocks of ``rows`` values of s1."""
    m = k * k - 2
    s = np.linspace(-eps * math.sqrt(k), eps * math.sqrt(k), nodes)
    logw = np.full(nodes, math.log(s[1] - s[0]))
    logw[[0, -1]] -= math.log(2.0)
    blocks = []
    for r in range(0, nodes, rows):
        q = s[r : r + rows, None] ** 2 + s**2
        outer = k * (1.0 + eps) - q
        inner = np.maximum(k * (1.0 - eps) - q, 0.0)
        f = _log_ball(m, np.sqrt(outer)) + np.log1p(-((inner / outer) ** (0.5 * m)))
        f += logw[r : r + rows, None] + logw
        top = f.max()
        blocks.append(top + math.log(np.sum(np.exp(f - top))))
    top = max(blocks)
    return top + math.log(sum(math.exp(b - top) for b in blocks))


def _estimate(k, sampler):
    spec = ms.TracialSpec.free_model(1, 0, 2, [spectra.SpectralMeasure.semicircle(T2)], [0])
    p = ms.MicrostateParams(k=k, l=2, eps=EPS, radius=RADIUS)
    return ms.estimate_volume(spec, p, sampler, nsamples=SAMPLES, seed=SEED)


@pytest.mark.parametrize(
    "k,want", [(2, 2.742), (4, 12.163), (8, 32.377), (16, 48.080), (24, -4.818)]
)
def test_oracle_values(k, want):
    assert math.sqrt(k * (T2 + EPS)) <= RADIUS
    assert oracle_log_volume(k) == pytest.approx(want, abs=1e-3)


@pytest.mark.parametrize("k", [2, 4, 8, 16, 24])
def test_ball_matches_the_oracle(k):
    # acceptance is near 1 at every k, so the stated stderr can be 0; the
    # 0.005 floor covers the oracle's quadrature and a finite-sample p-hat
    est = _estimate(k, "ball")
    assert abs(est.log_volume - oracle_log_volume(k)) <= 4.0 * est.stderr_log + 0.005


@pytest.mark.parametrize(
    "k",
    [
        2, 4, 8,
        pytest.param(24, marks=pytest.mark.xfail(
            strict=True,
            reason="FOUND in CHANGES.md: importance sampling reads the k=24 window "
                   "about 35 nats (35 stated stderr) below its exact volume",
        )),
    ],
)
def test_importance_matches_the_oracle(k):
    # k = 16 is left out: its error is 1 to 12 stated stderr, depending on the seed
    est = _estimate(k, "importance")
    assert abs(est.log_volume - oracle_log_volume(k)) <= 4.0 * est.stderr_log


FIXED_Y = [(2, 1.862), (4, 11.985), (6, 22.446), (8, 32.372), (10, 40.711), (12, 46.581)]


def _estimate_fixed_y(k, sampler):
    spec = ms.TracialSpec.free_model(
        1, 1, 2,
        [spectra.SpectralMeasure.semicircle(1.0),
         spectra.SpectralMeasure.atomic([(-1.0, 0.5), (1.0, 0.5)])],
        [0, 1],
    )
    y = matcore.MatrixTuple(
        [matcore.SelfAdjointMatrix.hermitian_part(np.diag([1.0] * (k // 2) + [-1.0] * (k // 2)))]
    )
    p = ms.MicrostateParams(k=k, l=2, eps=EPS, radius=RADIUS)
    return ms.estimate_volume(spec, p, sampler, y=y, nsamples=SAMPLES, seed=SEED)


@pytest.mark.parametrize("k,want", FIXED_Y)
def test_fixed_y_oracle_values(k, want):
    assert math.sqrt(k * (1.0 + EPS)) <= RADIUS
    assert fixed_y_oracle_log_volume(k) == pytest.approx(want, abs=1e-3)


@pytest.mark.parametrize("k", [k for k, _ in FIXED_Y])
def test_ball_matches_the_fixed_y_oracle(k):
    est = _estimate_fixed_y(k, "ball")
    assert abs(est.log_volume - fixed_y_oracle_log_volume(k)) <= 4.0 * est.stderr_log + 0.005


@pytest.mark.parametrize("k", [k for k, _ in FIXED_Y])
def test_importance_matches_the_fixed_y_oracle(k):
    est = _estimate_fixed_y(k, "importance")
    assert abs(est.log_volume - fixed_y_oracle_log_volume(k)) <= 4.0 * est.stderr_log


@pytest.mark.parametrize("sampler", ["ball", "importance"])
@pytest.mark.parametrize("k", [2, 4, 8])
def test_stated_stderr_covers_the_oracle(k, sampler):
    # a calibrated stderr puts |z| <= 3 on 99.7% of seeds; 18 of 20 leaves
    # room for the normal approximation at 4096 samples
    spec = ms.TracialSpec.free_model(1, 0, 2, [spectra.SpectralMeasure.semicircle(T2)], [0])
    p = ms.MicrostateParams(k=k, l=2, eps=EPS, radius=RADIUS)
    exact = oracle_log_volume(k)
    z = []
    for seed in range(20):
        est = ms.estimate_volume(spec, p, sampler, nsamples=SAMPLES, seed=seed)
        z.append(abs(est.log_volume - exact) / est.stderr_log)
    assert sum(v <= 3.0 for v in z) >= 18, z
