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
"""

import math

import numpy as np
import pytest

from freelab import microstates as ms, spectra

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
