"""One-variable spectral measures and their entropy functionals.

The central quantity is the logarithmic energy

    I(mu) = integral integral log|s - t| dmu(s) dmu(t),

and the single-variable free entropy chi_single(mu) = I(mu) + 3/4 +
(1/2) log(2 pi).  The semicircle law of variance c^2 gives the maximum
(1/2) log(2 pi e c^2) over laws of that variance.

Quadrature scheme for I: rotate coordinates to y = s - t, so
I = 2 * int_0^L log(y) G(y) dy with G the density autocorrelation
G(y) = int p(x + y/2) p(x - y/2) dx, which is smooth and even.  The log
endpoint is handled by an analytic patch G(0) * (delta log delta -
delta) on [0, delta] (G'(0) = 0 by symmetry) and geometric
Gauss-Legendre panels on [delta, L].  Atomic measures include the
diagonal pairs, so their log energy is -inf by definition, matching
chi(atomic) = -inf.

The quadrature tensors (autocorrelation nodes per y, the
change-of-variables log-ratio matrix, the principal-value integrand)
are formed _BLOCK_ROWS rows at a time, so their temporaries stay
cache-sized.  Each row sees the same element-wise operations and its
own per-row reduction, so the block size cannot change a value.

The log-ratio matrix L is never held whole: cov_correction contracts it
one slab of rows at a time.  L is bitwise symmetric (numerator and
denominator only change sign, the diagonal midpoint is a commutative
sum), so a slab of rows, transposed, is the same slab of columns, and
one BLAS gemv per slab gives those entries of v @ L.  Unlike the block
size, the slab width can change a value: the gemv sums a group of four
output entries in one order and a tail of fewer in another, and a slab
of fewer than four rows goes down other paths again.  So a slab is
64 * ceil(_BLOCK_ROWS / 64) rows wide, a multiple of 64 whatever the
block size, and the rows left over join the last slab: each entry of
v @ L is then summed exactly as in one gemv over the whole matrix.
"""

import functools
import math
import numbers
import sys

import numpy as np
from numpy.polynomial.legendre import leggauss


_GRID_N = 2048           # default uniform grid resolution
_GL_ORDER = 64           # Gauss-Legendre order per panel
_X_PANELS = 32           # panels for integrals across the support
_Y_PANELS = 24           # geometric panels for the log-singular axis
_DRIFT_TOL = 1e-4
_BLOCK_ROWS = 64         # tensor rows formed at once by the quadrature kernels


class MeasureFormatError(ValueError):
    """Malformed spectral-measure document or parameters."""


def _finite(v, what: str) -> float:
    """v as a float; MeasureFormatError unless v is a finite real number."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not abs(v) <= sys.float_info.max:
        raise MeasureFormatError(f"{what} must be a finite number, not {v!r}")
    return float(v)


def _interval(v, what: str):
    """(a, b) with a < b from a pair of finite numbers."""
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise MeasureFormatError(f"{what} must be a pair [a, b] of finite numbers, not {v!r}")
    a, b = (_finite(x, what) for x in v)
    if not b > a:
        raise MeasureFormatError("empty support interval")
    return a, b


@functools.cache
def _gl_rule():
    """Gauss-Legendre nodes and weights of order _GL_ORDER, read-only."""
    xs, ws = leggauss(_GL_ORDER)
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


def _gl_panels(edges):
    """Nodes and weights of composite Gauss-Legendre over given edges."""
    xs, ws = _gl_rule()
    a = np.asarray(edges[:-1])
    b = np.asarray(edges[1:])
    mid = (a + b)[:, None] / 2.0
    half = (b - a)[:, None] / 2.0
    return (mid + half * xs[None, :]).ravel(), (half * ws[None, :]).ravel()


class SpectralMeasure:
    """Probability measure on the line, in one of four kinds.

    kind "atomic":     finite list of (location, weight) pairs (support
                       [min, max] of the locations)
    kind "grid":       density values on a uniform grid over [a, b]
    kind "semicircle": semicircle law of given variance (support
                       [-2c, 2c], density sqrt(4c^2 - x^2)/(2 pi c^2))
    kind "uniform":    uniform on an interval

    Analytic kinds keep their closed-form densities; ``to_grid``
    converts when a grid is required.  Grid densities are renormalized
    so the trapezoid mass is exactly 1; the pre-normalization drift is
    recorded in ``mass_drift`` and must stay below 1e-4.  Every number
    must be finite; any fault of shape or value is a MeasureFormatError.
    """

    __slots__ = ("kind", "atoms", "support", "values", "variance", "mass_drift", "_grid")

    def __init__(self, kind, atoms=None, support=None, values=None, variance=None):
        self.kind = kind
        self.atoms = atoms
        self.support = support
        self.values = values
        self.variance = variance
        self.mass_drift = 0.0
        if kind == "atomic":
            if not isinstance(atoms, (list, tuple)) or not all(
                isinstance(a, (list, tuple)) and len(a) == 2 for a in atoms
            ):
                raise MeasureFormatError("atoms must be a list of [location, weight] pairs")
            self.atoms = [(_finite(x, "atom location"), _finite(w, "atom weight")) for x, w in atoms]
            w = np.array([a[1] for a in self.atoms])
            if (w < 0).any():
                raise MeasureFormatError("negative atom weight")
            if abs(w.sum() - 1.0) > 1e-10:
                raise MeasureFormatError(f"atom weights sum to {w.sum()!r}, not 1")
            locs = [a[0] for a in self.atoms]
            self.support = (min(locs), max(locs))
        elif kind == "grid":
            try:
                vals = np.asarray(values, dtype=float)
            except (TypeError, ValueError, OverflowError) as e:
                raise MeasureFormatError(f"grid values must be numbers ({e})") from None
            if vals.ndim != 1 or vals.size < 8 or not np.isfinite(vals).all():
                raise MeasureFormatError("grid density needs >= 8 finite values")
            if (vals < 0).any():
                raise MeasureFormatError("negative density value")
            a, b = _interval(support, "grid support")
            h = (b - a) / (vals.size - 1)
            mass = np.trapezoid(vals, dx=h)
            if mass <= 0:
                raise MeasureFormatError("zero-mass density")
            drift = abs(mass - 1.0)
            if drift > _DRIFT_TOL:
                raise MeasureFormatError(f"density mass {mass!r} drifts beyond 1e-4")
            self.mass_drift = drift
            self.values = vals / mass
            self.values.setflags(write=False)
            self.support = (a, b)
            self._grid = np.linspace(a, b, vals.size)
            self._grid.setflags(write=False)
        elif kind == "semicircle":
            self.variance = _finite(variance, "semicircle variance")
            if not self.variance > 0:
                raise MeasureFormatError("semicircle variance must be positive")
            c = math.sqrt(self.variance)
            self.support = (-2.0 * c, 2.0 * c)
        elif kind == "uniform":
            self.support = _interval(support, "uniform interval")
        else:
            raise MeasureFormatError(f"unknown measure kind {kind!r}")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def semicircle(variance: float) -> "SpectralMeasure":
        return SpectralMeasure("semicircle", variance=variance)

    @staticmethod
    def uniform(a: float, b: float) -> "SpectralMeasure":
        return SpectralMeasure("uniform", support=(a, b))

    @staticmethod
    def atomic(pairs) -> "SpectralMeasure":
        return SpectralMeasure("atomic", atoms=list(pairs))

    @staticmethod
    def gridded(support, values) -> "SpectralMeasure":
        return SpectralMeasure("grid", support=tuple(support), values=values)

    # -- basic queries ----------------------------------------------------
    @property
    def is_atomic(self) -> bool:
        return self.kind == "atomic"

    def grid(self) -> np.ndarray:
        if self.kind != "grid":
            raise ValueError("only grid measures expose a grid")
        return self._grid

    def density(self, x):
        """Density evaluated at x (vectorized); atomic measures have none."""
        x = np.asarray(x, dtype=float)
        if self.kind == "semicircle":
            c2 = self.variance
            v = 4.0 * c2 - x * x
            return np.sqrt(np.maximum(v, 0.0)) / (2.0 * math.pi * c2)
        if self.kind == "uniform":
            a, b = self.support
            return np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)
        if self.kind == "grid":
            return np.interp(x, self.grid(), self.values, left=0.0, right=0.0)
        raise ValueError("atomic measure has no density")

    def moment(self, p: int) -> float:
        """p-th raw moment; a ValueError when it overflows a float."""
        a, b = self.support
        try:
            if p == 0:
                value = 1.0
            elif self.kind == "atomic":
                value = float(sum(w * loc**p for loc, w in self.atoms))
            elif self.kind == "semicircle":
                m = p // 2
                value = 0.0 if p % 2 else math.comb(2 * m, m) / (m + 1) * self.variance**m
            elif self.kind == "uniform":
                try:
                    value = (b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))
                except OverflowError:
                    value = math.inf
                if not math.isfinite(value):
                    # a power overflowed, maybe not the moment: expand about the midpoint
                    c, h = a / 2 + b / 2, b / 2 - a / 2
                    value = math.fsum(
                        math.comb(p, j) * c ** (p - j) * h**j / (j + 1) for j in range(0, p + 1, 2)
                    )
            else:
                x, w = _gl_panels(np.linspace(a, b, _X_PANELS + 1))
                value = float(np.sum(w * self.density(x) * x**p))
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"moment {p} of {self!r} overflows a float")
        return value

    def to_grid(self, npoints: int = _GRID_N) -> "SpectralMeasure":
        """Uniform-grid version (renormalized); identity on grid kind."""
        if self.kind == "grid":
            return self
        if self.kind == "atomic":
            raise ValueError("atomic measure has no density to grid")
        a, b = self.support
        x = np.linspace(a, b, npoints)
        v = self.density(x)
        # pre-normalize so coarse grids pass the constructor's drift gate
        v = v / np.trapezoid(v, dx=(b - a) / (npoints - 1))
        return SpectralMeasure.gridded((a, b), v)

    def quantile(self, u):
        """Left-continuous quantile function, vectorized over u in [0,1]."""
        u = np.asarray(u, dtype=float)
        if self.kind == "atomic":
            locs = np.array([a[0] for a in sorted(self.atoms)])
            cum = np.cumsum([a[1] for a in sorted(self.atoms)])
            idx = np.searchsorted(cum - 1e-15, u)
            return locs[np.minimum(idx, locs.size - 1)]
        if self.kind == "uniform":
            a, b = self.support
            return a + (b - a) * u
        g = self.to_grid()
        x = g.grid()
        h = x[1] - x[0]
        cdf = np.concatenate([[0.0], np.cumsum((g.values[1:] + g.values[:-1]) * h / 2.0)])
        cdf /= cdf[-1]
        return np.interp(u, cdf, x)

    def __repr__(self):
        if self.kind == "semicircle":
            return f"SpectralMeasure(semicircle, variance={self.variance})"
        if self.kind == "atomic":
            return f"SpectralMeasure(atomic, {len(self.atoms)} atoms)"
        return f"SpectralMeasure({self.kind}, support={self.support})"


# ---------------------------------------------------------------------------
# Scalar fields (test functions for change of variables)


class ScalarField:
    """Real function f on an interval and its derivative fp, as exact
    vectorized callables.  ``diffeo=True`` asserts a diffeomorphism: f must
    strictly increase or decrease over the _GRID_N-point grid of ``support``.
    """

    __slots__ = ("f", "fp", "support", "diffeo")

    def __init__(self, f, fp, support, diffeo):
        self.f = f
        self.fp = fp
        self.support = (float(support[0]), float(support[1]))
        self.diffeo = diffeo
        if diffeo:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the test
                d = np.diff(f(np.linspace(*self.support, _GRID_N)))
            if not ((d > 0).all() or (d < 0).all()):
                raise ValueError("field flagged diffeomorphism is not strictly monotone")

    def __call__(self, x):
        return self.f(np.asarray(x, dtype=float))

    def deriv_at(self, x):
        return self.fp(np.asarray(x, dtype=float))


def affine_field(a: float, b: float, support) -> ScalarField:
    """x -> a x + b; a must be nonzero."""
    if a == 0:
        raise ValueError("affine field needs nonzero slope")
    return ScalarField(lambda x: a * x + b, lambda x: np.full_like(x, float(a)), support, True)


def polynomial_field(coeffs, support) -> ScalarField:
    """x -> sum coeffs[j] x^j (ascending); flagged diffeo iff f' keeps one strict sign."""
    poly = np.polynomial.polynomial
    c = np.asarray(coeffs, dtype=float)
    f = functools.partial(poly.polyval, c=c)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the sign test
        fp = functools.partial(poly.polyval, c=poly.polyder(c))
        d = fp(np.linspace(support[0], support[1], _GRID_N))
    return ScalarField(f, fp, support, diffeo=bool((d > 0).all() or (d < 0).all()))


def arctan_field(scale: float, support) -> ScalarField:
    """x -> scale * arctan(x); strictly increasing for scale > 0."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return ScalarField(
        lambda x: scale * np.arctan(x), lambda x: scale / (1.0 + x * x), support, True
    )


def identity_field(support) -> ScalarField:
    return affine_field(1.0, 0.0, support)


def arcsine_gridded(variance: float) -> SpectralMeasure:
    """Arcsine law of given variance as a grid measure.

    The exact density 1/(pi sqrt(a^2 - x^2)) on [-a, a] (a^2 = 2 *
    variance) diverges at the edges, so the grid is clipped to
    |x| <= a(1 - 1e-4) and renormalized on-grid; the clipped tails hold
    about 0.45% of the mass, which perturbs chi_single by a few 1e-3.
    Closed form for the exact law: I = log(a/2).
    """
    a = math.sqrt(2.0 * variance)
    edge = a * (1.0 - 1e-4)
    x = np.linspace(-edge, edge, _GRID_N)
    dens = 1.0 / (math.pi * np.sqrt(a * a - x * x))
    h = x[1] - x[0]
    dens = dens / np.trapezoid(dens, dx=h)
    return SpectralMeasure.gridded((-edge, edge), dens)


# ---------------------------------------------------------------------------
# Logarithmic energy and entropy


def _autocorr(mu: SpectralMeasure, ys: np.ndarray) -> np.ndarray:
    """G(y) = int p(x+y/2) p(x-y/2) dx for each y >= 0, vectorized.

    The inner integral runs over [a + y/2, b - y/2] with panels mapped
    per y, so sqrt-type density endpoints always sit on panel edges.
    """
    a, b = mu.support
    # unit-interval nodes and weights, mapped into [lo, hi] per y
    un, uw = _gl_panels(np.linspace(0.0, 1.0, _X_PANELS + 1))
    out = np.empty(ys.size)
    for r in range(0, ys.size, _BLOCK_ROWS):
        y = ys[r:r + _BLOCK_ROWS, None]
        lo = a + y / 2.0
        width = np.maximum((b - y / 2.0) - lo, 0.0)
        x = lo + width * un
        vals = mu.density(x + y / 2.0) * mu.density(x - y / 2.0)
        out[r:r + _BLOCK_ROWS] = np.sum(width * uw * vals, axis=1)
    return out


def log_energy(mu: SpectralMeasure) -> float:
    """I(mu) = double integral of log|s - t|.

    Atomic measures return -inf (the diagonal pairs are included by
    definition).  Densities use the autocorrelation scheme from the
    module docstring.
    """
    if mu.is_atomic:
        return float("-inf")
    a, b = mu.support
    L = b - a
    delta = 2.0 * L / _GRID_N
    g0 = float(_autocorr(mu, np.array([0.0]))[0])
    patch = g0 * delta * (math.log(delta) - 1.0)
    edges = delta * (L / delta) ** (np.arange(_Y_PANELS + 1) / _Y_PANELS)
    ys, ws = _gl_panels(edges)
    tail = float(np.sum(ws * np.log(ys) * _autocorr(mu, ys)))
    return 2.0 * (patch + tail)


def chi_from_log_energy(energy: float) -> float:
    """One-variable free entropy of a law of log energy I: I + 3/4 + (1/2) log(2 pi)."""
    return energy + 0.75 + 0.5 * math.log(2.0 * math.pi)


def chi_single(mu: SpectralMeasure) -> float:
    """One-variable free entropy of mu: chi_from_log_energy(log_energy(mu))."""
    return chi_from_log_energy(log_energy(mu))


def semicircle_entropy(variance: float) -> float:
    """Closed form chi of the semicircle law: (1/2) log(2 pi e variance)."""
    return 0.5 * math.log(2.0 * math.pi * math.e * variance)


# ---------------------------------------------------------------------------
# Change of variables


def _field_over(mu: SpectralMeasure, f: ScalarField) -> None:
    a, b = mu.support
    ga, gb = f.support
    if a < ga - 1e-12 or b > gb + 1e-12:
        raise ValueError(
            f"field domain [{ga}, {gb}] does not cover measure support [{a}, {b}]"
        )


def pushforward(mu: SpectralMeasure, f: ScalarField) -> SpectralMeasure:
    """Image measure f_* mu.

    Atoms map through f.  Densities transport with the 1/|f'| factor
    onto a uniform grid over the image interval; the mass drift before
    on-grid renormalization must stay below 1e-4 (it is ~1e-5 for
    sqrt-edge densities at the default resolution), so mass is
    preserved to far better than 1e-6 after normalization.
    """
    if mu.is_atomic:
        return SpectralMeasure.atomic([(float(f(np.array(loc))), w) for loc, w in mu.atoms])
    if not f.diffeo:
        raise ValueError("pushforward of a density needs a monotone field")
    _field_over(mu, f)
    g = mu.to_grid()
    x = g.grid()
    fx = f(x)
    if fx[0] > fx[-1]:
        x, fx = x[::-1], fx[::-1]
    ya, yb = fx[0], fx[-1]
    y = np.linspace(ya, yb, x.size)
    xin = np.interp(y, fx, x)  # monotone inverse
    q = g.density(xin) / np.abs(f.deriv_at(xin))
    return SpectralMeasure.gridded((ya, yb), q)


def _log_ratio_rows(f: ScalarField, x: np.ndarray, fx: np.ndarray, rows: slice) -> np.ndarray:
    """Rows of L[i, j] = log(|f(x_i) - f(x_j)| / |x_i - x_j|), and log|f'|
    at the midpoint where x_i and x_j lie within 1e-12 (the diagonal);
    fx is f(x)."""
    den = x[rows, None] - x
    near = np.abs(den) < 1e-12
    num = fx[rows, None] - fx
    den[near] = 1.0
    blk = np.divide(np.abs(num), np.abs(den))
    diag = np.flatnonzero(near)  # 1-D: far cheaper than a 2-D np.nonzero
    i, j = np.divmod(diag, x.size)
    blk.reshape(-1)[diag] = np.abs(f.deriv_at((x[rows][i] + x[j]) / 2.0))
    return np.log(blk, out=blk)


def cov_correction(mu: SpectralMeasure, f: ScalarField) -> float:
    """Entropy change of variables term:

        integral integral log( |f(s)-f(t)| / |s-t| ) dmu(s) dmu(t).

    The integrand extends continuously to log|f'(s)| on the diagonal,
    so for monotone smooth f there is no singularity and a tensor
    Gauss-Legendre rule applies; for atomic mu the double sum is finite
    even though both log energies are -inf.  The value is v @ L @ v over
    the nodes' weights v, with L contracted in slabs of rows (module
    docstring): bit for bit the product over the whole matrix.
    """
    if not f.diffeo:
        raise ValueError("change of variables needs a monotone field")
    _field_over(mu, f)
    if mu.is_atomic:
        x = np.array([a[0] for a in mu.atoms])
        v = np.array([a[1] for a in mu.atoms])
    else:
        x, w = _gl_panels(np.linspace(*mu.support, _X_PANELS + 1))
        v = w * mu.density(x)
    fx = f(x)
    width = 64 * -(-_BLOCK_ROWS // 64)
    edges = [*range(0, max(x.size - width, 0) + 1, width), x.size]
    vl = np.empty(x.size)
    for r, stop in zip(edges, edges[1:]):
        blk = _log_ratio_rows(f, x, fx, slice(r, stop))
        vl[r:stop] = v @ np.ascontiguousarray(blk.T)
    return float(vl @ v)


# ---------------------------------------------------------------------------
# Conjugate variables


def conjugate_variable(mu: SpectralMeasure) -> tuple[np.ndarray, np.ndarray]:
    """(x, J(x)) with x the grid of mu.to_grid() and J(x) = 2 PV integral
    p(t)/(x - t) dt.

    The principal value splits as the regular part
    int (p(t) - p(x))/(x - t) dt (the integrand tends to -p'(x) on the
    diagonal) plus p(x) log((x-a)/(b-x)).  For the semicircle of
    variance c^2 this gives J(x) = x / c^2; J(semicircle(1)) = id is
    the normalization anchor fixing the factor 2.
    """
    g = mu.to_grid()
    x = g.grid()
    p = g.values
    h = x[1] - x[0]
    a, b = g.support
    dp = np.gradient(p, h)
    regular = np.empty(x.size)
    for r in range(0, x.size, _BLOCK_ROWS):
        rows = slice(r, r + _BLOCK_ROWS)
        diff = x[rows, None] - x
        near = np.abs(diff) < h / 2.0
        integ = np.where(near, -dp[rows, None], (p - p[rows, None]) / np.where(near, 1.0, diff))
        regular[rows] = np.trapezoid(integ, dx=h, axis=1)
    inner = x[1:-1]
    logterm = np.zeros_like(x)
    logterm[1:-1] = np.log((inner - a) / (b - inner))
    # endpoint log term is +-inf, but the density vanishes there for
    # the laws of interest; clamp to the neighbour to avoid nan * 0
    logterm[0] = logterm[1]
    logterm[-1] = logterm[-2]
    return x, 2.0 * (regular + p * logterm)


def inner_product_stationarity(mu: SpectralMeasure, polys) -> list[tuple[float, float]]:
    """Pairs (int J(x) P(x) dmu, int x P(x) dmu), one per P in polys.

    Equality of the two is the stationarity test passed by the
    semicircle law; each P is a sequence of ascending polynomial
    coefficients.  J is solved once for all of them.
    """
    g = mu.to_grid()
    x, j = conjugate_variable(g)
    h = x[1] - x[0]
    pairs = []
    for coeffs in polys:
        px = np.polynomial.polynomial.polyval(x, np.asarray(coeffs, dtype=float))
        lhs = float(np.trapezoid(j * px * g.values, dx=h))
        rhs = float(np.trapezoid(x * px * g.values, dx=h))
        pairs.append((lhs, rhs))
    return pairs


# ---------------------------------------------------------------------------
# Serialization


def measure_from_dict(doc: dict) -> SpectralMeasure:
    """Measure of a JSON document; any fault is a MeasureFormatError."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise MeasureFormatError("measure document must be an object with a 'kind'")
    kind = doc["kind"]
    try:
        if kind == "semicircle":
            return SpectralMeasure(kind, variance=doc["variance"])
        if kind == "uniform":
            return SpectralMeasure(kind, support=doc["interval"])
        if kind == "atomic":
            return SpectralMeasure(kind, atoms=doc["atoms"])
        if kind == "grid":
            return SpectralMeasure(kind, support=doc["support"], values=doc["values"])
    except KeyError as e:
        raise MeasureFormatError(f"measure document missing field {e}") from e
    raise MeasureFormatError(f"unknown measure kind {kind!r}")
