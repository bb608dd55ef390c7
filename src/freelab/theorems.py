"""Desk-scale checks of the entropy inequality and identity battery.

Each check computes both sides of one claim and reports the measured
values, the comparison direction, and the tolerance it was held to.
Deterministic checks (quadrature and closed forms, no Monte Carlo
estimation) form the default gate; the statistical tier reruns the
Monte Carlo estimators and only asserts one-sided bounds with three
standard errors of slack.  Every check is bit-reproducible given its
configuration and seed.
"""

import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Tuple

import numpy as np

from . import matcore, microstates as ms, ncalg, rng, spectra


@dataclass
class CheckReport:
    id: str
    relation: str  # one of "<=", "==", ">="
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    statistical: bool
    seed: int
    diagnostics: Dict = field(default_factory=dict)


def report_text(r: CheckReport) -> str:
    status = "PASS" if r.passed else "FAIL"
    tier = "statistical" if r.statistical else "deterministic"
    return (
        f"[{status}] {r.id} ({tier}): "
        f"lhs={r.lhs:.6g} {r.relation} rhs={r.rhs:.6g} (tol={r.tolerance:.6g})"
    )


# --- shared plumbing ---------------------------------------------------------


def _one_sided(lhs, s_lhs, rhs, s_rhs) -> Tuple[bool, float]:
    """lhs <= rhs up to three standard errors on each side."""
    tol = 3.0 * (s_lhs + s_rhs)
    if lhs == float("-inf"):
        return True, tol
    if rhs == float("-inf"):
        return False, tol
    return lhs - 3.0 * s_lhs <= rhs + 3.0 * s_rhs, tol


def _est_dict(est: ms.ChiEstimate) -> dict:
    return {
        "extrapolated": est.extrapolated,
        "sigma": est.sigma,
        "per_k": [[pt.k, pt.value, pt.stderr] for pt in est.per_k],
        "y_used": est.y_used,
    }


_MC_DEFAULTS = ms.Sweep(
    k_list=(2, 3, 4, 5, 6), l=2, eps=0.45, radius=4.0, nsamples=50_000, seed=0, threads=1,
    y_pool=8,
)


# x - c x^3 is increasing on the T-CONJ and T-COVGEN field domain
# [-2.2, 2.2] exactly when c < _CUBIC_MAX, so their fields stay monotone
_CUBIC_MAX = 1.0 / (3.0 * 2.2**2)


def _is_num(v) -> bool:
    return ms._is_real(v) and math.isfinite(v)


def _list_of(ok):
    return lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(ok(x) for x in v)


def _tuple_of(conv):
    return lambda v: tuple(conv(x) for x in v)


# per-check settings, validated when present: key -> (rule, what it asks
# for, conversion of a valid value)
_CHECK_KEYS = {
    "tolerance": (lambda v: _is_num(v) and v >= 0, "a finite number >= 0", float),
    "margin": (_is_num, "a finite number", float),
    "finite_k_allowance": (lambda v: _is_num(v) and v >= 0, "a finite number >= 0", float),
    "fd_eps": (lambda v: _is_num(v) and 0 < v < _CUBIC_MAX,
               f"a number in (0, {_CUBIC_MAX:.4g})", float),
    "covgen_k": (lambda v: ms._is_int(v) and v >= 1, "an integer >= 1", int),
    "covgen_coef": (lambda v: _is_num(v) and v > -_CUBIC_MAX,
                    f"a finite number > {-_CUBIC_MAX:.4g}", float),
    "t_values": (_list_of(lambda t: _is_num(t) and t > 0),
                 "a nonempty list of positive finite numbers", _tuple_of(float)),
    "gen_powers": (_list_of(lambda q: ms._is_int(q) and q >= 1),
                   "a nonempty list of integers >= 1", _tuple_of(int)),
}


def _mc_cfg(cfg: dict) -> dict:
    """The settings of cfg over the Monte Carlo defaults, converted.

    The one validator of a check configuration: a SettingsError lists
    every bad key, the sweep's (checked by ms.Sweep), the per-check ones
    of _CHECK_KEYS and any key that is neither alike.  Returns the sweep
    as "sweep" and the per-check keys that cfg has.
    """
    settings = {f.name: cfg[f.name] for f in fields(ms.Sweep) if f.name in cfg}
    try:
        sweep, problems = replace(_MC_DEFAULTS, **settings), []
    except ms.SettingsError as e:
        sweep, problems = None, e.problems
    problems += [
        f"{key} must be {what}, not {cfg[key]!r}"
        for key, (ok, what, _) in _CHECK_KEYS.items() if key in cfg and not ok(cfg[key])
    ]
    known = [f.name for f in fields(ms.Sweep)] + list(_CHECK_KEYS)
    problems += [
        f"{key} must be a known setting (one of {', '.join(known)})"
        for key in cfg if key not in known
    ]
    if problems:
        raise ms.SettingsError(problems)
    out = {key: conv(cfg[key]) for key, (_, _, conv) in _CHECK_KEYS.items() if key in cfg}
    out["sweep"] = sweep
    return out


def _sc():
    return spectra.SpectralMeasure.semicircle(1.0)


def _ta():
    return spectra.SpectralMeasure.atomic([(-1.0, 0.5), (1.0, 0.5)])


def _chi(c, tag, n, m, *factors):
    """The sweep of the free model whose letter i is factor i, conditioned
    over a Y pool when it has Y letters (m > 0)."""
    sweep = c["sweep"]
    spec = ms.TracialSpec.free_model(n, m, sweep.l, list(factors), list(range(n + m)))
    return ms.estimate_chi(spec, replace(sweep, seed=rng.derive(sweep.seed, tag)))


def _free_pair(c, t_joint, t_x, t_y):
    """chi(X, Y), chi(X) and chi(Y) of the free semicircle and two-atom pair."""
    sc, ta = _sc(), _ta()
    return _chi(c, t_joint, 2, 0, sc, ta), _chi(c, t_x, 1, 0, sc), _chi(c, t_y, 1, 0, ta)


def _relative_and_plain(c, t_rel, t_plain):
    """chi(X | Y) of the free pair and chi(X) of the semicircle alone."""
    sc = _sc()
    return _chi(c, t_rel, 1, 1, sc, _ta()), _chi(c, t_plain, 1, 0, sc)


# --- statistical tier --------------------------------------------------------


def _chk_chain(c):
    """chi(X,Y) - chi(Y) <= chi(X,Y) - chi(Y:X) <= chi(X|Y)."""
    sc, ta = _sc(), _ta()
    joint = _chi(c, 1, 2, 0, sc, ta)
    y_only = _chi(c, 2, 1, 0, ta)
    rel_x = _chi(c, 3, 1, 1, sc, ta)
    rel_y = _chi(c, 4, 1, 1, ta, sc)
    lhs = joint.extrapolated - y_only.extrapolated
    s_lhs = math.hypot(joint.sigma, y_only.sigma)
    mid = joint.extrapolated - rel_y.extrapolated
    s_mid = math.hypot(joint.sigma, rel_y.sigma)
    rhs = rel_x.extrapolated
    s_rhs = rel_x.sigma
    ok1, _ = _one_sided(lhs, s_lhs, mid, s_mid)
    ok2, tol = _one_sided(mid, s_mid, rhs, s_rhs)
    return "<=", lhs, rhs, tol, ok1 and ok2, {
        "middle": mid,
        "middle_sigma": s_mid,
        "joint": _est_dict(joint),
        "y_marginal": _est_dict(y_only),
        "relative_x_given_y": _est_dict(rel_x),
        "relative_y_given_x": _est_dict(rel_y),
    }


def _chk_mono_y(c):
    """Conditioning on more variables cannot raise the relative value."""
    sc, ta = _sc(), _ta()
    rel_two = _chi(c, 1, 1, 2, sc, ta, sc)
    rel_one = _chi(c, 2, 1, 1, sc, ta)
    lhs, rhs = rel_two.extrapolated, rel_one.extrapolated
    ok, tol = _one_sided(lhs, rel_two.sigma, rhs, rel_one.sigma)
    return "<=", lhs, rhs, tol, ok, {
        "given_y1_y2": _est_dict(rel_two), "given_y1": _est_dict(rel_one),
    }


def _chk_vs_joint(c):
    """The relative value never exceeds the plain one-variable value."""
    rel, plain = _relative_and_plain(c, 1, 2)
    lhs, rhs = rel.extrapolated, plain.extrapolated
    ok, tol = _one_sided(lhs, rel.sigma, rhs, plain.sigma)
    return "<=", lhs, rhs, tol, ok, {"relative": _est_dict(rel), "plain": _est_dict(plain)}


def _chk_maxbound(c):
    """chi <= (n/2) log(2 pi e c^2) for variance-c^2 variables.

    Needs the deep sweep (l = 4): with only two moments pinned the
    window lets the variance drift up to 1 + eps and the estimate
    tracks the fattened bound (n/2) log(2 pi e (1 + eps)) instead.
    """
    est = _chi(c, 1, 1, 0, _sc())
    bound = 0.5 * math.log(2.0 * math.pi * math.e)
    ok, tol = _one_sided(est.extrapolated, est.sigma, bound, 0.0)
    return "<=", est.extrapolated, bound, tol, ok, {
        "variance": 1.0,
        "window_fattened_bound": 0.5 * math.log(2.0 * math.pi * math.e * (1 + c["sweep"].eps)),
        "estimate": _est_dict(est),
    }


def _chk_subadd(c):
    """chi(X,Y) <= chi(X) + chi(Y)."""
    joint, ex, ey = _free_pair(c, 1, 2, 3)
    lhs = joint.extrapolated
    rhs = ex.extrapolated + ey.extrapolated
    ok, tol = _one_sided(lhs, joint.sigma, rhs, math.hypot(ex.sigma, ey.sigma))
    return "<=", lhs, rhs, tol, ok, {
        "joint": _est_dict(joint), "x": _est_dict(ex), "y": _est_dict(ey),
    }


def _chk_free_b(c):
    """Freeness direction of additivity: chi(X) + chi(Y) <= chi(X,Y).

    Together with the generic subadditivity bound this brackets the
    additivity identity for a free pair.
    """
    joint, ex, ey = _free_pair(c, 4, 5, 6)
    lhs = ex.extrapolated + ey.extrapolated
    rhs = joint.extrapolated
    ok, tol = _one_sided(lhs, math.hypot(ex.sigma, ey.sigma), rhs, joint.sigma)
    return "<=", lhs, rhs, tol, ok, {
        "joint": _est_dict(joint), "x": _est_dict(ex), "y": _est_dict(ey),
    }


def _chk_freecrit(c):
    """Forward consistency: for a free pair the relative and plain values
    agree.  The converse (agreement implies freeness) is not certified."""
    rel, plain = _relative_and_plain(c, 7, 8)
    lhs, rhs = rel.extrapolated, plain.extrapolated
    tol = 3.0 * (rel.sigma + plain.sigma) + c["finite_k_allowance"]
    ok = lhs > float("-inf") and rhs > float("-inf") and abs(lhs - rhs) <= tol
    return "==", lhs, rhs, tol, ok, {
        "finite_k_allowance": c["finite_k_allowance"],
        "direction": "free pair implies agreement; the converse is not certified",
        "relative": _est_dict(rel),
        "plain": _est_dict(plain),
    }


def _chk_gen(c):
    """Conditioning on Y and on a generating family of powers of Y agree.

    Y is the three-atom law on {-1, 0, 1} with weights (1/4, 1/2, 1/4):
    its moments are exactly realized by quantile diagonals whenever
    4 | k, so both runs see faithful Y-microstates at the default sweep.
    """
    powers, s = c["gen_powers"], c["sweep"]
    sc = _sc()
    tb = spectra.SpectralMeasure.atomic([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
    model = ms.FreeModel([sc, tb], [0, 1])
    spec_y = ms.TracialSpec.free_model(1, 1, s.l, [sc, tb], [0, 1])

    # targets for (X, Y^p1, ..., Y^pr) by expanding each letter into ys
    expand = {1: (1,)}
    for j, p in enumerate(powers):
        expand[2 + j] = (2,) * p
    targets = {}
    letters = 1 + len(powers)
    for length in range(1, s.l + 1):
        for w in np.ndindex(*([letters] * length)):
            word = tuple(int(i) + 1 for i in w)
            flat = tuple(i for letter in word for i in expand[letter])
            targets[ms.canonical_word(word)] = model.word_moment(ms.canonical_word(flat))
    spec_z = ms.TracialSpec.from_targets(1, len(powers), s.l, targets)

    # one pool per k, proposed once: both sweeps measure it, Z each candidate's powers
    cands = {k: ms.y_candidates(spec_y, s.at(k), s.y_pool, rng.derive(s.seed, 0x47, k))
             for k in s.k_list}

    def sweep(spec, tag, image):
        def pool(p):
            return [
                (desc, image(ytup), rng.derive(s.seed, tag, p.k, ci))
                for ci, (desc, ytup) in enumerate(cands[p.k])
            ]

        return ms.estimate_chi(spec, s, pool)

    def powers_of(ytup):
        yb = ytup.mats[0].array
        return matcore.MatrixTuple(
            [matcore.SelfAdjointMatrix.hermitian_part(np.linalg.matrix_power(yb, q))
             for q in powers]
        )

    est_y = sweep(spec_y, 0x48, lambda ytup: ytup)
    est_z = sweep(spec_z, 0x49, powers_of)
    lhs, s_lhs = est_y.extrapolated, est_y.sigma
    rhs, s_rhs = est_z.extrapolated, est_z.sigma
    tol = 3.0 * (s_lhs + s_rhs)
    ok = lhs > float("-inf") and rhs > float("-inf") and abs(lhs - rhs) <= tol
    return "==", lhs, rhs, tol, ok, {
        "powers": list(powers),
        "per_k_given_y": [[pt.k, pt.value, pt.stderr] for pt in est_y.per_k],
        "per_k_given_powers": [[pt.k, pt.value, pt.stderr] for pt in est_z.per_k],
    }


# --- deterministic tier --------------------------------------------------------


def _chk_cov1(c):
    """chi(f(X)) = chi(X) + correction(mu, f) for monotone fields."""
    sc = _sc()
    un = spectra.SpectralMeasure.uniform(0.0, 1.0)
    cases = []
    for mu, dom in ((sc, (-2.2, 2.2)), (un, (-0.1, 1.1))):
        chi_mu = spectra.chi_single(mu)
        for name, f in (
            ("affine", spectra.affine_field(1.7, 0.3, dom)),
            ("cubic", spectra.polynomial_field([0.0, 1.0, 0.0, 1.0], dom)),
            ("arctan", spectra.arctan_field(2.0, dom)),
        ):
            resid = (
                spectra.chi_single(spectra.pushforward(mu, f))
                - chi_mu
                - spectra.cov_correction(mu, f)
            )
            cases.append({"measure": mu.kind, "field": name, "residual": resid})
    identity_corr = spectra.cov_correction(sc, spectra.identity_field((-2.2, 2.2)))
    lhs = max(abs(case["residual"]) for case in cases)
    ok = lhs <= c["tolerance"] and identity_corr == 0.0
    return "==", lhs, 0.0, c["tolerance"], ok, {
        "cases": cases, "identity_correction": identity_corr,
    }


def _chk_covgen(c):
    """Multivariate Jacobian functional vs the scalar and quadrature routes.

    Route A evaluates the polynomial Jacobian at a quantile-diagonal
    microstate; route B is the eigenvalue divided-difference formula for
    the same map; route C is the two-point quadrature limit.  A fourth
    instance checks that an orthogonal rotation of a pair has vanishing
    log-Jacobian exactly.
    """
    k, coef = c["covgen_k"], c["covgen_coef"]
    mu = _sc()
    lam = mu.quantile((np.arange(k) + 0.5) / k)
    x = matcore.SelfAdjointMatrix.hermitian_part(np.diag(lam).astype(complex))
    t1 = ncalg.NcPoly.indet(1, 1)
    F = t1 + ncalg.NcPoly.scalar(1, coef) * t1 * t1 * t1
    route_a = ncalg.logabs_functional(ncalg.jacobian([F], matcore.MatrixTuple([x])))

    fv = lam + coef * lam**3
    fp = 1.0 + 3.0 * coef * lam**2
    total = 0.0
    for i in range(k):
        for j in range(k):
            if i == j:
                total += math.log(fp[i])
            else:
                total += math.log(abs((fv[i] - fv[j]) / (lam[i] - lam[j])))
    route_b = total / k**2

    f = spectra.polynomial_field([0.0, 1.0, 0.0, coef], (-2.2, 2.2))
    route_c = spectra.cov_correction(mu, f)

    theta = 0.3
    cth, sth = math.cos(theta), math.sin(theta)
    u, v = ncalg.NcPoly.indet(2, 1), ncalg.NcPoly.indet(2, 2)
    F1 = ncalg.NcPoly.scalar(2, cth) * u + ncalg.NcPoly.scalar(2, sth) * v
    F2 = ncalg.NcPoly.scalar(2, -sth) * u + ncalg.NcPoly.scalar(2, cth) * v
    pair = matcore.MatrixTuple(
        [matcore.sample_gue(6, 1.0, rng.derive(c["sweep"].seed, 1)),
         matcore.sample_gue(6, 1.0, rng.derive(c["sweep"].seed, 2))]
    )
    rotation = ncalg.logabs_functional(ncalg.jacobian([F1, F2], pair))

    ok = (
        abs(route_a - route_b) <= 1e-8
        and abs(route_a - route_c) <= c["tolerance"]
        and abs(rotation) <= 1e-8
    )
    return "==", route_a, route_c, c["tolerance"], ok, {
        "route_matrix": route_a,
        "route_divided_difference": route_b,
        "route_quadrature": route_c,
        "matrix_vs_scalar": abs(route_a - route_b),
        "rotation_logabs": rotation,
        "k": k,
    }


_BROWN_N = 2001  # density nodes of the evolved law


def _brown_measure(t: float) -> spectra.SpectralMeasure:
    """Two-atom law evolved by a semicircular perturbation of variance t.

    The Cauchy transform solves t^2 G^3 - 2tzG^2 + (z^2 - 1 + t)G - z = 0;
    the density is the imaginary part of the lower-half-plane root.  The
    roots are the eigenvalues of the companion matrices that np.roots
    builds, solved in one batch; at z = 0 np.roots strips the zero
    constant term, so that node keeps its own np.roots call.
    """
    edge = 1.0 + 2.0 * math.sqrt(t) + 0.25
    xs = np.linspace(-edge, edge, _BROWN_N)
    coeffs = np.stack([np.full(_BROWN_N, t * t), -2.0 * t * xs, xs * xs - 1.0 + t, -xs], axis=1)
    comp = np.zeros((_BROWN_N, 3, 3))
    comp[:, 1, 0] = comp[:, 2, 1] = 1.0
    comp[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    imag = np.array(np.linalg.eigvals(comp).imag)  # writable even if every root is real
    for i in np.flatnonzero(xs == 0.0):
        imag[i] = np.roots(coeffs[i]).imag
    low = np.where(imag < -1e-10, imag, np.inf).min(axis=1)
    rho = np.where(np.isfinite(low), -low / math.pi, 0.0)
    mass = float(np.trapezoid(rho, xs))
    return spectra.SpectralMeasure.gridded((xs[0], xs[-1]), rho / mass)


def _chk_brown(c):
    """Semicircular evolution keeps chi above the matching-variance floor."""
    rows = []
    margins = []
    for t in c["t_values"]:
        mu = _brown_measure(t)
        chi = spectra.chi_single(mu)
        bound = 0.5 * math.log(2.0 * math.pi * math.e * t)
        rows.append({"t": t, "chi": chi, "bound": bound, "variance": mu.moment(2)})
        margins.append(chi - bound)
    lhs = min(margins)
    note = (
        "floor normalization: (1/2) log(2 pi e t) per variable, matching the "
        "variance bound (n/2) log(2 pi e c^2); the alternative whole-n factor "
        "is inconsistent with that bound and is not used"
    )
    return ">=", lhs, 0.0, c["tolerance"], lhs >= -c["tolerance"], {
        "cases": rows, "normalization_note": note,
    }


def _chk_conj(c):
    """d/de chi(X + eP(X)) at 0 equals the pairing of J with P."""
    mu = _sc()
    dom = (-2.2, 2.2)
    eps = c["fd_eps"]
    rows = []
    worst = 0.0
    polys = (("t", [0.0, 1.0]), ("t^2", [0.0, 0.0, 1.0]), ("t^3", [0.0, 0.0, 0.0, 1.0]))
    pairs = spectra.inner_product_stationarity(mu, [coeffs for _, coeffs in polys])
    for (name, coeffs), (pairing, moment_route) in zip(polys, pairs):
        up = [c + eps * p for c, p in zip([0.0, 1.0, 0.0, 0.0], coeffs + [0.0] * (4 - len(coeffs)))]
        dn = [c - eps * p for c, p in zip([0.0, 1.0, 0.0, 0.0], coeffs + [0.0] * (4 - len(coeffs)))]
        chi_up = spectra.chi_single(spectra.pushforward(mu, spectra.polynomial_field(up, dom)))
        chi_dn = spectra.chi_single(spectra.pushforward(mu, spectra.polynomial_field(dn, dom)))
        fd = (chi_up - chi_dn) / (2.0 * eps)
        worst = max(worst, abs(fd - pairing))
        rows.append(
            {"p": name, "finite_difference": fd, "pairing": pairing,
             "moment_route": moment_route}
        )
    # the perturbed map must be formally invertible at this size
    t1 = ncalg.NcPoly.indet(1, 1)
    try:
        ncalg.perturbation_inverse([t1 * t1 * t1], order=3, eps=eps)
        invertible = True
    except ValueError:
        invertible = False
    ok = worst <= c["tolerance"] and invertible
    return "==", worst, 0.0, c["tolerance"], ok, {
        "cases": rows, "fd_eps": eps, "series_invertible": invertible,
    }


def _chk_max(c):
    """The semicircle maximizes chi among the variance-1 family; the
    stationarity identity J = id singles it out.

    The uniform law sits only ~8e-3 below the maximum, so the margin
    floor applies to the rest of the family and the uniform law is held
    to strict inequality plus its J-deviation.
    """
    sc = _sc()
    root3 = math.sqrt(3.0)
    family = {
        "semicircle": sc,
        "uniform": spectra.SpectralMeasure.uniform(-root3, root3),
        "arcsine": spectra.arcsine_gridded(1.0),
        "two-atom": _ta(),
    }
    chis = {name: spectra.chi_single(m) for name, m in family.items()}
    margin_floor = c["margin"]
    margins = {
        name: chis["semicircle"] - chis[name]
        for name in ("arcsine", "two-atom")
    }
    lhs = min(margins.values())
    uniform_gap = chis["semicircle"] - chis["uniform"]

    deviations = {}
    for name in ("uniform", "arcsine"):
        g = family[name].to_grid()
        xs, j = spectra.conjugate_variable(g)
        lo, hi = g.quantile(0.05), g.quantile(0.95)
        sel = (xs >= lo) & (xs <= hi)
        deviations[name] = float(np.max(np.abs(j[sel] - xs[sel])))
    ok = (
        lhs >= margin_floor
        and uniform_gap > 0.0
        and all(d > 0.1 for d in deviations.values())
    )
    return ">=", lhs, margin_floor, 0.0, ok, {
        "chi": chis,
        "uniform_gap": uniform_gap,
        "j_deviation_sup": deviations,
        "note": "uniform law held to strict inequality; margin floor "
                "applies to the arcsine and two-atom laws",
    }


def _chk_block(c):
    """Block scaling identity via closed forms, plus block-map diagnostics.

    N^2 chi(Z) - N^2 (n/2) log N equals the total chi of the n N^2 block
    entries, each semicircular of variance 1/N.
    """
    worst = 0.0
    rows = []
    for big_n in (2, 3):
        for n in (1, 2):
            lhs = big_n**2 * n * spectra.semicircle_entropy(1.0)
            lhs -= big_n**2 * (n / 2.0) * math.log(big_n)
            rhs = n * big_n**2 * spectra.semicircle_entropy(1.0 / big_n)
            rows.append({"N": big_n, "n": n, "lhs": lhs, "rhs": rhs})
            worst = max(worst, abs(lhs - rhs))

    z = matcore.MatrixTuple([matcore.sample_gue(6, 1.0, rng.derive(c["sweep"].seed, 9))])
    parts = ms.block_split(z, 2)
    back = ms.block_assemble(parts, 2)
    roundtrip = float(np.max(np.abs(back.mats[0].array - z.mats[0].array)))
    total = 0.0
    for idx in range(4):
        i, j = divmod(idx, 2)
        w = 1.0 if i == j else 2.0
        y = parts.mats[idx].array
        total += w * float(np.trace(y @ y).real)
    parseval = abs(total - float(np.trace(z.mats[0].array @ z.mats[0].array).real))

    ok = worst <= c["tolerance"] and roundtrip < 1e-10 and parseval < 1e-10
    return "==", worst, 0.0, c["tolerance"], ok, {
        "cases": rows, "roundtrip_residual": roundtrip, "parseval_residual": parseval,
    }


# --- registry ------------------------------------------------------------------


# id -> (check, statistical tier, default settings).  A check takes the
# settings that check() validated and returns (relation, lhs, rhs,
# tolerance, passed, diagnostics).  `freelab check all` runs and reports
# the checks in this order.
_REGISTRY = {
    "T-CHAIN": (_chk_chain, True, {}),
    "T-MONO-Y": (_chk_mono_y, True, {}),
    "T-VS-JOINT": (_chk_vs_joint, True, {}),
    "T-MAXBOUND": (_chk_maxbound, True, {"l": 4, "eps": 0.4}),
    "T-GEN": (_chk_gen, True, {"k_list": (4, 8), "gen_powers": (2, 1)}),
    "T-SUBADD": (_chk_subadd, True, {}),
    "T-FREE-B": (_chk_free_b, True, {}),
    "T-COV1": (_chk_cov1, False, {"tolerance": 2e-3}),
    "T-COVGEN": (_chk_covgen, False, {"tolerance": 2e-2, "covgen_k": 32, "covgen_coef": 0.15}),
    "T-BROWN": (_chk_brown, False, {"tolerance": 1e-3, "t_values": (0.25, 1.0)}),
    "T-CONJ": (_chk_conj, False, {"tolerance": 1e-2, "fd_eps": 1e-3}),
    "T-MAX": (_chk_max, False, {"margin": 0.05}),
    "T-FREECRIT": (_chk_freecrit, True, {"finite_k_allowance": 0.05}),
    "T-BLOCK": (_chk_block, False, {"tolerance": 1e-12}),
}

CHECK_IDS = tuple(_REGISTRY)

DETERMINISTIC_IDS = frozenset(cid for cid, entry in _REGISTRY.items() if not entry[1])


def check(check_id: str, **cfg) -> CheckReport:
    """Run one check; cfg keys override its registry defaults, and the
    merged settings are validated (_mc_cfg) before the check starts."""
    if check_id not in _REGISTRY:
        raise ValueError(
            f"unknown check id {check_id!r}; known ids: {', '.join(CHECK_IDS)}"
        )
    run, statistical, defaults = _REGISTRY[check_id]
    c = _mc_cfg({**defaults, **cfg})
    relation, lhs, rhs, tol, passed, diagnostics = run(c)
    return CheckReport(
        check_id, relation, lhs, rhs, tol, passed, statistical, c["sweep"].seed, diagnostics
    )
