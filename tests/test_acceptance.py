"""Acceptance gate: one test per shipped criterion, each printing a
pass line with the measured quantities.  Criteria 9 and 10 are Monte
Carlo and carry the ``statistical`` marker; the rest are deterministic
and bound by the stated wall-clock budgets.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from freelab import cli, matcore, microstates as ms, ncalg, spectra, theorems
from freelab.microstates import MicrostateParams, TracialSpec
from freelab.ncalg import CoefficientAlgebra, NcBiPoly, NcPoly
from freelab.rng import derive


def _pass(num, detail):
    print(f"[PASS] criterion {num}: {detail}")


def sa(a):
    return matcore.SelfAdjointMatrix.hermitian_part(np.asarray(a, dtype=complex))


def rand_tuple(rng, n, k):
    return matcore.MatrixTuple(
        [sa(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))) for _ in range(n)]
    )


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


def test_criterion_01_difference_quotient_worked_example():
    t0 = time.time()
    rng = np.random.default_rng(1)
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
    ) + NcBiPoly.tensor(
        cf("b0") * tt(1) * cf("b1") * tt(2) * cf("b2"), cf("b3") * tt(4) * cf("b4")
    )
    got = ncalg.dquotient(f, 1)
    assert got == want
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _pass(1, f"split of the five-coefficient word is exact ({elapsed:.3f}s)")


def test_criterion_02_jacobian_vs_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        fs = [rand_poly(rng, n, 3, 3) for _ in range(n)]
        t = rand_tuple(rng, n, k)
        hs = [sa(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))).array for _ in range(n)]
        got = ncalg.jacobian(fs, t).apply(hs)
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
            worst = max(worst, float(np.abs(got[j] - fd).max() / denom))
    assert worst < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _pass(2, f"100 random maps, worst relative error {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_03_log_det_bridge_for_sandwich_maps():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for k in (2, 3, 4):
        a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        alg = CoefficientAlgebra.matrix_model({"a": a})
        f = NcPoly.coefficient(1, "a", alg) * NcPoly.indet(1, 1) * NcPoly.coefficient(
            1, "a", alg, star=True
        )
        jac = ncalg.jacobian([f], rand_tuple(rng, 1, k))
        r = jac.as_real_matrix()
        sign, logdet = np.linalg.slogdet(r)
        assert sign != 0
        functional = k * k * ncalg.logabs_functional(jac)
        analytic = 2.0 * k * math.log(abs(np.linalg.det(a)))
        worst = max(worst, abs(logdet - functional), abs(logdet - analytic))
    assert worst < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _pass(3, f"real-det vs trace functional vs |det a|^2k, residual {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_04_quadrature_oracles():
    t0 = time.time()
    u = spectra.SpectralMeasure.uniform(0.0, 1.0)
    sc = spectra.SpectralMeasure("semicircle", variance=1.0)
    e_u = spectra.log_energy(u)
    e_sc = spectra.log_energy(sc)
    chi_sc = spectra.chi_single(sc)
    assert e_u == pytest.approx(-1.5, abs=1e-3)
    assert e_sc == pytest.approx(-0.25, abs=1e-3)
    assert chi_sc == pytest.approx(0.5 * math.log(2.0 * math.pi * math.e), abs=1e-3)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _pass(4, f"I(U)={e_u:.6f}, I(SC)={e_sc:.6f}, chi(SC)={chi_sc:.6f} ({elapsed:.2f}s)")


def test_criterion_05_change_of_variables_battery():
    t0 = time.time()
    r = theorems.check("T-COV1")
    assert r.passed
    assert abs(r.lhs) < 2e-3
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _pass(5, f"six pushforward cases, worst residual {r.lhs:.2e} ({elapsed:.1f}s)")


def test_criterion_06_conjugate_variable_suite():
    t0 = time.time()
    sc = spectra.SpectralMeasure("semicircle", variance=1.0)
    xs, j = spectra.conjugate_variable(sc)
    sel = np.abs(xs) <= 1.8
    sup_dev = float(np.max(np.abs(j[sel] - xs[sel])))
    assert sup_dev < 1e-2

    worst_pair = 0.0
    polys = ([0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0])
    pairs = spectra.inner_product_stationarity(sc, polys)
    assert len(pairs) == 3
    for lhs, rhs in pairs:
        worst_pair = max(worst_pair, abs(lhs - rhs))
    assert worst_pair < 2e-2

    r = theorems.check("T-CONJ")
    assert r.passed
    assert abs(r.lhs) < 1e-2
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _pass(
        6,
        f"sup|J-id|={sup_dev:.2e} on inner 90%, pairing gap {worst_pair:.2e}, "
        f"derivative check {r.lhs:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_07_semicircle_maximality():
    t0 = time.time()
    r = theorems.check("T-MAX")
    assert r.passed
    assert r.lhs > 0.05
    devs = r.diagnostics["j_deviation_sup"]
    assert all(v > 0.1 for v in devs.values())
    assert r.diagnostics["uniform_gap"] > 0.0
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _pass(
        7,
        f"margin {r.lhs:.4f} > 0.05, J-violations "
        + ", ".join(f"{k}={v:.3f}" for k, v in devs.items())
        + f" ({elapsed:.1f}s)",
    )


def test_criterion_08_block_identity():
    t0 = time.time()
    r = theorems.check("T-BLOCK")
    assert r.passed
    assert abs(r.lhs) < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _pass(8, f"closed-form residual {r.lhs:.2e} over N in {{2,3}}, n in {{1,2}} ({elapsed:.2f}s)")


SC_TARGETS = {(1,): 0.0, (1, 1): 1.0, (1, 1, 1): 0.0, (1, 1, 1, 1): 2.0}


@pytest.mark.statistical
def test_criterion_09_mc_pipeline_sanity():
    # k=1 windows with known Lebesgue volume, both samplers
    free = TracialSpec.from_targets(1, 0, 0, {})
    p1 = MicrostateParams(k=1, l=0, eps=0.1, radius=2.0)
    ve = ms.estimate_volume(free, p1, sampler="ball", nsamples=1000, seed=1)
    assert ve.log_volume == pytest.approx(math.log(4.0), abs=1e-14)
    vi = ms.estimate_volume(free, p1, sampler="importance", nsamples=20000, seed=2)
    assert abs(vi.log_volume - math.log(4.0)) < 3.0 * vi.stderr_log

    atom = TracialSpec.free_model(
        1, 0, 2, [spectra.SpectralMeasure.atomic([(0.0, 1.0)])], [0]
    )
    p2 = MicrostateParams(k=1, l=2, eps=0.01, radius=2.0)
    vw = ms.estimate_volume(atom, p2, sampler="ball", nsamples=200_000, seed=4)
    assert abs(vw.log_volume - math.log(0.02)) < 3.0 * vw.stderr_log

    # default sweep at a million samples per point
    spec = TracialSpec.from_targets(1, 0, 4, SC_TARGETS)
    sweep = ms.Sweep([2, 3, 4, 5], 4, 0.4, 4.0, nsamples=1_000_000, seed=2026, threads=4)
    est = ms.estimate_chi(spec, sweep)
    gap = abs(est.extrapolated - 1.4189)
    assert gap < 0.5

    sc = spectra.SpectralMeasure("semicircle", variance=1.0)
    ta = spectra.SpectralMeasure("atomic", atoms=[(-1.0, 0.5), (1.0, 0.5)])
    rel_spec = TracialSpec.free_model(1, 1, 4, [sc, ta], [0, 1])
    rel = ms.estimate_chi(rel_spec, replace(sweep, nsamples=200_000, seed=77, y_pool=8))
    rel_gap = abs(rel.extrapolated - 1.4189)
    assert rel_gap < 0.6
    _pass(
        9,
        f"k=1 volumes exact/3-sigma, sweep gap {gap:.3f} < 0.5, "
        f"relative gap {rel_gap:.3f} < 0.6",
    )


@pytest.mark.statistical
def test_criterion_10_inequality_suite():
    ids = ["T-CHAIN", "T-MONO-Y", "T-VS-JOINT", "T-SUBADD", "T-MAXBOUND"]
    # each check at the seed of its registry position, derived from base seed 0
    reports = [
        theorems.check(cid, seed=derive(0, theorems.CHECK_IDS.index(cid))) for cid in ids
    ]
    # the atomic generator needs 4 | k, so its sweep is pinned separately
    reports.append(theorems.check("T-GEN", seed=5, k_list=(4,)))
    lines = [theorems.report_text(r) for r in reports]
    assert all(r.passed for r in reports), "\n".join(lines)
    _pass(10, "; ".join(f"{r.id} ok" for r in reports))


def test_criterion_11_byte_identical_reruns(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "n": 1,
                "m": 0,
                "l_max": 4,
                "targets": [
                    {"word": list(w), "value": v} for w, v in SC_TARGETS.items()
                ],
            }
        )
    )
    pairs = []
    for name, argv in [
        ("chi-mc", ["chi-mc", "--spec", str(spec_path), "--k", "2,3",
                    "--samples", "10000", "--seed", "5", "--format", "csv"]),
        ("check", ["check", "T-BLOCK", "--format", "json"]),
        ("dq", ["dq", "0.5 - t2 + 2 t1 t2", "2"]),
    ]:
        outs = []
        for run_idx in (0, 1):
            dest = tmp_path / f"{name}-{run_idx}.out"
            code = cli.main(argv + ["--out", str(dest)])
            capsys.readouterr()
            assert code == 0
            outs.append(dest.read_bytes())
        assert outs[0] == outs[1]
        pairs.append(name)
    _pass(11, "byte-identical rerun for " + ", ".join(pairs))
