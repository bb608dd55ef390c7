"""Check battery: deterministic tier at defaults, statistical tier at a
reduced sweep, report plumbing and serialization."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from freelab import cli, microstates as ms, spectra, theorems as th

SMALL = dict(k_list=(2, 3, 4), nsamples=20_000, y_pool=4)


# --- registry and report plumbing ---------------------------------------------


def test_registry_names_every_check():
    assert len(th.CHECK_IDS) == 14
    assert th.DETERMINISTIC_IDS <= set(th.CHECK_IDS)
    assert len(th.DETERMINISTIC_IDS) == 6


def test_unknown_id_lists_the_registry():
    with pytest.raises(ValueError, match="T-CHAIN"):
        th.check("T-NOPE")


def test_reports_serialize_to_json(capsys):
    assert cli.main(["check", "T-BLOCK", "--format", "json"]) == 0
    (back,) = json.loads(capsys.readouterr().out)
    assert back["id"] == "T-BLOCK"
    assert back["passed"] is True
    assert back["statistical"] is False
    assert th.report_text(th.check("T-BLOCK")).startswith("[PASS] T-BLOCK (deterministic)")


def test_minus_inf_values_become_strings(capsys):
    # k = 1 admits no Y-microstate for the three-atom law, so both runs
    # report empty sups and the per-k tables contain -inf entries
    argv = ["check", "T-GEN", "--k", "1", "--samples", "500", "--y-pool", "2",
            "--threads", "1", "--format", "json"]
    assert cli.main(argv) == 0  # a statistical failure keeps exit 0
    blob = capsys.readouterr().out
    assert '"-inf"' in blob
    assert not json.loads(blob)[0]["passed"]


def test_gen_reports_the_shared_extrapolation():
    # T-GEN once reported the value at argmax(value - stderr); the README's
    # extrapolation, shared by every estimate, is max(value - stderr)
    r = th.check("T-GEN", k_list=(4, 8), nsamples=2000, y_pool=2)
    best = []
    for key in ("per_k_given_y", "per_k_given_powers"):
        scored = [(v - s, s) for _, v, s in r.diagnostics[key] if v > float("-inf")]
        best.append(max(scored, key=lambda t: t[0]))
    assert (r.lhs, r.rhs) == (best[0][0], best[1][0])
    assert r.tolerance == 3.0 * (best[0][1] + best[1][1])


def test_check_config_names_every_bad_key():
    with pytest.raises(ValueError) as err:
        th.check("T-VS-JOINT", k_list=(3, 2), nsamples=50, l=-1, eps="wide", seed=1.5)
    msg = str(err.value)
    for key in ("k_list", "nsamples", "seed", "l", "eps"):
        assert f"{key} must be" in msg
    # a check's tolerances and instance parameters are constants: the former
    # per-check keys, even at their old defaults, are unknown settings
    former = {"tolerance": 1e-3, "t_values": (0.25, 1.0), "margin": 0.05, "fd_eps": 1e-3,
              "covgen_k": 32, "covgen_coef": 0.15, "finite_k_allowance": 0.05,
              "gen_powers": (2, 1)}
    with pytest.raises(ms.SettingsError) as err:
        th.check("T-BROWN", **former)
    for key in former:
        assert f"{key} must be a known setting" in str(err.value)
    # a misspelt key is named, not ignored
    with pytest.raises(ms.SettingsError, match="nsample must be a known setting"):
        th.check("T-BLOCK", nsample=5)


# --- deterministic tier ---------------------------------------------------------


def test_cov1_battery_and_identity():
    r = th.check("T-COV1")
    assert r.passed and not r.statistical
    assert r.lhs < 2e-3
    assert r.diagnostics["identity_correction"] == 0.0
    assert len(r.diagnostics["cases"]) == 6


def test_covgen_three_routes_agree():
    r = th.check("T-COVGEN")
    assert r.passed
    d = r.diagnostics
    assert d["matrix_vs_scalar"] < 1e-8
    assert abs(d["route_matrix"] - d["route_quadrature"]) < 2e-2
    assert abs(d["rotation_logabs"]) < 1e-8


@pytest.mark.parametrize("cid", ["T-COVGEN", "T-COV1"])
def test_change_of_variables_checks_run_in_bounded_memory(cid):
    # a whole 2048 x 2048 log-ratio matrix is 32 MB, and the k = 32
    # Hermitian basis or its image stack 16 MB each; neither may be held
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert th.check(cid).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_brown_margins_and_variances():
    r = th.check("T-BROWN")
    assert r.passed
    for case in r.diagnostics["cases"]:
        assert case["chi"] - case["bound"] > 0.3
        assert case["variance"] == pytest.approx(1.0 + case["t"], abs=2e-3)


def _brown_measure_ref(t, npoints=2001):
    # one np.roots call per node, as the check was first written
    edge = 1.0 + 2.0 * math.sqrt(t) + 0.25
    xs = np.linspace(-edge, edge, npoints)
    rho = np.zeros(npoints)
    for i, xv in enumerate(xs):
        roots = np.roots([t * t, -2.0 * t * xv, xv * xv - 1.0 + t, -xv])
        neg = [r.imag for r in roots if r.imag < -1e-10]
        if neg:
            rho[i] = -min(neg) / math.pi
    return spectra.SpectralMeasure.gridded((xs[0], xs[-1]), rho / float(np.trapezoid(rho, xs)))


@pytest.mark.parametrize("t", [0.25, 1.0])
def test_batched_brown_measure_matches_per_node_roots_bits(t):
    edge = 1.0 + 2.0 * math.sqrt(t) + 0.25
    assert (np.linspace(-edge, edge, 2001) == 0.0).any()  # np.roots strips a zero there
    got = th._brown_measure(t).values
    want = _brown_measure_ref(t).values
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_conj_derivative_matches_pairing():
    r = th.check("T-CONJ")
    assert r.passed
    assert r.lhs < 1e-2
    assert r.diagnostics["series_invertible"] is True
    moments = [case["moment_route"] for case in r.diagnostics["cases"]]
    assert moments == pytest.approx([1.0, 0.0, 2.0], abs=2e-2)


def test_max_margins_and_stationarity_violations():
    r = th.check("T-MAX")
    assert r.passed
    assert r.lhs > 0.05
    d = r.diagnostics
    assert 0.0 < d["uniform_gap"] < 0.05
    assert d["chi"]["two-atom"] == float("-inf")
    assert d["j_deviation_sup"]["uniform"] > 0.1
    assert d["j_deviation_sup"]["arcsine"] > 1.0


def test_block_closed_forms_are_exact():
    r = th.check("T-BLOCK")
    assert r.passed
    assert r.lhs <= 1e-12
    assert r.diagnostics["roundtrip_residual"] < 1e-10
    assert r.diagnostics["parseval_residual"] < 1e-10
    assert len(r.diagnostics["cases"]) == 4


def test_deterministic_tier_all_passes():
    for cid in sorted(th.DETERMINISTIC_IDS):
        assert th.check(cid).passed, cid


# --- statistical tier -------------------------------------------------------------


@pytest.mark.statistical
def test_statistical_tier_passes_at_reduced_sweep():
    for cid in ("T-CHAIN", "T-MONO-Y", "T-VS-JOINT", "T-SUBADD", "T-FREE-B", "T-FREECRIT"):
        r = th.check(cid, **SMALL)
        assert r.statistical
        assert r.passed, th.report_text(r)


@pytest.mark.statistical
def test_maxbound_respects_the_variance_bound():
    r = th.check("T-MAXBOUND", **SMALL)
    assert r.passed
    assert r.rhs == pytest.approx(0.5 * math.log(2.0 * math.pi * math.e), abs=1e-12)
    assert r.diagnostics["window_fattened_bound"] > r.rhs


@pytest.mark.statistical
def test_gen_agreement_is_two_sided():
    r = th.check("T-GEN", nsamples=20_000, y_pool=4)
    assert r.passed
    assert r.relation == "=="
    assert abs(r.lhs - r.rhs) <= r.tolerance


@pytest.mark.statistical
def test_checks_are_rerun_stable():
    a = th.check("T-VS-JOINT", **SMALL)
    b = th.check("T-VS-JOINT", **SMALL)
    assert repr(a) == repr(b)  # repr keeps every bit, and nan equals itself
