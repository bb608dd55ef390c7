"""The names that perfbench's tracer binds in the package.

perfbench/tracer.py replaces module attributes with timing wrappers and
reads each call's arguments by name (``inspect.signature(...).bind``)
and its result by attribute: ``rng.words``'s result size, through which
every sampler draws; ``estimate_volume``'s ``p.k`` and the
result's ``samples``, ``accepted`` and ``log_volume``, which feed
samples_per_s and the golden replay; ``_run_chunks``'s ``work``, which
it wraps to attribute worker time; ``y_candidates``'s ``pool`` and the
length of its result; and ``theorems.check``'s ``check_id``.  Every
sweep, T-GEN's two included, runs through ``estimate_chi`` and each of
its estimates through ``estimate_volume``.  It also
times the quadrature and Jacobian kernels of the battery by name
(``spectra.cov_correction``, ``log_energy``, ``conjugate_variable`` and
``pushforward``; ``ncalg.jacobian``, ``logabs_functional`` and the method
``NcJacobian.as_real_matrix``) and counts their calls.  A renamed
argument, or a call that skips the module or class attribute, would break
every benchmark operation or leave its metrics at 0.  These tests run the
CLI as the benchmark does and read what the tracer reads.
"""

import contextlib
import inspect
import io
from pathlib import Path

import numpy as np

from freelab import cli, matcore, ncalg, rng, spectra, theorems
from freelab import microstates as ms

ROOT = Path(__file__).resolve().parent.parent


def record(monkeypatch, owner, name):
    """Wrap owner.name; each call appends (bound arguments, result)."""
    real = getattr(owner, name)
    sig = inspect.signature(real)
    calls = []

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((sig.bind(*args, **kwargs).arguments, result))
        return result

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0


def chi_mc(spec, ks, pool):
    run_cli(
        "chi-mc", "--spec", f"perfbench/specs/{spec}.json", "--k", ks, "--l", "2",
        "--samples", "200", "--y-pool", str(pool), "--threads", "1", "--format", "json",
    )


def test_plain_and_pooled_sweeps_estimate_through_the_module_attributes(monkeypatch):
    monkeypatch.chdir(ROOT)
    volumes = record(monkeypatch, ms, "estimate_volume")
    chunks = record(monkeypatch, ms, "_run_chunks")
    pools = record(monkeypatch, ms, "y_candidates")
    chi_mc("semicircle", "2,3", 1)
    assert [a["p"].k for a, _ in volumes] == [2, 3]
    assert pools == []
    chi_mc("conditioned", "3", 2)
    assert [a["pool"] for a, _ in pools] == [2]
    assert all(isinstance(found, list) and found for _, found in pools)
    assert [a["p"].k for a, _ in volumes[2:]] == [3] * len(pools[0][1])
    for _, est in volumes:
        assert est.samples == 200
        assert 0 <= est.accepted <= est.samples
        assert isinstance(est.log_volume, float)
    assert len(chunks) == len(volumes)
    assert all(callable(a["work"]) for a, _ in chunks)


def test_samplers_draw_through_the_rng_words_attribute(monkeypatch):
    # the tracer's rng.words and rng.busy_s read the spans of rng.words: a
    # sampler that drew its words some other way would leave them at 0.  One
    # sample of one letter reads a counter block of 2 ceil(k^2/2) words, two
    # more for the ball sampler (auto at k <= 2).  The first letter is drawn
    # for every sample, a later one only for the samples that passed the
    # words of the letters before it
    monkeypatch.chdir(ROOT)
    words = record(monkeypatch, rng, "words")
    volumes = record(monkeypatch, ms, "estimate_volume")
    passes = {name: record(monkeypatch, matcore, name) for name in ("gue_stack", "ball_stack")}

    def block(k, ball):
        return 2 * ((k * k + 1) // 2) + (2 if ball else 0)

    for spec, n in (("semicircle", 1), ("free_pair", 2)):
        for calls in (words, volumes, *passes.values()):
            calls.clear()
        chi_mc(spec, "2,3", 1)
        assert [(a["p"].k, a["spec"].n) for a, _ in volumes] == [(2, n), (3, n)]
        every_row = sum(
            est.samples * block(a["p"].k, est.method == "ball-rejection") for a, est in volumes
        )
        drawn = sum(w.size for _, w in words)
        assert drawn == every_row if n == 1 else every_row < drawn < n * every_row
        # each sampler pass read its rows' counter blocks through rng.words
        assert drawn == sum(
            len(out) * block(a["k"], name == "ball_stack")
            for name, calls in passes.items() for a, out in calls
        )


def test_t_gen_sweeps_and_estimates_through_the_module_attributes(monkeypatch):
    # T-GEN proposes one pool per k (candidates on tag 0x47) and passes it
    # to the one sweep engine twice (estimates on 0x48 and 0x49) rather
    # than running a sweep of its own
    sweeps = record(monkeypatch, ms, "estimate_chi")
    volumes = record(monkeypatch, ms, "estimate_volume")
    pools = record(monkeypatch, ms, "y_candidates")
    run_cli("check", "T-GEN", "--k", "4", "--samples", "200", "--y-pool", "2",
            "--threads", "1", "--format", "json")
    assert len(sweeps) == 2 and all(callable(a["pool"]) for a, _ in sweeps)
    assert [(a["p"].k, a["pool"]) for a, _ in pools] == [(4, 2)]
    cands = pools[0][1]
    assert cands
    assert len(volumes) == 2 * len(cands)
    assert [a["p"].k for a, _ in volumes] == [4] * len(volumes)
    # Y itself, then its powers (gen_powers 2, 1) of the same candidates
    ys = [a["y"] for a, _ in volumes]
    assert [y.n for y in ys] == [1] * len(cands) + [2] * len(cands)
    for (_, ytup), y, z in zip(cands, ys, ys[len(cands):]):
        assert y is ytup
        assert np.array_equal(z.mats[1].array, ytup.mats[0].array)
    for _, est in sweeps:
        assert est.per_k[0].y_id in [desc for desc, _ in cands]


def test_checks_run_through_the_module_attribute(monkeypatch):
    checks = record(monkeypatch, theorems, "check")
    run_cli("check", "T-BLOCK", "--threads", "1", "--format", "json")
    assert [a["check_id"] for a, _ in checks] == ["T-BLOCK"]


def test_battery_kernels_run_through_the_module_and_class_attributes(monkeypatch):
    kernels = {
        (ncalg.NcJacobian, "as_real_matrix"): (["self"], 2),
        (ncalg, "jacobian"): (["fs", "t"], 2),
        (ncalg, "logabs_functional"): (["jac"], 2),
        (spectra, "cov_correction"): (["mu", "f"], 8),
        (spectra, "log_energy"): (["mu"], 14),
        (spectra, "conjugate_variable"): (["mu"], 1),  # once per T-CONJ, for all three P
        (spectra, "pushforward"): (["mu", "f"], 12),
    }
    calls = {key: record(monkeypatch, *key) for key in kernels}
    run_cli("check", "T-COVGEN,T-COV1,T-CONJ", "--threads", "1", "--format", "json")
    for key, (argnames, count) in kernels.items():
        assert len(calls[key]) == count, key
        assert all(list(args) == argnames for args, _ in calls[key]), key


def test_chi_single_runs_the_log_energy_quadrature_once(monkeypatch, tmp_path):
    energies = record(monkeypatch, spectra, "log_energy")
    corrections = record(monkeypatch, spectra, "cov_correction")
    path = tmp_path / "semicircle.json"
    path.write_text('{"kind": "semicircle", "variance": 1.0}')
    run_cli("chi-single", str(path), "--field", "poly:0,1,0,1", "--format", "json")
    assert len(energies) == 1 and len(corrections) == 1
