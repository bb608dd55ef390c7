"""The names that perfbench's tracer binds in the package.

perfbench/tracer.py replaces module attributes with timing wrappers and
reads each call's arguments by name (``inspect.signature(...).bind``)
and its result by attribute: ``estimate_volume``'s ``p.k`` and the
result's ``samples``, ``accepted`` and ``log_volume``, which feed
samples_per_s and the golden replay; ``_run_chunks``'s ``work``, which
it wraps to attribute worker time; ``y_candidates``'s ``pool`` and the
length of its result; and ``theorems.check``'s ``check_id``.  A renamed
argument, or a call that skips the module attribute, would break every
benchmark operation or leave its metrics at 0.  These tests run the CLI
as the benchmark does and read what the tracer reads.
"""

import contextlib
import inspect
import io
from pathlib import Path

from freelab import cli, theorems
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


def test_checks_run_through_the_module_attribute(monkeypatch):
    checks = record(monkeypatch, theorems, "check")
    run_cli("check", "T-BLOCK", "--threads", "1", "--format", "json")
    assert [a["check_id"] for a, _ in checks] == ["T-BLOCK"]
