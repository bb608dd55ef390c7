"""Golden replay: the benchmark's fixed-seed Monte Carlo commands reproduce.

perfbench/golden.json records, for each benchmark command at its golden
seed, the accepted count and log-volume of every ``estimate_volume`` call.
Replaying the sweep commands through ``cli.main`` must give the same
counts exactly and the same log-volumes to 1e-12 relative, so a change to
the sampler or the membership test that moves any estimate fails here and
not only in the benchmark.  The recorded stdout digests are not compared:
they pin the last bit of every printed float, which differs between libm
and BLAS builds.

Two statistical checks are replayed the same way at a small config, which
pins the seed tags of every sweep they run, T-GEN's included, and the
pool rule (the first of the largest volumes wins).
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from freelab import cli, theorems
from freelab import microstates as ms

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())
REPLAYED = ("sweep-small-k", "sweep-large-k", "conditioned")
CASES = [
    pytest.param(rec, id=f"{name}-{i}")
    for name in REPLAYED
    for i, rec in enumerate(GOLDEN[name])
]


@pytest.mark.parametrize("record", CASES)
def test_golden_command_replays(record, monkeypatch):
    monkeypatch.chdir(ROOT)  # the recorded argv names spec files relative to the root
    calls = []
    real = ms.estimate_volume

    def recording(spec, p, *args, **kwargs):
        est = real(spec, p, *args, **kwargs)
        calls.append((p.k, est.accepted, est.log_volume))
        return est

    monkeypatch.setattr(ms, "estimate_volume", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(record["argv"])) == 0
    want = [(k, acc, float(lv)) for k, acc, lv in record["volumes"]]
    assert [c[:2] for c in calls] == [w[:2] for w in want]
    for (k, _, got), (_, _, expected) in zip(calls, want):
        if math.isinf(expected):
            assert got == expected, f"k={k}"
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0), f"k={k}"


# Recorded at nsamples=1000, y_pool=2, seed=3 (threads=1).  "per_k" maps a
# diagnostics key to its [k, value, stderr] rows; "y_used" to its pool winners.
CHECKS = {
    "T-GEN": {
        "k_list": (4,),
        "lhs": 1.466852675439565,
        "rhs": 1.4657234539572033,
        "per_k": {
            "per_k_given_y": [[4, 1.471504908066438, 0.004652232626872898]],
            "per_k_given_powers": [[4, 1.4704102642635832, 0.004686810306380073]],
        },
        "y_used": {},
    },
    "T-CHAIN": {
        "k_list": (2, 3),
        "lhs": 1.3379198968707493,
        "rhs": 1.361648589498941,
        "per_k": {
            "joint": [[2, 2.0361538277018427, 0.02091650066335189],
                      [3, 2.730039169096173, 0.020771280640077095]],
            "y_marginal": [[2, 1.0986471382786533, 0.00809776330178916],
                           [3, 1.3780585064885535, 0.0067105149032070065]],
            "relative_x_given_y": [[2, 0.9284153709723608, 0.013803493660916556],
                                   [3, 1.3687387174130148, 0.007090127914073786]],
            "relative_y_given_x": [[2, 0.9170262380717691, 0.014224292898930908],
                                   [3, 1.3609772617638785, 0.006888901164229216]],
        },
        "y_used": {
            "joint": "",
            "y_marginal": "",
            "relative_x_given_y": "k=2:free#0; k=3:free#1",
            "relative_y_given_x": "k=2:free#4; k=3:free#0",
        },
    },
}


def _close(got, expected):
    return got == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("check_id", list(CHECKS))
def test_statistical_check_replays(check_id):
    want = CHECKS[check_id]
    r = theorems.check(
        check_id, k_list=want["k_list"], nsamples=1000, y_pool=2, seed=3, threads=1
    )
    assert _close(r.lhs, want["lhs"]) and _close(r.rhs, want["rhs"])
    for key, rows in want["per_k"].items():
        got = r.diagnostics[key]
        got = got["per_k"] if isinstance(got, dict) else got
        assert [row[0] for row in got] == [row[0] for row in rows], key
        for g, w in zip(got, rows):
            assert _close(g[1], w[1]) and _close(g[2], w[2]), (key, w[0])
    for key, y_used in want["y_used"].items():
        assert r.diagnostics[key]["y_used"] == y_used, key
