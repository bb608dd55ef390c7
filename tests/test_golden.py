"""Golden replay: the benchmark's fixed-seed Monte Carlo commands reproduce.

perfbench/golden.json records, for each benchmark command at its golden
seed, the accepted count and log-volume of every ``estimate_volume`` call.
Replaying the sweep commands through ``cli.main`` must give the same
counts exactly and the same log-volumes to 1e-12 relative, so a change to
the sampler or the membership test that moves any estimate fails here and
not only in the benchmark.  The recorded stdout digests are not compared:
they pin the last bit of every printed float, which differs between libm
and BLAS builds.

Every statistical check is replayed the same way at a small config, which
pins the seed tags and specs of every sweep it runs, T-GEN's included, the
registry defaults it runs under (T-MAXBOUND's l and eps) and the pool rule
(the first of the largest volumes wins).  The deterministic tier runs in
full in tests/test_theorems.py.
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
    "T-MONO-Y": {
        "k_list": (2, 3),
        "lhs": 1.3277786787925825,
        "rhs": 1.3451166616409889,
        "per_k": {
            "given_y1_y2": [[2, 0.7073114901364344, 0.02345730372483623],
                            [3, 1.3355406281103548, 0.0077619493177723]],
            "given_y1": [[2, 0.9084046940539767, 0.014547261151761312],
                         [3, 1.3524499363731002, 0.007333274732111343]],
        },
        "y_used": {
            "given_y1_y2": "k=2:free#23; k=3:free#4",
            "given_y1": "k=2:free#1; k=3:free#0",
        },
    },
    "T-VS-JOINT": {
        "k_list": (2, 3),
        "lhs": 1.3496181175449358,
        "rhs": 1.3713479915853466,
        "per_k": {
            "relative": [[2, 0.9127526297319442, 0.014383899044561525],
                         [3, 1.3568045667556126, 0.007186449210676739]],
            "plain": [[2, 1.0986471382786533, 0.00809776330178916],
                      [3, 1.3780585064885535, 0.0067105149032070065]],
        },
        "y_used": {
            "relative": "k=2:free#0; k=3:free#0",
            "plain": "",
        },
    },
    "T-MAXBOUND": {
        "k_list": (2, 3),
        "lhs": 1.0924136842584462,
        "rhs": 1.4189385332046727,
        "per_k": {
            "estimate": [[2, 0.28245569529822917, 0.05533985905294664],
                         [3, 1.114188977295611, 0.021775293037164814]],
        },
        "y_used": {},
    },
    "T-SUBADD": {
        "k_list": (2, 3),
        "lhs": 2.709267888456096,
        "rhs": 2.755590833775608,
        "per_k": {
            "joint": [[2, 2.0361538277018427, 0.02091650066335189],
                      [3, 2.730039169096173, 0.020771280640077095]],
            "x": [[2, 1.0986471382786533, 0.00809776330178916],
                  [3, 1.3780585064885535, 0.0067105149032070065]],
            "y": [[2, 1.1022077274575393, 0.007985150359425066],
                  [3, 1.3906492403955588, 0.006406398205297474]],
        },
        "y_used": {},
    },
    "T-FREE-B": {
        "k_list": (2, 3),
        "lhs": 2.761812581939137,
        "rhs": 2.729639751651464,
        "per_k": {
            "joint": [[2, 1.9727531380021133, 0.024121150405965644],
                      [3, 2.7473477728632396, 0.017708021211775594]],
            "x": [[2, 1.0876506012325908, 0.008445885178321816],
                  [3, 1.38778756416799, 0.006371086647658965]],
            "y": [[2, 1.0844177975645288, 0.00854838214577444],
                  [3, 1.3863718036077337, 0.005975699188927862]],
        },
        "y_used": {},
    },
    "T-FREECRIT": {
        "k_list": (2, 3),
        "lhs": 1.348236639230136,
        "rhs": 1.370338058300017,
        "per_k": {
            "relative": [[2, 0.9138279002067917, 0.01434365167409051],
                         [3, 1.3556286235758375, 0.0073919843457015055]],
            "plain": [[2, 1.0833308393305028, 0.008582865334027322],
                      [3, 1.3767587522955478, 0.0064206939955306205]],
        },
        "y_used": {
            "relative": "k=2:free#0; k=3:free#1",
            "plain": "",
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
