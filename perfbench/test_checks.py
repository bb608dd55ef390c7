"""Self-test of the benchmark: corrupted outputs count as failures, and the
metrics it emits are the ones BENCHMARK.json declares.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import GOLDEN_SEED, WORKLOADS  # noqa: E402

SEMICIRCLE = WORKLOADS["sweep-small-k"][0]
FREE_PAIR = WORKLOADS["sweep-small-k"][1]
CONDITIONED = WORKLOADS["conditioned"][0]
BATTERY = WORKLOADS["battery"][0]


def sweep_doc(cmd, value=1.0):
    rows = [
        {"k": int(k), "log_volume": 5.0, "stderr": 0.01, "normalized_chi": value,
         "y_id": "free#0" if cmd.conditioned else ""}
        for k in cmd.flag("--k").split(",")
    ]
    return {"extrapolated": value - 0.01 / 64, "per_k": rows}


def battery_doc():
    return [{"id": cid, "passed": True} for cid in sorted(checks.DETERMINISTIC_IDS)]


def corrupt(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return json.dumps(doc)


GOOD = [
    (SEMICIRCLE, json.dumps(sweep_doc(SEMICIRCLE))),
    (CONDITIONED, json.dumps(sweep_doc(CONDITIONED))),
    (BATTERY, json.dumps(battery_doc())),
]

BAD = {
    "nonzero exit": (SEMICIRCLE, 1, json.dumps(sweep_doc(SEMICIRCLE))),
    "deterministic exit 3": (BATTERY, 3, json.dumps(battery_doc())),
    "truncated JSON": (SEMICIRCLE, 0, json.dumps(sweep_doc(SEMICIRCLE))[:-7]),
    "empty output": (BATTERY, 0, ""),
    "non-finite value": (
        SEMICIRCLE, 0,
        corrupt(sweep_doc(SEMICIRCLE), lambda d: d["per_k"][2].update(normalized_chi="-inf")),
    ),
    "nan stderr": (
        CONDITIONED, 0,
        corrupt(sweep_doc(CONDITIONED), lambda d: d["per_k"][0].update(stderr="nan")),
    ),
    "non-finite extrapolation": (
        SEMICIRCLE, 0, corrupt(sweep_doc(SEMICIRCLE), lambda d: d.update(extrapolated="inf")),
    ),
    "missing k": (SEMICIRCLE, 0, corrupt(sweep_doc(SEMICIRCLE), lambda d: d["per_k"].pop())),
    "above the entropy bound": (SEMICIRCLE, 0, json.dumps(sweep_doc(SEMICIRCLE, value=1.6))),
    "empty y_id": (
        CONDITIONED, 0, corrupt(sweep_doc(CONDITIONED), lambda d: d["per_k"][1].update(y_id="")),
    ),
    "gate FAIL": (BATTERY, 0, corrupt(battery_doc(), lambda d: d[3].update(passed=False))),
    "check missing": (BATTERY, 0, corrupt(battery_doc(), lambda d: d.pop())),
    "wrong shape": (SEMICIRCLE, 0, json.dumps({"per_k": 5, "extrapolated": 1.0})),
}


@pytest.mark.parametrize("cmd,stdout", GOOD)
def test_correct_outputs_pass(cmd, stdout):
    assert checks.failures(cmd, 0, stdout) == []


@pytest.mark.parametrize("case", sorted(BAD))
def test_corrupted_output_is_a_failure(case):
    cmd, rc, stdout = BAD[case]
    assert checks.failures(cmd, rc, stdout)


def test_entropy_bound_is_the_window_ball_at_each_k():
    # k=8, eps=0.4: the ball bound is 1.5457 and sigma is 0.01/64
    bound = checks.window_bound(8, 0.4)
    assert 1.545 < bound < 1.546
    for value, fails in ((bound + 2.9 * 0.01 / 64, False), (bound + 3.1 * 0.01 / 64, True)):
        doc = corrupt(sweep_doc(SEMICIRCLE), lambda d: d["per_k"][3].update(normalized_chi=value))
        problems = checks.failures(SEMICIRCLE, 0, doc)
        assert bool(problems) == fails
        assert not problems or "entropy bound" in problems[0]
    # the bound tends to (1/2)log(2 pi e (1 + eps)) from below
    limit = 0.5 * math.log(2.0 * math.pi * math.e * 1.4)
    assert checks.window_bound(8, 0.4) < checks.window_bound(64, 0.4) < limit
    assert limit - checks.window_bound(4096, 0.4) < 1e-5


def test_plain_max_entropy_is_no_bound_at_fixed_eps():
    # The uniform law on [-a, a] of variance 1.15 has its moments up to
    # order 4 within eps = 0.4 of the semicircle's (0, 1, 0, 2), so the
    # eps-window holds it; its free entropy log(2a) - 3/2 + 3/4 + log(2 pi)/2
    # is above (1/2)log(2 pi e), while the window bound still holds.
    a = math.sqrt(3.0 * 1.15)
    m2, m4 = a * a / 3.0, a ** 4 / 5.0
    assert abs(m2 - 1.0) < 0.4 and abs(m4 - 2.0) < 0.4
    chi = math.log(2.0 * a) - 0.75 + 0.5 * math.log(2.0 * math.pi)
    assert 0.5 * math.log(2.0 * math.pi * math.e) + 0.06 < chi
    assert chi < 0.5 * math.log(2.0 * math.pi * math.e * 1.4)


@pytest.fixture(scope="module")
def freelab():
    return run.load_freelab()


def test_corrupted_real_output_counts_as_failed_op(freelab, monkeypatch):
    counting = Tracer(freelab, ["microstates.estimate_volume"])
    with counting:
        op = run.run_op(freelab, counting, FREE_PAIR, GOLDEN_SEED, 0)
    assert op.problems == [] and op.work == 3 * 20_000

    real_main = freelab.cli.main

    def corrupted_main(argv):
        rc = real_main(argv)
        sys.stdout.seek(0)
        text = sys.stdout.read().replace('"normalized_chi": ', '"normalized_chi": "-inf", "x": ', 1)
        sys.stdout.seek(0)
        sys.stdout.truncate()
        sys.stdout.write(text)
        return rc

    monkeypatch.setattr(freelab.cli, "main", corrupted_main)
    with counting:
        bad = run.run_op(freelab, counting, FREE_PAIR, GOLDEN_SEED, 1)
    assert bad.problems and "non-finite normalized_chi" in bad.problems[0]


def test_emitted_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    op = run.Op(BATTERY, [], 0, "[]", 1.0, [])
    layer = run.per_layer([], [op], [op], {
        "tts_s": 1.0, "golden_mismatch": 0, "fail_ratio": 0.0,
    })
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit_of(name) for name in layer
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
