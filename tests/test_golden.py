"""Golden replay: the benchmark's fixed-seed Monte Carlo commands reproduce.

perfbench/golden.json records, for each benchmark command at its golden
seed, the accepted count and log-volume of every ``estimate_volume`` call.
Replaying the sweep commands through ``cli.main`` must give the same
counts exactly and the same log-volumes to 1e-12 relative, so a change to
the sampler or the membership test that moves any estimate fails here and
not only in the benchmark.  The recorded stdout digests are not compared:
they pin the last bit of every printed float, which differs between libm
and BLAS builds.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from freelab import cli
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
