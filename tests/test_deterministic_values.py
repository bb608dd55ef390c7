"""Every number of the deterministic commands, pinned to 1e-12.

tests/deterministic_values.json holds the parsed ``--format json`` output
of ``freelab check deterministic --threads 1`` and of ``freelab
chi-single MEASURE --field FIELD`` for each of its measures (semicircle,
uniform, grid, atomic) and fields (identity, affine both ways, a cubic,
arctan).  The battery's own tests hold these values only to their
tolerances, and perfbench/golden.json pins the check's stdout by sha256,
which the last bit of any float moves between numpy and libm builds.
Here each float must agree to rel_tol = abs_tol = 1e-12 and everything
else exactly, so a change that moves a quadrature, a change of variables
or a Jacobian by more than rounding fails.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from freelab import cli

RECORD = json.loads((Path(__file__).parent / "deterministic_values.json").read_text())


def cli_json(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main([*argv, "--format", "json"]) == 0
    return json.loads(buf.getvalue())


def assert_close(got, want, path="$"):
    """got equals want with floats to 1e-12, relative or absolute."""
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def test_check_deterministic_values():
    assert_close(cli_json("check", "deterministic", "--threads", "1"), RECORD["check_deterministic"])


@pytest.mark.parametrize("measure", sorted(RECORD["measures"]))
def test_chi_single_field_values(tmp_path, measure):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(RECORD["measures"][measure]))
    rows = [r for r in RECORD["chi_single"] if r["measure"] == measure]
    assert [r["field"] for r in rows] == RECORD["fields"]
    for r in rows:
        assert_close(cli_json("chi-single", str(path), "--field", r["field"]), r["row"], r["field"])
