import csv
import io
import json
import os
import subprocess
import sys
import threading
import warnings

import pytest

from freelab import cli, rng, theorems
from freelab import microstates as ms


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


SC_SPEC = {
    "n": 1,
    "m": 0,
    "l_max": 4,
    "targets": [
        {"word": [1], "value": 0.0},
        {"word": [1, 1], "value": 1.0},
        {"word": [1, 1, 1], "value": 0.0},
        {"word": [1, 1, 1, 1], "value": 2.0},
    ],
}

REL_SPEC = {
    "n": 1,
    "m": 1,
    "l_max": 2,
    "generator": {
        "kind": "free",
        "factors": [
            {"kind": "semicircle", "variance": 1.0},
            {"kind": "atomic", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
        ],
        "assign": [0, 1],
    },
}


# --- dq ---------------------------------------------------------------------


def test_dq_coordinate(capsys):
    code, out, _ = run(capsys, "dq", "t1", "1")
    assert code == 0
    assert out == "1 (x) 1\n"


def test_dq_other_variable_vanishes(capsys):
    code, out, _ = run(capsys, "dq", "t2", "1")
    assert code == 0
    assert out == "0\n"


def test_dq_worked_example(capsys):
    code, out, _ = run(capsys, "dq", "0.5 - t2 + 2 t1 t2", "2")
    assert code == 0
    assert out == "- 1 (x) 1 + 2 t1 (x) 1\n"


def test_dq_grammar_error_carries_position(capsys):
    code, out, err = run(capsys, "dq", "t1 +* t2", "1")
    assert code == 2
    assert out == ""
    assert "token 2" in err


@pytest.mark.parametrize(
    "poly,token",
    [("1e400 t1", "token 1"), ("1e200 1e200 t1", "token 2"), ("1e308 t1 + 1e308 t1", "token 5")],
    ids=["literal", "product", "sum"],
)
def test_dq_non_finite_scalar_exits_2(capsys, poly, token):
    # each crashed with an uncaught OverflowError when the result was printed
    code, out, err = run(capsys, "dq", poly, "1")
    assert code == 2
    assert out == ""
    assert token in err and "not finite" in err


def test_dq_rejects_bad_index(capsys):
    code, _, err = run(capsys, "dq", "t1", "0")
    assert code == 2
    assert "index" in err


def test_dq_json_format(capsys):
    code, out, _ = run(capsys, "dq", "t1 t1", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"poly": "t1 t1", "index": 1, "result": "1 (x) t1 + t1 (x) 1"}


# --- chi-single -------------------------------------------------------------


def test_chi_single_semicircle(tmp_path, capsys):
    path = write_json(tmp_path / "sc.json", {"kind": "semicircle", "variance": 1.0})
    code, out, _ = run(capsys, "chi-single", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["chi_single"] == pytest.approx(1.418939, abs=1e-3)
    assert doc["log_energy"] == pytest.approx(-0.25, abs=1e-3)


def test_chi_single_uniform_energy(tmp_path, capsys):
    path = write_json(tmp_path / "u.json", {"kind": "uniform", "interval": [0, 1]})
    code, out, _ = run(capsys, "chi-single", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["log_energy"] == pytest.approx(-1.5, abs=1e-3)


def test_chi_single_atomic_is_minus_inf(tmp_path, capsys):
    path = write_json(
        tmp_path / "a.json", {"kind": "atomic", "atoms": [[-1, 0.5], [1, 0.5]]}
    )
    code, out, _ = run(capsys, "chi-single", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["chi_single"] == "-inf"
    assert doc["log_energy"] == "-inf"


def test_chi_single_parse_error_names_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "semicircle",\n "variance": }')
    code, out, err = run(capsys, "chi-single", str(path))
    assert code == 2
    assert out == ""
    assert "line 2" in err and "column" in err


def test_chi_single_rejects_unknown_kind(tmp_path, capsys):
    path = write_json(tmp_path / "b.json", {"kind": "cauchy"})
    code, _, err = run(capsys, "chi-single", str(path))
    assert code == 2
    assert "kind" in err


MALFORMED_MEASURES = [
    pytest.param({"kind": "uniform", "interval": [0]}, id="short-interval"),
    pytest.param({"kind": "uniform", "interval": 5}, id="scalar-interval"),
    pytest.param({"kind": "uniform", "interval": [0, float("inf")]}, id="infinite-interval"),
    pytest.param({"kind": "atomic", "atoms": [["a", 1.0]]}, id="string-atom"),
    pytest.param({"kind": "atomic", "atoms": [[1]]}, id="atom-without-weight"),
    pytest.param({"kind": "atomic", "atoms": [[0.0, float("nan")]]}, id="nan-weight"),
    pytest.param({"kind": "semicircle", "variance": "x"}, id="string-variance"),
    pytest.param({"kind": "semicircle", "variance": float("inf")}, id="infinite-variance"),
    pytest.param({"kind": "grid", "support": [0, 1], "values": "abc"}, id="string-values"),
    pytest.param({"kind": "grid", "support": [0, 1], "values": [1.0] * 7 + [float("nan")]},
                 id="nan-value"),
]


@pytest.mark.parametrize("doc", MALFORMED_MEASURES)
def test_chi_single_malformed_measure_exits_2(tmp_path, capsys, doc):
    # json.dumps writes inf and nan as the Infinity and NaN literals json.load accepts
    path = write_json(tmp_path / "bad.json", doc)
    code, out, err = run(capsys, "chi-single", path)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_chi_single_field_correction(tmp_path, capsys):
    path = write_json(tmp_path / "sc.json", {"kind": "semicircle", "variance": 1.0})
    code, out, _ = run(
        capsys, "chi-single", path, "--field", "affine:2.0,0.5", "--format", "json"
    )
    assert code == 0
    import math

    assert json.loads(out)["cov_correction"] == pytest.approx(math.log(2.0), abs=1e-6)


def test_chi_single_rejects_unknown_field(tmp_path, capsys):
    path = write_json(tmp_path / "sc.json", {"kind": "semicircle", "variance": 1.0})
    code, _, err = run(capsys, "chi-single", path, "--field", "exp:1.0")
    assert code == 2
    assert "unknown field" in err


@pytest.mark.parametrize(
    "field",
    ["poly:0,0,1", "poly:5", "affine:0,1", "arctan:-1", "affine:1e308,0", "poly:0,1e308,0,1e308"],
)
def test_chi_single_bad_field_parameters_exit_2(tmp_path, capsys, field):
    # x^2 and a constant are not monotone on [-2.4, 2.4], and the 1e308 fields
    # overflow there: bad parameters, not a failure, and no numpy warning
    path = write_json(tmp_path / "sc.json", {"kind": "semicircle", "variance": 1.0})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "chi-single", path, "--field", field)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: bad field parameters in {field!r}")
    assert len(err.splitlines()) == 1
    assert [str(w.message) for w in caught] == []


def test_chi_single_out_file_matches_stdout(tmp_path, capsys):
    path = write_json(tmp_path / "sc.json", {"kind": "semicircle", "variance": 1.0})
    code, out, _ = run(capsys, "chi-single", path)
    dest = tmp_path / "report.txt"
    code2, out2, _ = run(capsys, "chi-single", path, "--out", str(dest))
    assert code == code2 == 0
    assert out2 == ""
    assert dest.read_text() == out


# --- chi-mc -----------------------------------------------------------------


def test_chi_mc_csv_columns_and_reproducibility(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", SC_SPEC)
    argv = ["chi-mc", "--spec", spec, "--k", "2,3", "--samples", "20000",
            "--seed", "5", "--format", "csv"]
    code, out, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code == code2 == 0
    assert out == out2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == [
        "k", "l", "eps", "R", "N", "log_volume", "stderr", "normalized_chi", "y_id"
    ]
    assert [r["k"] for r in rows] == ["2", "3"]
    assert all(r["y_id"] == "" for r in rows)
    for r in rows:
        float(r["log_volume"]), float(r["stderr"]), float(r["normalized_chi"])


def test_chi_mc_json_summary(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", SC_SPEC)
    code, out, _ = run(
        capsys, "chi-mc", "--spec", spec, "--k", "2,3", "--samples", "20000",
        "--seed", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["extrapolated"], float)
    assert len(doc["per_k"]) == 2
    assert doc["seed"] == 5 and doc["samples_per_k"] == 20000
    assert doc["per_k"][1]["normalized_chi"] > doc["per_k"][0]["normalized_chi"]


def test_chi_mc_out_files_byte_identical(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", SC_SPEC)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for dest in (a, b):
        code, _, _ = run(
            capsys, "chi-mc", "--spec", spec, "--k", "2", "--samples", "5000",
            "--seed", "9", "--format", "csv", "--out", str(dest),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.xfail(
    strict=True,
    reason="FOUND in CHANGES.md: chi-mc's stderr column prints pt.stderr * k * k, the k^2 "
           "round trip of estimate_chi, not the estimator's stderr_log",
)
def test_chi_mc_stderr_column_is_the_estimators(capsys):
    # at k=3 the column reads 0.062405091089445905 against 0.0624050910894459
    spec_path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "specs",
                             "semicircle.json")
    code, out, _ = run(
        capsys, "chi-mc", "--spec", spec_path, "--l", "2", "--k", "3,4,5,6,7",
        "--samples", "1000", "--threads", "1", "--seed", "9", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    spec = ms.TracialSpec.load(spec_path)
    for row in doc["per_k"]:
        p = ms.MicrostateParams(row["k"], doc["l"], doc["eps"], doc["radius"])
        # a plain sweep's one candidate, and so the winning estimate
        ve = ms.estimate_volume(spec, p, "auto", None, 1000, rng.derive(9, 0xC41, p.k), 1)
        assert row["log_volume"] == ve.log_volume
        assert row["stderr"] == ve.stderr_log


def test_chi_mc_enumerates_every_spec_problem(tmp_path, capsys):
    bad = {
        "n": 1,
        "m": 0,
        "l_max": 2,
        "targets": [
            {"word": [1], "value": 0.0},
            {"word": [1, 3], "value": 1.0},
            {"word": [1, 1, 1], "value": 0.5},
            {"word": [1, 1], "value": "x"},
        ],
    }
    spec = write_json(tmp_path / "bad.json", bad)
    dest = tmp_path / "out.csv"
    code, out, err = run(
        capsys, "chi-mc", "--spec", spec, "--k", "2", "--out", str(dest)
    )
    assert code == 2
    assert out == ""
    assert not dest.exists()
    assert "out of range" in err
    assert "longer than l_max" in err
    assert "not a number" in err


def test_chi_mc_tracial_conflict_reported(tmp_path, capsys):
    bad = {
        "n": 2,
        "m": 0,
        "l_max": 2,
        "targets": [
            {"word": [1, 2], "value": 0.5},
            {"word": [2, 1], "value": 0.25},
        ],
    }
    spec = write_json(tmp_path / "bad.json", bad)
    code, _, err = run(capsys, "chi-mc", "--spec", spec)
    assert code == 2
    assert "tracial symmetry conflict" in err


def test_chi_mc_conflict_above_library_tolerance_is_a_usage_error(tmp_path, capsys):
    # 1e-10 is above the library's target tolerance, so it must be caught as
    # a spec problem (exit 2), not surface later as a computation failure
    bad = {
        "n": 2,
        "m": 0,
        "l_max": 2,
        "targets": [
            {"word": [1, 1], "value": 1.0},
            {"word": [1, 1], "value": 3.0},
            {"word": [1, 2], "value": 0.5},
            {"word": [2, 1], "value": 0.5 + 1e-10},
        ],
    }
    spec = write_json(tmp_path / "bad.json", bad)
    code, out, err = run(capsys, "chi-mc", "--spec", spec, "--k", "2")
    assert code == 2
    assert out == ""
    assert "word [1, 1] is repeated with a different value" in err
    assert "word [2, 1] is a tracial symmetry conflict" in err


SC_FACTOR = {"kind": "semicircle", "variance": 1.0}
MALFORMED_SPECS = [
    pytest.param(
        {"generator": {"kind": "free"}},
        ["generator: field 'factors' must be a list of measures",
         "generator: field 'assign' must be a list of factor indices"],
        id="free-generator-without-fields",
    ),
    pytest.param(
        {"generator": "free"},
        ["field 'generator' must be an object with a 'kind'"],
        id="generator-not-an-object",
    ),
    pytest.param(
        {"generator": {"kind": "gaussian"}},
        ["generator: kind 'gaussian' is neither 'free' nor 'matrix'"],
        id="unknown-generator-kind",
    ),
    pytest.param(
        {"targets": [{"word": [], "value": 0.5}, {"word": [1, 3], "value": 1.0}]},
        ["targets[1]: the empty word must target 1, not 0.5",
         "targets[2]: word [1, 3] has a letter out of range 1..2"],
        id="empty-word-target",
    ),
    pytest.param(
        {"generator": {"kind": "free", "factors": [SC_FACTOR], "assign": [0]}},
        ["the generator models 1 letters, not n + m = 2"],
        id="assign-of-wrong-length",
    ),
    pytest.param(
        {"n": "1", "l_max": 2.9},
        ["field 'n' must be a nonnegative integer",
         "field 'l_max' must be a nonnegative integer",
         "give either targets (an empty table is []) or a generator"],
        id="non-integer-fields",
    ),
    pytest.param(
        {"generator": {"kind": "free", "factors": [SC_FACTOR, {"kind": "cauchy"}],
                       "assign": [0, 1]}},
        ["generator: factors[2]: unknown measure kind 'cauchy'"],
        id="bad-factor-measure",
    ),
    pytest.param(
        {"generator": {"kind": "free", "factors": [{"kind": "atomic", "atoms": [[1]]}, SC_FACTOR],
                       "assign": [0, 1]}},
        ["generator: factors[1]: atoms must be a list of [location, weight] pairs"],
        id="factor-atom-without-weight",
    ),
    pytest.param(
        {"generator": {"kind": "free",
                       "factors": [{"kind": "semicircle", "variance": float("inf")}, SC_FACTOR],
                       "assign": [0, 1]}},
        ["generator: factors[1]: semicircle variance must be a finite number, not inf"],
        id="factor-infinite-variance",
    ),
    pytest.param(
        {"generator": {"kind": "free", "factors": [SC_FACTOR], "assign": [0, 1]}},
        ["generator: factor assignment out of range"],
        id="assign-out-of-range",
    ),
    pytest.param(
        # every word would be Y-only: the volume of no X letters has no per-k value
        {"n": 0, "generator": {"kind": "free", "factors": [SC_FACTOR], "assign": [0]}},
        ["need at least one X letter (n >= 1)"],
        id="no-x-letters",
    ),
    pytest.param(
        {"generator": {"kind": "matrix", "matrices": [[[[1, 0], [0, 0]]]]}},
        ["generator: field 'matrices' must hold square matrices of [re, im] entries "
         "(expected a square matrix, got shape (1, 2))"],
        id="non-square-matrix",
    ),
    pytest.param(
        {"generator": {"kind": "free", "factors": [SC_FACTOR], "assign": [0, 0]},
         "targets": []},
        ["give either targets or a generator, not both"],
        id="targets-and-generator",
    ),
    pytest.param(
        # valid for estimate_volume with a fixed y, but a sweep must propose Y candidates
        {"targets": [{"word": w, "value": v} for w, v in
                     (([1], 0.0), ([2], 0.0), ([1, 1], 1.0), ([1, 2], 0.0), ([2, 2], 1.0))]},
        ["Y letters need a generator to propose Y candidates; a target table has none"],
        id="target-table-with-y-letters",
    ),
    pytest.param(
        # a valid table that is too shallow for the default --l 4
        {"m": 0, "targets": [{"word": [1], "value": 0.0}, {"word": [1, 1], "value": 1.0}]},
        ["l=4 exceeds the table depth l_max=2"],
        id="table-shallower-than-l",
    ),
    pytest.param(
        # README: every word up to l_max must be priced, checked when the table loads
        {"m": 0, "l_max": 4, "targets": [{"word": [1, 1], "value": 1.0}]},
        ["targets: no value for word [1]; 1 of the 1 words of length 1 lack one (l_max=4)"],
        id="table-without-a-needed-word",
    ),
    pytest.param(
        # the gap is a problem of the table, whatever depth a run asks for
        {"m": 0, "targets": [{"word": [1], "value": 0.0}]},
        ["targets: no value for word [1, 1]; 1 of the 1 words of length 2 lack one (l_max=2)"],
        id="table-without-a-word-below-l_max",
    ),
    pytest.param(
        {"m": 0, "l_max": 0},
        ["give either targets (an empty table is []) or a generator"],
        id="neither-targets-nor-generator",
    ),
]


@pytest.mark.parametrize("body,problems", MALFORMED_SPECS)
def test_chi_mc_malformed_spec_exits_2_listing_every_problem(tmp_path, capsys, body, problems):
    spec = write_json(tmp_path / "bad.json", {"n": 1, "m": 1, "l_max": 2, **body})
    code, out, err = run(capsys, "chi-mc", "--spec", spec, "--k", "2", "--samples", "200")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: invalid specification:\n")
    listed = [line[len("  - "):] for line in err.splitlines()[1:]]
    assert listed == problems


# an integer literal with 401 digits: valid JSON, but float() of it overflows
HUGE = 10**400


@pytest.mark.parametrize("body,problem", [
    ({"l_max": 1, "targets": [{"word": [1], "value": HUGE}]},
     f"targets[1]: value {HUGE!r} is not finite"),
    ({"l_max": 2, "generator": {"kind": "matrix", "matrices": [[[[HUGE, 0]]]]}},
     "generator: field 'matrices' must hold square matrices of [re, im] entries ("),
], ids=["target-value", "matrix-entry"])
def test_chi_mc_integer_too_large_for_a_float_exits_2(tmp_path, capsys, body, problem):
    spec = write_json(tmp_path / "huge.json", {"n": 1, "m": 0, **body})
    code, out, err = run(capsys, "chi-mc", "--spec", spec, "--k", "2", "--samples", "100",
                         "--l", "1")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert lines[0] == "error: invalid specification:"
    assert len(lines) == 2 and lines[1].startswith(f"  - {problem}")


@pytest.mark.parametrize("flag", ["--eps", "--radius"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_chi_mc_non_finite_window_exits_2_before_sampling(tmp_path, capsys, monkeypatch,
                                                          flag, value):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with a non-finite parameter")

    monkeypatch.setattr(cli.ms, "estimate_volume", no_sampling)
    spec = write_json(tmp_path / "spec.json", SC_SPEC)
    code, out, err = run(
        capsys, "chi-mc", "--spec", spec, "--k", "2", "--samples", "200",
        f"{flag}={value}", "--format", "json",
    )
    assert code == 2
    assert out == ""
    assert f"{flag[2:]} must be positive and finite" in err


@pytest.mark.parametrize("factor,l", [
    ({"kind": "atomic", "atoms": [[1e300, 1.0]]}, "2"),
    ({"kind": "uniform", "interval": [-1e300, 1e300]}, "2"),
    ({"kind": "semicircle", "variance": 1e300}, "4"),
], ids=["atomic", "uniform", "semicircle"])
def test_chi_mc_overflowing_moment_exits_1(tmp_path, capsys, factor, l):
    spec = {"n": 1, "m": 0, "l_max": 4,
            "generator": {"kind": "free", "factors": [factor], "assign": [0]}}
    path = write_json(tmp_path / "spec.json", spec)
    code, out, err = run(capsys, "chi-mc", "--spec", path, "--k", "2", "--samples", "200",
                         "--l", l, "--threads", "1")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: moment ") and "overflows a float" in err


def test_chi_mc_on_a_uniform_whose_powers_overflow_runs(tmp_path, capsys):
    # on [-5e102, 5e102], b^3 - a^3 is inf, but the second moment is 8.3e204
    spec = {"n": 1, "m": 0, "l_max": 2, "generator": {
        "kind": "free", "factors": [{"kind": "uniform", "interval": [-5e102, 5e102]}],
        "assign": [0]}}
    path = write_json(tmp_path / "spec.json", spec)
    code, out, err = run(capsys, "chi-mc", "--spec", path, "--k", "2", "--samples", "200",
                         "--l", "2", "--threads", "1")
    assert code == 0 and err == ""
    assert out.startswith("k=2: ")


def test_chi_mc_missing_file(capsys):
    code, _, err = run(capsys, "chi-mc", "--spec", "/nonexistent/spec.json")
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize("argv,what", [
    (["chi-mc", "--spec", "DIR", "--k", "2", "--samples", "100"], "specification"),
    (["chi-mc", "--spec", "LATIN1", "--k", "2", "--samples", "100"], "specification"),
    (["chi-single", "LATIN1"], "measure"),
    (["check", "T-BLOCK", "--config", "DIR"], "config"),
], ids=["chi-mc-directory", "chi-mc-not-utf8", "chi-single-not-utf8", "check-directory"])
def test_an_unreadable_input_file_exits_2(tmp_path, capsys, argv, what):
    # a bad input file is a usage error, not a failed computation
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"kind": "uniform", "interval": [0, 1], "note": "é"}'.encode("latin-1"))
    paths = {"DIR": str(tmp_path), "LATIN1": str(latin1)}
    path = paths[next(a for a in argv if a in paths)]
    code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {what} file cannot be read: {path} (")


@pytest.mark.parametrize("argv", [
    ["dq", "t1", "1"],
    ["chi-mc", "--spec", "SPEC", "--k", "2", "--samples", "100"],
], ids=["dq", "chi-mc"])
def test_an_out_path_that_cannot_be_written_exits_2_before_any_computation(
        tmp_path, capsys, monkeypatch, argv):
    # it exited 1, after the whole computation had run
    def no_computation(*args, **kwargs):
        raise AssertionError("computed for an --out that cannot be written")

    monkeypatch.setattr(cli.ms, "estimate_volume", no_computation)
    monkeypatch.setattr(cli.ncalg, "dquotient", no_computation)
    spec = write_json(tmp_path / "spec.json", SC_SPEC)
    argv = [spec if a == "SPEC" else a for a in argv]
    for out in (tmp_path, tmp_path / "missing" / "out.txt"):
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: --out file cannot be written: {out} (")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


def test_an_out_file_is_written_only_on_success(tmp_path, capsys):
    dest = tmp_path / "report.txt"
    code, _, _ = run(capsys, "dq", "t1", "0", "--out", str(dest))
    assert code == 2
    assert not dest.exists()  # checking the target left nothing behind
    code, _, _ = run(capsys, "dq", "t1", "1", "--out", str(dest))
    assert code == 0
    assert dest.read_text() == "1 (x) 1\n"


def test_an_out_dangling_symlink_keeps_its_link(tmp_path, capsys):
    # the check leaves the link in place, and its target appears only with
    # the output
    target, link = tmp_path / "target.txt", tmp_path / "link"
    link.symlink_to(target)
    code, _, _ = run(capsys, "dq", "t1", "0", "--out", str(link))
    assert code == 2
    assert link.is_symlink() and not target.exists()
    code, _, _ = run(capsys, "dq", "t1", "1", "--out", str(link))
    assert code == 0
    assert link.is_symlink() and target.read_text() == "1 (x) 1\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_an_out_fifo_is_not_opened_by_the_check(tmp_path, capsys):
    # so the reader sees the output before its first EOF; it reads on after
    # an empty read so as not to leave the writer blocked
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reads = []

    def read_until_output():
        while not (reads and reads[-1]):
            with open(fifo) as fh:
                reads.append(fh.read())

    reader = threading.Thread(target=read_until_output, daemon=True)
    reader.start()
    code, _, _ = run(capsys, "dq", "t1", "1", "--out", str(fifo))
    reader.join(timeout=30)
    assert code == 0
    assert reads == ["1 (x) 1\n"]


def test_chi_mc_rejects_bad_k_list(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", SC_SPEC)
    code, _, err = run(capsys, "chi-mc", "--spec", spec, "--k", "3,2")
    assert code == 2
    assert "ascending" in err


def test_chi_mc_empty_pool_reports_minus_inf(tmp_path, capsys):
    spec = write_json(tmp_path / "rel.json", REL_SPEC)
    code, out, _ = run(
        capsys, "chi-mc", "--spec", spec, "--k", "1", "--samples", "500",
        "--y-pool", "2", "--seed", "3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["extrapolated"] == "-inf"
    assert "empty sup" in doc["y_used"]


@pytest.mark.parametrize("pool", ["0", "-1"])
def test_chi_mc_pool_below_one_is_a_usage_error(tmp_path, capsys, pool):
    # it printed an empty-sup -inf row and exited 0
    spec = write_json(tmp_path / "rel.json", REL_SPEC)
    code, out, err = run(
        capsys, "chi-mc", "--spec", spec, "--k", "3", "--samples", "200", "--y-pool", pool,
    )
    assert code == 2
    assert out == ""
    assert "y_pool must be an integer >= 1" in err


@pytest.mark.parametrize("flag,value,low", [("--samples", "99", 100), ("--threads", "-1", 0)])
def test_chi_mc_bad_samples_or_threads_exit_2_before_sampling(tmp_path, capsys, monkeypatch,
                                                              flag, value, low):
    # --samples 99 exited 1 from inside the estimator; --threads -1 exited 0
    def no_sampling(*args, **kwargs):
        raise AssertionError(f"sampled with {flag} {value}")

    monkeypatch.setattr(cli.ms, "estimate_volume", no_sampling)
    spec = write_json(tmp_path / "spec.json", SC_SPEC)
    code, out, err = run(capsys, "chi-mc", "--spec", spec, "--k", "2", flag, value)
    assert code == 2
    assert out == ""
    assert f"{flag[2:]} must be an integer >= {low}, not {value}" in err


def test_chi_mc_lists_every_bad_setting(tmp_path, capsys):
    # it named only the k list, the first bad setting it met
    spec = write_json(tmp_path / "spec.json", SC_SPEC)
    code, out, err = run(
        capsys, "chi-mc", "--spec", spec, "--k", "3,2", "--samples", "99", "--y-pool", "0",
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: invalid settings:",
        "  - k_list must be ascending positive integers, not [3, 2]",
        "  - nsamples must be an integer >= 100, not 99",
        "  - y_pool must be an integer >= 1, not 0",
    ]


def test_chi_mc_and_check_state_one_threads_rule(tmp_path, capsys):
    # chi-mc asked for threads >= 0 and check for >= 1, though both read 0 as every core
    spec = write_json(tmp_path / "spec.json", SC_SPEC)
    for argv in (["chi-mc", "--spec", spec, "--k", "2"], ["check", "T-BLOCK"]):
        code, out, err = run(capsys, *argv, "--threads", "-1")
        assert (code, out) == (2, "")
        assert err == "error: invalid settings:\n  - threads must be an integer >= 0, not -1\n"


def test_chi_mc_relative_y_id_column(tmp_path, capsys):
    spec = write_json(tmp_path / "rel.json", REL_SPEC)
    code, out, _ = run(
        capsys, "chi-mc", "--spec", spec, "--k", "2", "--samples", "2000",
        "--y-pool", "4", "--seed", "3", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["y_id"] != ""


# --- check ------------------------------------------------------------------


def test_check_block_passes(capsys):
    code, out, _ = run(capsys, "check", "T-BLOCK")
    assert code == 0
    assert out.startswith("[PASS] T-BLOCK (deterministic)")
    assert "deterministic gate: PASS" in out


def test_check_unknown_id_lists_ids(capsys):
    code, _, err = run(capsys, "check", "T-FOO")
    assert code == 2
    for cid in theorems.CHECK_IDS:
        assert cid in err


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "T-BLOCK", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == 1
    assert docs[0]["id"] == "T-BLOCK" and docs[0]["passed"] is True


def test_check_csv_format(capsys):
    code, out, _ = run(capsys, "check", "T-BLOCK", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["id"] == "T-BLOCK"
    assert rows[0]["passed"] == "True"


def test_check_group_tokens(monkeypatch, capsys):
    seen = []

    def fake(cid, **cfg):
        seen.append(cid)
        return theorems.CheckReport(
            id=cid, relation="==", lhs=0.0, rhs=0.0, tolerance=1.0,
            passed=True, statistical=False, seed=0, diagnostics={},
        )

    monkeypatch.setattr(cli.theorems, "check", fake)
    code, _, _ = run(capsys, "check", "deterministic")
    assert code == 0
    assert seen == [i for i in theorems.CHECK_IDS if i in theorems.DETERMINISTIC_IDS]


def test_check_failed_deterministic_exits_3(monkeypatch, capsys):
    def fake(cid, **cfg):
        return theorems.CheckReport(
            id=cid, relation="==", lhs=1.0, rhs=0.0, tolerance=0.1,
            passed=False, statistical=False, seed=0, diagnostics={},
        )

    monkeypatch.setattr(cli.theorems, "check", fake)
    code, out, _ = run(capsys, "check", "T-BLOCK")
    assert code == 3
    assert "[FAIL] T-BLOCK" in out
    assert "deterministic gate: FAIL" in out


def test_check_flags_override_config_file(tmp_path, monkeypatch, capsys):
    cfg_path = write_json(tmp_path / "cfg.json", {"nsamples": 999, "eps": 0.3})
    captured = {}

    def fake(cid, **cfg):
        captured.update(cfg)
        return theorems.CheckReport(
            id=cid, relation="==", lhs=0.0, rhs=0.0, tolerance=1.0,
            passed=True, statistical=True, seed=0, diagnostics={},
        )

    monkeypatch.setattr(cli.theorems, "check", fake)
    code, _, _ = run(
        capsys, "check", "T-CHAIN", "--config", cfg_path,
        "--samples", "123", "--k", "2,4", "--seed", "7", "--threads", "2",
    )
    assert code == 0
    assert captured["nsamples"] == 123
    assert captured["eps"] == 0.3
    assert captured["k_list"] == [2, 4]
    assert captured["seed"] == 7
    assert captured["threads"] == 2


@pytest.mark.parametrize(
    "config, flags, want",
    [({"threads": 7}, [], 7), ({"threads": 7}, ["--threads", "3"], 3), ({}, [], 0)],
    ids=["config", "flag-over-config", "default-all-cores"],
)
def test_check_threads_order_is_flag_config_all_cores(tmp_path, monkeypatch, capsys,
                                                      config, flags, want):
    # the flag once defaulted to 0 and so always replaced the config's threads;
    # 0 means every core, which the estimator's executor resolves
    captured = {}

    def fake(cid, **cfg):
        captured.update(cfg)
        return theorems.CheckReport(
            id=cid, relation="==", lhs=0.0, rhs=0.0, tolerance=1.0,
            passed=True, statistical=False, seed=0, diagnostics={},
        )

    monkeypatch.setattr(cli.theorems, "check", fake)
    cfg_path = write_json(tmp_path / "cfg.json", config)
    code, _, _ = run(capsys, "check", "T-BLOCK", "--config", cfg_path, *flags)
    assert code == 0
    assert captured["threads"] == want


# the former per-check keys are constants of their checks, so each is unknown
FORMER_KEYS = {"tolerance": 1e-3, "t_values": [0.25, 1.0], "margin": 0.05, "fd_eps": 1e-3,
               "covgen_k": 32, "covgen_coef": 0.15, "finite_k_allowance": 0.05,
               "gen_powers": [2, 1]}


@pytest.mark.parametrize(
    "argv, config, problems",
    [
        (["T-VS-JOINT", "--eps", "nan"], None, ["eps must be"]),
        (["T-BLOCK", "--eps", "nan", "--radius", "-3"], None, ["eps must be", "radius must be"]),
        (["T-CHAIN"], {"nsamples": "many"}, ["nsamples must be"]),
        (["T-BLOCK"], [1, 2], ["config must be"]),
        (["T-BROWN"], {"tolerance": "tight"}, ["tolerance must be a known setting"]),
        (["T-BROWN"], {"t_values": 5}, ["t_values must be a known setting"]),
        (["T-BROWN"], FORMER_KEYS, [f"{key} must be a known setting" for key in FORMER_KEYS]),
        (["T-BLOCK"], {"threads": -1}, ["threads must be"]),
        (["T-BLOCK", "--threads", "-1"], None, ["threads must be"]),
        (["T-BLOCK"], {"nsample": 5, "tolerence": "tight"},
         ["nsample must be a known setting", "tolerence must be a known setting"]),
    ],
    ids=["eps-nan", "deterministic-window", "nsamples-string", "config-array",
         "tolerance-string", "t-values-scalar", "every-per-check-key",
         "threads-config", "threads-flag", "unknown-keys"],
)
def test_check_bad_settings_exit_2_before_any_check(tmp_path, capsys, monkeypatch,
                                                     argv, config, problems):
    def no_check(cid, **cfg):
        raise AssertionError("ran a check with bad settings")

    monkeypatch.setattr(cli.theorems, "check", no_check)
    if config is not None:
        argv = argv + ["--config", write_json(tmp_path / "cfg.json", config)]
    code, out, err = run(capsys, "check", *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    for problem in problems:
        assert problem in err


@pytest.mark.parametrize("key", ["eps", "radius"])
def test_check_config_integer_too_large_for_a_float_exits_2(tmp_path, capsys, monkeypatch, key):
    def no_check(cid, **cfg):
        raise AssertionError("ran a check with bad settings")

    monkeypatch.setattr(cli.theorems, "check", no_check)
    config = write_json(tmp_path / "cfg.json", {key: HUGE})
    code, out, err = run(capsys, "check", "T-BLOCK", "--config", config)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err == f"error: invalid settings:\n  - {key} must be positive and finite, not {HUGE!r}\n"


@pytest.mark.parametrize("key", ["eps", "radius"])
def test_sweep_rejects_an_integer_too_large_for_a_float(key):
    window = {"l": 2, "eps": 0.1, "radius": 4.0, key: HUGE}
    with pytest.raises(ms.SettingsError, match=f"{key} must be positive and finite"):
        ms.Sweep((2,), **window)


def test_check_statistical_failure_keeps_exit_zero(monkeypatch, capsys):
    def fake(cid, **cfg):
        return theorems.CheckReport(
            id=cid, relation="<=", lhs=1.0, rhs=0.0, tolerance=0.1,
            passed=False, statistical=True, seed=0, diagnostics={},
        )

    monkeypatch.setattr(cli.theorems, "check", fake)
    code, out, _ = run(capsys, "check", "T-CHAIN")
    assert code == 0
    assert "[FAIL] T-CHAIN" in out


# --- strict JSON --------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"bare {name} in JSON output")


def _json_cases(tmp_path):
    sc = write_json(tmp_path / "sc.json", {"kind": "semicircle", "variance": 1.0})
    atomic = write_json(
        tmp_path / "a.json", {"kind": "atomic", "atoms": [[-1, 0.5], [1, 0.5]]}
    )
    plain = write_json(tmp_path / "spec.json", SC_SPEC)
    rel = write_json(tmp_path / "rel.json", REL_SPEC)
    return [
        ["chi-single", sc, "--field", "poly:0,1,0,1"],
        ["chi-single", atomic, "--field", "arctan:2.0"],
        ["chi-mc", "--spec", plain, "--k", "1,2", "--samples", "500", "--seed", "2"],
        ["chi-mc", "--spec", rel, "--k", "1,2", "--samples", "500", "--y-pool", "2",
         "--seed", "3", "--threads", "1"],
        ["dq", "0.5 - t2 + 2 t1 t2", "2"],
        ["check", "T-BLOCK,T-MAX"],
        ["check", "T-GEN", "--k", "1", "--samples", "500", "--y-pool", "2", "--threads", "1"],
    ]


def test_every_json_output_is_strict_json(tmp_path, capsys):
    infinities = 0
    for argv in _json_cases(tmp_path):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        json.loads(out, parse_constant=_reject_constant)
        infinities += out.count('"-inf"')
    assert infinities > 0  # the cases include atomic, empty-pool and k=1 -inf values


def test_check_report_serializer_never_emits_bare_non_finite(capsys, monkeypatch):
    def fake(cid, **cfg):
        return theorems.CheckReport(
            id=cid, relation="<=", lhs=float("nan"), rhs=float("-inf"),
            tolerance=float("inf"), passed=False, statistical=True, seed=0,
            diagnostics={"nested": [(1, float("nan")), {"x": float("inf")}]},
        )

    monkeypatch.setattr(cli.theorems, "check", fake)
    code, out, _ = run(capsys, "check", "T-CHAIN", "--format", "json")
    assert code == 0
    (doc,) = json.loads(out, parse_constant=_reject_constant)
    assert (doc["lhs"], doc["rhs"], doc["tolerance"]) == ("nan", "-inf", "inf")
    assert doc["diagnostics"] == {"nested": [[1, "nan"], {"x": "inf"}]}


# --- entry point ------------------------------------------------------------


def test_module_entry_point_reproducible(tmp_path):
    spec = write_json(tmp_path / "spec.json", SC_SPEC)
    argv = [sys.executable, "-m", "freelab.cli", "chi-mc", "--spec", spec,
            "--k", "2", "--samples", "3000", "--seed", "11", "--format", "csv"]
    first = subprocess.run(argv, capture_output=True, timeout=120)
    second = subprocess.run(argv, capture_output=True, timeout=120)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.decode().splitlines()[0].startswith("k,l,eps,R,N,")


def test_usage_error_from_argparse(capsys):
    code = cli.main(["chi-mc"])
    capsys.readouterr()
    assert code == 2
