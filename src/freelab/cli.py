"""Command-line front end: one-variable entropies, microstate sweeps,
difference quotients, and the check battery.

Exit codes: 0 success (and every requested deterministic check passed),
1 computation failure, 2 usage error, 3 deterministic check failed.
Every command is byte-reproducible for fixed flags and seed.
"""

import argparse
import csv
import errno
import io
import json
import math
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import microstates as ms, ncalg, spectra, theorems


class UsageError(Exception):
    """Bad flags or malformed input files; no partial output."""


def jsonable(obj):
    """JSON-safe copy: numpy scalars become Python ones and non-finite
    floats the strings "inf", "-inf" and "nan"."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _render(args, doc, table, lines) -> None:
    """Write a command's result in args.format to args.out or stdout.

    ``doc`` is the JSON document, ``table`` the CSV rows as flat dicts
    whose keys are the header, ``lines`` the text report.  Non-finite
    floats reach JSON only as the strings "inf", "-inf" and "nan"; CSV
    and text print them as Python formats them.
    """
    if args.format == "json":
        text = json.dumps(jsonable(doc), sort_keys=True, allow_nan=False) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, list(table[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(table)
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(path: str) -> None:
    """UsageError unless ``--out`` can be written, so a bad target costs no
    computation.  A regular file is opened for appending; anything else that
    exists (a FIFO, whose reader must not see an early EOF) is only checked
    for write permission; a missing file, or the missing target of a
    symlink, is created and removed again."""
    try:
        if os.path.isfile(path):
            with open(path, "a"):
                pass
        elif os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        elif os.path.exists(path):
            if not os.access(path, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        else:
            target = os.path.realpath(path)
            with open(target, "x"):
                pass
            os.remove(target)
    except OSError as e:
        raise UsageError(f"--out file cannot be written: {path} ({e})")


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}")
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"{what} file cannot be read: {path} ({e})")
    except json.JSONDecodeError as e:
        raise UsageError(
            f"{what} parse failure at line {e.lineno}, column {e.colno}: {e.msg}"
        )
    except ValueError as e:  # such as an integer past Python's digit limit
        raise UsageError(f"{what} parse failure: {e}")


# --- chi-single -----------------------------------------------------------------


def _field_support(mu):
    a, b = mu.support
    pad = 0.1 * max(b - a, 1.0)
    return (a - pad, b + pad)


def _parse_field(text: str, support):
    name, _, rest = text.partition(":")
    try:
        if name == "identity":
            return spectra.identity_field(support)
        if name == "affine":
            a, b = (float(v) for v in rest.split(","))
            return spectra.affine_field(a, b, support)
        if name == "poly":
            coeffs = [float(v) for v in rest.split(",")]
            return spectra.polynomial_field(coeffs, support)
        if name == "arctan":
            return spectra.arctan_field(float(rest), support)
    except ValueError as e:
        raise UsageError(f"bad field parameters in {text!r}: {e}")
    raise UsageError(
        f"unknown field {name!r}; use identity, affine:a,b, poly:c0,c1,..., arctan:scale"
    )


def _cmd_chi_single(args) -> int:
    doc = _load_json(args.measure, "measure")
    try:
        mu = spectra.measure_from_dict(doc)
    except spectra.MeasureFormatError as e:
        raise UsageError(str(e))
    energy = spectra.log_energy(mu)
    chi = spectra.chi_from_log_energy(energy)
    row = {"kind": mu.kind, "log_energy": energy, "chi_single": chi}
    lines = [
        f"measure kind: {mu.kind}",
        f"log_energy = {energy:.6f}",
        f"chi_single = {chi:.6f} (quadrature)",
    ]
    if args.field:
        f = _parse_field(args.field, _field_support(mu))
        if not f.diffeo:
            raise UsageError(f"bad field parameters in {args.field!r}: f is not monotone")
        row["cov_correction"] = spectra.cov_correction(mu, f)
        row["field"] = args.field
        lines.append(f"cov_correction[{args.field}] = {row['cov_correction']:.6f}")
    _render(args, row, [dict(sorted(row.items()))], lines)
    return 0


# --- chi-mc ---------------------------------------------------------------------

# the sweep flags of chi-mc and check, each None unless given: (Sweep field, flag, type, help)
_SWEEP_FLAGS = (
    ("k_list", "--k", str, "comma-separated ascending k sweep"),
    ("l", "--l", int, "word-length depth"),
    ("eps", "--eps", float, "moment window half-width"),
    ("radius", "--radius", float,
     "operator-norm cutoff; chi-mc derives an unset one from the moment targets"),
    ("nsamples", "--samples", int, "samples per k"),
    ("seed", "--seed", int, "base seed"),
    ("y_pool", "--y-pool", int, "candidate pool size for conditioned runs"),
    ("threads", "--threads", int, "0 = all cores (the default)"),
)

# chi-mc's own defaults; samples, seed and y-pool are Sweep's
_CHI_MC_DEFAULTS = {"k_list": (2, 3, 4, 5), "l": 4, "eps": 0.4, "threads": 0}


def _given_sweep(args) -> dict:
    """The sweep flags given on the command line, keyed by Sweep field."""
    given = {f: vars(args)[f] for f, *_ in _SWEEP_FLAGS if vars(args)[f] is not None}
    if "k_list" in given:
        text = given["k_list"]
        try:
            given["k_list"] = [int(v) for v in text.split(",") if v.strip()]
        except ValueError:
            raise UsageError(f"bad k list {text!r}; expected comma-separated integers")
    return given


def _cmd_chi_mc(args) -> int:
    spec = ms.TracialSpec.from_dict(_load_json(args.spec, "specification"))
    settings = {**_CHI_MC_DEFAULTS, **_given_sweep(args)}
    if "radius" not in settings:
        settings["radius"] = ms.suggested_radius(spec)
    sweep = ms.Sweep(**settings)
    est = ms.estimate_chi(spec, sweep)

    per_k, lines = [], []
    for pt in est.per_k:
        stderr = pt.stderr * pt.k * pt.k
        per_k.append(
            {"k": pt.k, "l": sweep.l, "eps": sweep.eps, "R": sweep.radius, "N": sweep.nsamples,
             "log_volume": pt.log_volume, "stderr": stderr, "normalized_chi": pt.value,
             "y_id": pt.y_id}
        )
        tag = f" y={pt.y_id}" if pt.y_id else ""
        lines.append(
            f"k={pt.k}: chi={pt.value:.6f} "
            f"(log_volume={pt.log_volume:.6f} +- {stderr:.6f}){tag}"
        )
    lines.append(f"extrapolated = {est.extrapolated:.6f}")
    if est.y_used:
        lines.append(f"y candidates: {est.y_used}")
    doc = {
        "extrapolated": est.extrapolated,
        "per_k": per_k,
        "n": spec.n,
        "m": spec.m,
        "l": sweep.l,
        "eps": sweep.eps,
        "radius": sweep.radius,
        "samples_per_k": sweep.nsamples,
        "seed": sweep.seed,
        "y_used": est.y_used,
    }
    _render(args, doc, per_k, lines)
    return 0


# --- dq -------------------------------------------------------------------------


def _cmd_dq(args) -> int:
    if args.index < 1:
        raise UsageError("variable index must be >= 1")
    letters = [int(t) for t in re.findall(r"\bt(\d+)\b", args.poly)]
    n = max(letters + [args.index])
    try:
        poly = ncalg.parse_poly(args.poly, n)
    except ncalg.PolyParseError as e:
        raise UsageError(str(e))
    result = ncalg.bipoly_text(ncalg.dquotient(poly, args.index))
    doc = {"poly": args.poly, "index": args.index, "result": result}
    _render(args, doc, [doc], [result])
    return 0


# --- check ----------------------------------------------------------------------


def _resolve_ids(token: str):
    if token == "all":
        return list(theorems.CHECK_IDS)
    if token == "deterministic":
        return [i for i in theorems.CHECK_IDS if i in theorems.DETERMINISTIC_IDS]
    if token == "statistical":
        return [i for i in theorems.CHECK_IDS if i not in theorems.DETERMINISTIC_IDS]
    ids = [t.strip() for t in token.split(",") if t.strip()]
    if not ids:
        raise UsageError(f"no check id in {token!r}")
    for i in ids:
        if i not in theorems.CHECK_IDS:
            raise UsageError(
                f"unknown check id {i!r}; available: {', '.join(theorems.CHECK_IDS)}"
            )
    return ids


def _cmd_check(args) -> int:
    ids = _resolve_ids(args.id)
    cfg = _load_json(args.config, "config") if args.config else {}
    if not isinstance(cfg, dict):
        raise UsageError(f"config must be a JSON object, not {type(cfg).__name__}")
    # flags win over the config file; threads defaults to every core (0)
    cfg = {"threads": 0, **cfg, **_given_sweep(args)}
    theorems._mc_cfg(cfg)  # every bad setting exits 2 before any check runs

    reports = [theorems.check(i, **cfg) for i in ids]
    det = [r for r in reports if not r.statistical]
    det_fail = not all(r.passed for r in det)

    table = [
        {"id": r.id, "relation": r.relation, "lhs": float(r.lhs), "rhs": float(r.rhs),
         "tolerance": float(r.tolerance), "passed": r.passed, "statistical": r.statistical}
        for r in reports
    ]
    lines = [theorems.report_text(r) for r in reports]
    if det:
        lines.append(f"deterministic gate: {'FAIL' if det_fail else 'PASS'}")
    _render(args, [asdict(r) for r in reports], table, lines)
    return 3 if det_fail else 0


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freelab",
        description="microstate entropy laboratory",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, sweep=False):
        """The sweep flags, or a --seed that changes nothing; then --format and --out."""
        if sweep:
            for field, flag, type_, help_ in _SWEEP_FLAGS:
                p.add_argument(flag, dest=field, type=type_, help=help_,
                               metavar=flag[2:].upper().replace("-", "_"))  # K, not K_LIST
        else:
            p.add_argument("--seed", type=int, default=0,
                           help="accepted for uniformity; this command is deterministic")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("chi-single", help="one-variable entropy of a measure file")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("--field", default=None,
                   help="also report the change-of-variables correction for this field")
    common(p)

    p = sub.add_parser("chi-mc", help="Monte Carlo microstate sweep")
    p.add_argument("--spec", required=True, help="tracial specification JSON file")
    common(p, sweep=True)

    p = sub.add_parser("dq", help="difference quotient of a polynomial")
    p.add_argument("poly", help="polynomial text, e.g. '0.5 - t2 + 2 t1 t2'")
    p.add_argument("index", type=int, help="variable index i >= 1")
    common(p)

    p = sub.add_parser("check", help="run checks from the battery")
    p.add_argument("id", help="check id, comma list, or all|deterministic|statistical")
    p.add_argument("--config", default=None,
                   help="JSON file of settings over the registry's; the flags win over both")
    common(p, sweep=True)

    return ap


_DISPATCH = {
    "chi-single": _cmd_chi_single,
    "chi-mc": _cmd_chi_mc,
    "dq": _cmd_dq,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.out:
            _check_out(args.out)
        return _DISPATCH[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ms.ProblemsError as e:
        problems = "".join(f"\n  - {p}" for p in e.problems)
        print(f"error: {e.heading}:{problems}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:  # a failed computation, such as an overflowing moment
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
