"""Command-line front end: one-variable entropies, microstate sweeps,
difference quotients, and the check battery.

Exit codes: 0 success (and every requested deterministic check passed),
1 computation failure, 2 usage error, 3 deterministic check failed.
Every command is byte-reproducible for fixed flags and seed.
"""

import argparse
import csv
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


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}")
    except json.JSONDecodeError as e:
        raise UsageError(
            f"{what} parse failure at line {e.lineno}, column {e.colno}: {e.msg}"
        )


def _threads(arg):
    """0 means all cores; any other value is left to the caller's validator."""
    return (os.cpu_count() or 1) if ms._is_int(arg) and arg == 0 else arg


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
    chi = spectra.chi_single(mu)
    row = {"kind": mu.kind, "log_energy": energy, "chi_single": chi}
    lines = [
        f"measure kind: {mu.kind}",
        f"log_energy = {energy:.6f}",
        f"chi_single = {chi:.6f} (quadrature)",
    ]
    if args.field:
        f = _parse_field(args.field, _field_support(mu))
        row["cov_correction"] = spectra.cov_correction(mu, f)
        row["field"] = args.field
        lines.append(f"cov_correction[{args.field}] = {row['cov_correction']:.6f}")
    _render(args, row, [dict(sorted(row.items()))], lines)
    return 0


# --- chi-mc ---------------------------------------------------------------------


def _parse_k_list(text: str):
    try:
        ks = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad k list {text!r}; expected comma-separated integers")
    if not ks or ks != sorted(ks) or ks[0] < 1:
        raise UsageError("k list must be ascending positive integers")
    return ks


def _cmd_chi_mc(args) -> int:
    spec = ms.TracialSpec.from_dict(_load_json(args.spec, "specification"))
    ks = _parse_k_list(args.k)
    for flag, value, low in (
        ("samples", args.samples, 100), ("threads", args.threads, 0), ("y-pool", args.y_pool, 1),
    ):
        if value < low:
            raise UsageError(f"{flag} must be an integer >= {low}, not {value}")
    radius = args.radius if args.radius is not None else ms.suggested_radius(spec)
    try:
        params = ms.MicrostateParams(k=ks[0], l=args.l, eps=args.eps, radius=radius)
    except ValueError as e:
        raise UsageError(str(e))
    est = ms.estimate_chi(
        spec, params, ks, nsamples=args.samples, seed=args.seed,
        threads=_threads(args.threads), y_pool=args.y_pool,
    )

    per_k, lines = [], []
    for pt in est.per_k:
        stderr = pt.stderr * pt.k * pt.k
        per_k.append(
            {"k": pt.k, "l": args.l, "eps": args.eps, "R": radius, "N": args.samples,
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
        "l": args.l,
        "eps": args.eps,
        "radius": radius,
        "samples_per_k": args.samples,
        "seed": args.seed,
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
    # flags win over the config file
    if args.k is not None:
        cfg["k_list"] = _parse_k_list(args.k)
    for key, val in (
        ("nsamples", args.samples), ("l", args.l), ("eps", args.eps),
        ("radius", args.radius), ("seed", args.seed), ("y_pool", args.y_pool),
        ("threads", args.threads),
    ):
        if val is not None:
            cfg[key] = val
    cfg["threads"] = _threads(cfg.get("threads", 0))
    try:
        theorems._mc_cfg(cfg)
    except ValueError as e:
        raise UsageError(str(e))

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

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("chi-single", help="one-variable entropy of a measure file")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("--field", default=None,
                   help="also report the change-of-variables correction for this field")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for uniformity; this command is deterministic")
    common(p)

    p = sub.add_parser("chi-mc", help="Monte Carlo microstate sweep")
    p.add_argument("--spec", required=True, help="tracial specification JSON file")
    p.add_argument("--k", default="2,3,4,5", help="comma-separated ascending k sweep")
    p.add_argument("--l", type=int, default=4, help="word-length depth")
    p.add_argument("--eps", type=float, default=0.4, help="moment window half-width")
    p.add_argument("--radius", type=float, default=None,
                   help="operator-norm cutoff (default: derived from the moment targets)")
    p.add_argument("--samples", type=int, default=100_000, help="samples per k")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--y-pool", type=int, default=32, dest="y_pool",
                   help="candidate pool size for conditioned runs")
    p.add_argument("--threads", type=int, default=0, help="0 = all cores")
    common(p)

    p = sub.add_parser("dq", help="difference quotient of a polynomial")
    p.add_argument("poly", help="polynomial text, e.g. '0.5 - t2 + 2 t1 t2'")
    p.add_argument("index", type=int, help="variable index i >= 1")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for uniformity; this command is deterministic")
    common(p)

    p = sub.add_parser("check", help="run checks from the battery")
    p.add_argument("id", help="check id, comma list, or all|deterministic|statistical")
    p.add_argument("--config", default=None, help="JSON file with check configuration")
    p.add_argument("--k", default=None, help="comma-separated ascending k sweep")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--samples", type=int, default=None, help="samples per k")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--y-pool", type=int, default=None, dest="y_pool")
    p.add_argument("--threads", type=int, default=None, help="0 = all cores (default)")
    common(p)

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
        return _DISPATCH[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ms.SpecError as e:
        problems = "".join(f"\n  - {p}" for p in e.problems)
        print(f"error: invalid specification:{problems}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:  # SpecTooShallow is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
