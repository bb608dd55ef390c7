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

from . import microstates as ms, ncalg, spectra, theorems


class UsageError(Exception):
    """Bad flags or malformed input files; no partial output."""


def _jf(x):
    x = float(x)
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    if math.isnan(x):
        return "nan"
    return x


def _fmt6(x) -> str:
    x = float(x)
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    return f"{x:.6f}"


def _cell(x) -> str:
    """CSV cell: shortest round-trip float text, stable across runs."""
    if isinstance(x, float):
        if math.isinf(x):
            return "-inf" if x < 0 else "inf"
        return repr(x)
    return str(x)


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
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


def _threads(arg) -> int:
    if arg in (None, 0):
        return os.cpu_count() or 1
    return int(arg)


# --- chi-single -----------------------------------------------------------------


def _field_support(mu):
    if mu.is_atomic:
        locs = [a[0] for a in mu.atoms]
        a, b = min(locs), max(locs)
    else:
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
    row = {"kind": mu.kind, "log_energy": _jf(energy), "chi_single": _jf(chi)}
    if args.field:
        f = _parse_field(args.field, _field_support(mu))
        row["cov_correction"] = _jf(spectra.cov_correction(mu, f))
        row["field"] = args.field
    if args.format == "json":
        text = json.dumps(row, sort_keys=True) + "\n"
    elif args.format == "csv":
        cols = sorted(row)
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(cols)
        w.writerow([_cell(row[c]) if isinstance(row[c], float) else row[c] for c in cols])
        text = buf.getvalue()
    else:
        lines = [f"measure kind: {mu.kind}"]
        lines.append(f"log_energy = {_fmt6(energy)}")
        lines.append(f"chi_single = {_fmt6(chi)} (quadrature)")
        if args.field:
            lines.append(f"cov_correction[{args.field}] = {_fmt6(row['cov_correction'])}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


# --- chi-mc ---------------------------------------------------------------------


def _validate_spec_doc(doc: dict):
    """Collect every bad word/target before handing off to the loader."""
    problems = []
    if not isinstance(doc, dict):
        return ["specification document must be a JSON object"]
    n = doc.get("n")
    m = doc.get("m", 0)
    l_max = doc.get("l_max")
    if not isinstance(n, int) or n < 0:
        problems.append("field 'n' must be a nonnegative integer")
    if not isinstance(m, int) or m < 0:
        problems.append("field 'm' must be a nonnegative integer")
    if not isinstance(l_max, int) or l_max < 0:
        problems.append("field 'l_max' must be a nonnegative integer")
    if problems:
        return problems
    letters = n + m
    if letters < 1:
        problems.append("need at least one variable")
    if "generator" in doc:
        return problems
    targets = doc.get("targets", [])
    if not isinstance(targets, list):
        return problems + ["field 'targets' must be a list of {word, value} entries"]
    seen = {}
    for num, entry in enumerate(targets, start=1):
        label = f"targets[{num}]"
        if not isinstance(entry, dict) or "word" not in entry or "value" not in entry:
            problems.append(f"{label}: expected an object with 'word' and 'value'")
            continue
        raw = entry["word"]
        if not isinstance(raw, list) or not all(isinstance(i, int) for i in raw):
            problems.append(f"{label}: word must be a list of letter indices")
            continue
        word = tuple(raw)
        bad = False
        if any(i < 1 or i > letters for i in word):
            problems.append(f"{label}: word {list(word)} has a letter out of range 1..{letters}")
            bad = True
        if len(word) > l_max:
            problems.append(f"{label}: word {list(word)} is longer than l_max={l_max}")
            bad = True
        try:
            v = float(entry["value"])
        except (TypeError, ValueError):
            problems.append(f"{label}: value {entry['value']!r} is not a number")
            continue
        if bad:
            continue
        c = ms.canonical_word(word)
        if c in seen and abs(seen[c][1] - v) > ms._TARGET_TOL:
            same = seen[c][0] == word
            what = "repeated with a different value" if same else "a tracial symmetry conflict"
            problems.append(f"{label}: word {list(word)} is {what} ({seen[c][1]} vs {v})")
        seen[c] = (word, v)
    return problems


def _parse_k_list(text: str):
    try:
        ks = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad k list {text!r}; expected comma-separated integers")
    if not ks or ks != sorted(ks) or ks[0] < 1:
        raise UsageError("k list must be ascending positive integers")
    return ks


def _cmd_chi_mc(args) -> int:
    doc = _load_json(args.spec, "specification")
    problems = _validate_spec_doc(doc)
    if problems:
        raise UsageError(
            "invalid specification:\n" + "\n".join(f"  - {p}" for p in problems)
        )
    spec = ms.TracialSpec.from_dict(doc)
    ks = _parse_k_list(args.k)
    radius = args.radius if args.radius is not None else ms.suggested_radius(spec)
    params = ms.MicrostateParams(k=ks[0], l=args.l, eps=args.eps, radius=radius)
    threads = _threads(args.threads)
    if spec.m == 0:
        est = ms.estimate_chi(
            spec, params, ks, nsamples=args.samples, seed=args.seed, threads=threads
        )
    else:
        est = ms.estimate_chi_relative(
            spec, params, ks, y_pool=args.y_pool, nsamples=args.samples,
            seed=args.seed, threads=threads,
        )

    y_ids = {}
    if est.y_used:
        for part in re.split(r"; (?=k=\d+:)", est.y_used):
            head, _, rest = part.partition(":")
            if head.startswith("k="):
                y_ids[int(head[2:])] = rest

    rows = []
    for pt in est.per_k:
        rows.append(
            {
                "k": pt.k,
                "l": args.l,
                "eps": args.eps,
                "R": radius,
                "N": args.samples,
                "log_volume": pt.log_volume,
                "stderr": pt.stderr * pt.k * pt.k,
                "normalized_chi": pt.value,
                "y_id": y_ids.get(pt.k, ""),
            }
        )

    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        cols = ["k", "l", "eps", "R", "N", "log_volume", "stderr", "normalized_chi", "y_id"]
        w.writerow(cols)
        for r in rows:
            w.writerow([_cell(r[c]) for c in cols])
        text = buf.getvalue()
    elif args.format == "json":
        summary = {
            "extrapolated": _jf(est.extrapolated),
            "per_k": [
                {key: (_jf(v) if isinstance(v, float) else v) for key, v in r.items()}
                for r in rows
            ],
            "n": spec.n,
            "m": spec.m,
            "l": args.l,
            "eps": args.eps,
            "radius": radius,
            "samples_per_k": args.samples,
            "seed": args.seed,
            "y_used": est.y_used,
        }
        text = json.dumps(summary, sort_keys=True) + "\n"
    else:
        lines = []
        for r in rows:
            tag = f" y={r['y_id']}" if r["y_id"] else ""
            lines.append(
                f"k={r['k']}: chi={_fmt6(r['normalized_chi'])} "
                f"(log_volume={_fmt6(r['log_volume'])} +- {_fmt6(r['stderr'])}){tag}"
            )
        lines.append(f"extrapolated = {_fmt6(est.extrapolated)}")
        if est.y_used:
            lines.append(f"y candidates: {est.y_used}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
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
    if args.format == "json":
        text = json.dumps(
            {"poly": args.poly, "index": args.index, "result": result}, sort_keys=True
        ) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["poly", "index", "result"])
        w.writerow([args.poly, args.index, result])
        text = buf.getvalue()
    else:
        text = result + "\n"
    _emit(text, args.out)
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
    for i in ids:
        if i not in theorems.CHECK_IDS:
            raise UsageError(
                f"unknown check id {i!r}; available: {', '.join(theorems.CHECK_IDS)}"
            )
    return ids


def _cmd_check(args) -> int:
    ids = _resolve_ids(args.id)
    cfg = {}
    if args.config:
        cfg.update(_load_json(args.config, "config"))
    # flags win over the config file
    if args.k is not None:
        cfg["k_list"] = _parse_k_list(args.k)
    for key, val in (
        ("nsamples", args.samples), ("l", args.l), ("eps", args.eps),
        ("radius", args.radius), ("seed", args.seed), ("y_pool", args.y_pool),
    ):
        if val is not None:
            cfg[key] = val
    cfg["threads"] = _threads(args.threads)

    reports = [theorems.check(i, **cfg) for i in ids]
    det_fail = any(
        (not r.passed) and (r.id in theorems.DETERMINISTIC_IDS) for r in reports
    )

    if args.format == "json":
        text = json.dumps([r.to_dict() for r in reports], sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["id", "relation", "lhs", "rhs", "tolerance", "passed", "statistical"])
        for r in reports:
            w.writerow(
                [r.id, r.relation, _cell(float(r.lhs)), _cell(float(r.rhs)),
                 _cell(float(r.tolerance)), r.passed, r.statistical]
            )
        text = buf.getvalue()
    else:
        lines = [theorems.report_text(r) for r in reports]
        det = [r for r in reports if r.id in theorems.DETERMINISTIC_IDS]
        if det:
            gate = "PASS" if all(r.passed for r in det) else "FAIL"
            lines.append(f"deterministic gate: {gate}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
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
    p.add_argument("--threads", type=int, default=0, help="0 = all cores")
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
    except (ValueError, ms.SpecTooShallow) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
