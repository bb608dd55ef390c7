"""What counts as a failed operation: the one definition the benchmark uses.

An operation fails on a nonzero exit code, output that is not the JSON
the command documents, a non-finite value at a k that is expected to
accept, a semicircle sweep whose value at some k is above the entropy
bound of its moment window by more than 3 standard errors, an empty
Y-candidate at some k of a conditioned sweep, or a deterministic check
that did not pass.

The entropy bound.  A microstate of the variance-1 semicircle has
tr(x^2) <= 1 + eps, so the set lies in the Hilbert-Schmidt ball of
radius sqrt(k (1 + eps)) and its value at k is at most the ball's
(window_bound below).  As k grows that tends to (1/2)log(2 pi e (1 + eps)),
the T-MAXBOUND bound with the window's variance drift.  The plain
(1/2)log(2 pi e) is no bound at a fixed eps: the window holds laws of
higher free entropy than the semicircle (the uniform law of variance
1.15 has chi = 1.481), so a correct estimate crosses it once k is large.
"""

import json
import math

DETERMINISTIC_IDS = frozenset({"T-COV1", "T-COVGEN", "T-BROWN", "T-CONJ", "T-MAX", "T-BLOCK"})


def window_bound(k: int, eps: float, variance: float = 1.0) -> float:
    """(1/k^2) log vol + (1/2) log k of the HS ball Tr(x^2) <= k (variance + eps).

    The volume is that of a Euclidean ball of radius sqrt(k (variance + eps))
    in the k^2 real coordinates of a Hermitian matrix.
    """
    d = k * k
    log_vol = 0.5 * d * math.log(math.pi * k * (variance + eps)) - math.lgamma(0.5 * d + 1.0)
    return log_vol / d + 0.5 * math.log(k)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def sigma(doc: dict) -> float:
    """Standard error of the extrapolated value of a chi-mc JSON document.

    The rule of ``theorems._sigma``: the normalized stderr of the k whose
    value minus stderr is largest.  The CLI's ``stderr`` column is in
    log-volume units, so it is divided by k^2 here.
    """
    best = None
    for row in doc["per_k"]:
        if not _finite(row["normalized_chi"]):
            continue
        s = row["stderr"] / row["k"] ** 2
        score = row["normalized_chi"] - s
        if best is None or score > best[0]:
            best = (score, s)
    return best[1] if best else math.inf


def failures(cmd, rc, stdout: str) -> list:
    """Reasons the operation failed; empty when its output is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as e:
        return [f"unparseable JSON: {e}"]
    try:
        if cmd.argv[0] == "check":
            return _battery_failures(doc)
        return _sweep_failures(cmd, doc)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]


def _battery_failures(doc) -> list:
    ids = {r["id"] for r in doc}
    out = []
    if ids != DETERMINISTIC_IDS:
        out.append(f"reported checks {sorted(ids)} are not the deterministic tier")
    out += [f"deterministic gate: {r['id']} did not pass" for r in doc if r["passed"] is not True]
    return out


def _sweep_failures(cmd, doc) -> list:
    ks = [int(k) for k in cmd.flag("--k").split(",")]
    if [row["k"] for row in doc["per_k"]] != ks:
        return [f"per_k rows do not match --k {cmd.flag('--k')}"]
    out = []
    for row in doc["per_k"]:
        for key in ("log_volume", "stderr", "normalized_chi"):
            if not _finite(row[key]):
                out.append(f"k={row['k']}: non-finite {key} {row[key]!r}")
        if cmd.conditioned and not row["y_id"]:
            out.append(f"k={row['k']}: empty y_id")
    if not _finite(doc["extrapolated"]):
        out.append(f"non-finite extrapolated value {doc['extrapolated']!r}")
    if cmd.semicircle:
        eps = float(cmd.flag("--eps"))
        for row in doc["per_k"]:
            bound = window_bound(row["k"], eps)
            if row["normalized_chi"] > bound + 3.0 * row["stderr"] / row["k"] ** 2:
                out.append(
                    f"k={row['k']}: value {row['normalized_chi']} above the entropy "
                    f"bound {bound} of the eps={eps} window + 3 sigma"
                )
    return out
