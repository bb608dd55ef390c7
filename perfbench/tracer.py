"""Outside-in tracing of freelab's layers, with no change to the package.

Installing a :class:`Tracer` replaces module attributes with timing
wrappers; uninstalling puts the originals back.  Calls inside the package
go through module attributes (``matcore.norms_leq(...)``, and a module's
own functions through its globals), so every call of a wrapped function
records a span: name, start, end, parent span, thread and operation.
Spans stay in memory; :func:`layer_metrics` reduces them when the run ends.
"""

import functools
import inspect
import itertools
import threading
import time
import types
from collections import defaultdict
from typing import NamedTuple, Optional

from checks import DETERMINISTIC_IDS

LAYERS = ("rng", "matcore", "microstates", "spectra", "ncalg", "theorems", "cli")

# Traced besides each module's public functions.  _run_chunks hands chunks
# to worker threads; tracing the work it hands out keeps worker time
# attributed to microstates rather than lost.
EXTRA = ("ncalg.NcJacobian.as_real_matrix", "microstates._run_chunks")
HANDOFF = "microstates._run_chunks"

# Counts recorded at the boundary, from the call's arguments and result.
COUNTERS = {
    "rng.words": lambda a, r: {"words": int(r.size)},
    "matcore.norms_leq": lambda a, r: {"mats": len(r)},
    "matcore.operator_norms": lambda a, r: {"mats": len(r)},
    "matcore.eigenvalues": lambda a, r: {"mats": 1},
    "microstates.estimate_volume": lambda a, r: {
        "k": a["p"].k, "samples": r.samples, "accepted": r.accepted,
        "log_volume": r.log_volume,
    },
    "microstates.y_candidates": lambda a, r: {"pool": a["pool"], "found": len(r)},
    "theorems.check": lambda a, r: {"id": a["check_id"]},
}


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    thread: int
    op: int
    name: str
    t0: float
    t1: float
    attrs: Optional[dict]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def public_targets(package) -> list:
    """Every public function defined in each layer module, plus EXTRA."""
    out = []
    for layer in LAYERS:
        mod = getattr(package, layer)
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
            ):
                out.append(f"{layer}.{name}")
    return out + list(EXTRA)


class Tracer:
    """Wraps the named attributes (``layer.attr`` or ``layer.Class.attr``)."""

    def __init__(self, package, targets):
        self.package = package
        self.targets = list(targets)
        self.spans = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        for target in self.targets:
            owner = self.package
            *path, attr = target.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # renamed or removed: the metrics it feeds read 0
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, target))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, parent=None):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter or name == HANDOFF else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            up = stack[-1] if stack else parent
            if name == HANDOFF:
                bound = sig.bind(*args, **kwargs)
                bound.arguments["work"] = self._wrap(
                    bound.arguments["work"], HANDOFF + ".work", parent=sid
                )
                args, kwargs = bound.args, bound.kwargs
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            attrs = counter(sig.bind(*args, **kwargs).arguments, result) if counter else None
            self.spans.append(
                Span(sid, up, threading.get_ident(), self.op, name, t0, t1, attrs)
            )
            return result

        return wrapper


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when the layer did no such work."""
    return num / den if den else 0.0


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer metrics: times and counts per traced operation, and ratios.

    busy_s is the wall time inside the outermost spans of a function (or
    layer), self_s the time in spans not covered by their child spans on
    the same thread.
    """
    by_id = {s.sid: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and p.thread == s.thread:
            child_time[p.sid] += s.dur

    def self_time(names):
        return sum(s.dur - child_time[s.sid] for s in spans if s.name in names)

    def busy(inside):
        """Wall time in spans for which inside(span) holds but not for the parent."""
        total = 0.0
        for s in spans:
            p = by_id.get(s.parent)
            if inside(s) and (p is None or not inside(p)):
                total += s.dur
        return total

    def named(*names):
        return lambda s: s.name in names

    def total(names, key):
        return sum(s.attrs[key] for s in spans if s.name in names)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    eig = ("matcore.operator_norms", "matcore.eigenvalues")
    volume = ("microstates.estimate_volume",)
    pool = ("microstates.y_candidates",)
    raw = {}
    for layer in LAYERS:
        names = {s.name for s in spans if s.layer == layer} - {HANDOFF}
        raw[f"{layer}.self_s"] = self_time(names)
    raw["rng.busy_s"] = busy(lambda s: s.layer == "rng")
    raw["rng.words"] = total(("rng.words",), "words")
    raw["matcore.sample.busy_s"] = self_time(("matcore.gue_stack", "matcore.ball_stack"))
    raw["matcore.from_coords.busy_s"] = busy(named("matcore.from_coords"))
    raw["matcore.norm_test.busy_s"] = busy(named("matcore.norms_leq"))
    raw["matcore.norm_test.mats"] = total(("matcore.norms_leq",), "mats")
    raw["matcore.eig.busy_s"] = busy(named(*eig))
    raw["matcore.eig.mats"] = sum(
        s.attrs["mats"] for s in spans
        if s.name in eig and getattr(by_id.get(s.parent), "name", None) not in eig
    )
    raw["microstates.wait_s"] = self_time((HANDOFF,))
    raw["microstates.estimate_volume.calls"] = calls(volume[0])
    raw["microstates.samples"] = total(volume, "samples")
    raw["microstates.y_candidates.busy_s"] = busy(named(*pool))
    for fn in ("log_energy", "cov_correction", "conjugate_variable", "pushforward"):
        raw[f"spectra.{fn}.busy_s"] = busy(named(f"spectra.{fn}"))
        raw[f"spectra.{fn}.calls"] = calls(f"spectra.{fn}")
    raw["ncalg.jacobian.busy_s"] = busy(named("ncalg.jacobian"))
    raw["ncalg.as_real_matrix.busy_s"] = busy(named("ncalg.NcJacobian.as_real_matrix"))
    raw["ncalg.logabs_functional.self_s"] = self_time(("ncalg.logabs_functional",))
    for cid in sorted(DETERMINISTIC_IDS):
        raw[f"theorems.{cid}.busy_s"] = sum(
            s.dur for s in spans if s.name == "theorems.check" and s.attrs["id"] == cid
        )

    per_op = max(n_ops, 1)
    m = {key: value / per_op for key, value in raw.items()}
    m["matcore.frob_hit_ratio"] = (
        1.0 - raw["matcore.eig.mats"] / raw["matcore.norm_test.mats"]
        if raw["matcore.norm_test.mats"] else 0.0
    )
    m["microstates.accept_ratio"] = _ratio(total(volume, "accepted"), raw["microstates.samples"])
    m["microstates.y_found_ratio"] = _ratio(total(pool, "found"), total(pool, "pool"))
    m["microstates.concurrency"] = _ratio(
        sum(s.dur for s in spans if s.name == HANDOFF + ".work"),
        sum(s.dur for s in spans if s.name == HANDOFF),
    )
    return m
