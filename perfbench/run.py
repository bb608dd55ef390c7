"""freelab benchmark: CLI workloads run in process by one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

Each run measures set-up in fresh processes, then repeats the workload's
round of commands until S seconds have passed; the next command starts
when the previous one returns.  The first round runs at a fixed seed, is
compared with golden.json and also warms the caches, so it counts towards
fail_ratio but not towards any time.  The seeds of later rounds derive
from --seed.  Every output is checked (checks.py); the last stdout line is
one JSON object with the metrics.

End-to-end metrics (--trace 0), per workload:
  setup_s        median over fresh processes of spawn-to-ready (probe.py),
                 started between rounds at even steps over the run
  op_p50_s       median wall seconds per CLI command, taken per command of
                 the round and averaged over the round's commands
  samples_per_s  Monte Carlo proposals (summed over k and Y-candidates) per
                 wall second; on battery, where no Monte Carlo runs, checks
                 evaluated per wall second
  peak_rss_mb    mean over commands of this process's peak resident
                 memory while the command ran
Printed with them, and reported among the per-layer metrics because they
can be zero or are too noisy to bound:
  tts_s          median of wall * (sigma / sigma*)^2, the time to the
                 accuracy sigma* of workloads.py, with sigma by the argmax
                 rule of theorems._sigma; on battery (deterministic) the wall
  fail_ratio, golden_mismatch

Per-layer metrics (--trace 1) come from rounds traced by wrapping the
package's public functions (tracer.py), alternating with untraced rounds
whose walls give trace.overhead_ratio.  Times and counts are means per
traced command.
"""

import os

# before numpy loads: --threads 2 must not also run two BLAS threads each
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics, public_targets  # noqa: E402
from workloads import GOLDEN_SEED, SEED_STRIDE, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 7

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB",
}


def load_freelab():
    """Import freelab from this checkout's src/, and from nowhere else."""
    if not (SRC / "freelab" / "cli.py").is_file():
        sys.exit("perfbench: src/freelab/cli.py not found; run from a freelab checkout")
    sys.path.insert(0, str(SRC))
    import freelab
    import freelab.cli  # noqa: F401  (imports every layer module)

    if Path(freelab.__file__).resolve().parent != SRC / "freelab":
        sys.exit(f"perfbench: imported freelab from {freelab.__file__}, not {SRC}")
    return freelab


@dataclass
class Op:
    cmd: object
    argv: list
    rc: object
    stdout: str
    wall: float
    volumes: list  # counters of each estimate_volume call
    traced: bool = False
    rss_mb: float = float("nan")
    problems: list = field(default_factory=list)
    sigma: float = float("nan")

    @property
    def work(self) -> int:
        """Proposals drawn, or checks evaluated on the battery."""
        if self.cmd.sigma_target is None:
            return 0 if self.problems else len(json.loads(self.stdout))
        return sum(v["samples"] for v in self.volumes)

    @property
    def tts(self) -> float:
        if self.cmd.sigma_target is None:
            return self.wall
        return self.wall * (self.sigma / self.cmd.sigma_target) ** 2


class PeakRss:
    """Peak resident memory of this process while one command runs.

    ru_maxrss only grows, so over a run it reads the one command whose
    worker threads happened to peak together; polling /proc/self/statm
    gives each command its own peak.  Those peaks fall in two groups (the
    threads' peaks apart or together), so their mean is steadier than
    their median.
    """

    PERIOD_S = 0.002

    def __init__(self):
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20
        self._peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _rss(self) -> int:
        # pread: the poller and the main thread share no file offset
        return int(os.pread(self._statm, 256, 0).split()[1])

    def _poll(self):
        while not self._stop.wait(self.PERIOD_S):
            with self._lock:
                self._peak = max(self._peak, self._rss())

    def __enter__(self):
        self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.close(self._statm)

    def reset(self):
        with self._lock:
            self._peak = self._rss()

    def peak_mb(self) -> float:
        with self._lock:
            return max(self._peak, self._rss()) * self._page_mb


def run_op(freelab, tr, cmd, seed: int, index: int, rss=None) -> Op:
    """Run one CLI command in process under tracer tr and check its output."""
    argv = cmd.with_seed(seed)
    tr.op = index
    first = len(tr.spans)
    buf = io.StringIO()
    if rss is not None:
        rss.reset()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = freelab.cli.main(argv)
    except Exception as e:  # a crash is one failed operation; the loop goes on
        traceback.print_exc()
        rc = f"exception {type(e).__name__}"
    wall = time.perf_counter() - t0
    volumes = [s.attrs for s in tr.spans[first:] if s.name == "microstates.estimate_volume"]
    op = Op(cmd, argv, rc, buf.getvalue(), wall, volumes)
    if rss is not None:
        op.rss_mb = rss.peak_mb()
    op.problems = checks.failures(cmd, rc, op.stdout)
    if rc == 0 and cmd.sigma_target is not None:
        try:
            op.sigma = checks.sigma(json.loads(op.stdout))
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
            pass  # already counted as a failure; tts_s skips the nan
    for p in op.problems:
        print(f"FAILED {' '.join(argv)}: {p}", file=sys.stderr)
    return op


def golden_record(op: Op) -> dict:
    return {
        "argv": op.argv,
        "sha256": hashlib.sha256(op.stdout.encode()).hexdigest(),
        "volumes": [[v["k"], v["accepted"], repr(v["log_volume"])] for v in op.volumes],
    }


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh process to its first operation being ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def machine_context() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "git_sha": sha,
    }


def source_lines() -> dict:
    return {
        f"{layer}.lines": len((SRC / "freelab" / f"{layer}.py").read_text().splitlines())
        for layer in LAYERS
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "concurrency")):
        return "ratio"
    if name.endswith(".lines"):
        return "lines"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def per_command_median(ops) -> float:
    """Median wall per command of the round, averaged over the round's commands.

    A round can mix commands of different cost; one median over all of
    them would fall between the slowest cheap and fastest dear command.
    """
    walls = {}
    for op in ops:
        walls.setdefault(op.cmd, []).append(op.wall)
    return statistics.fmean(statistics.median(w) for w in walls.values())


def per_layer(spans, traced, untraced, counts: dict) -> dict:
    """Per-layer metrics of the traced commands, plus run-level counts."""
    metrics = layer_metrics(spans, len(traced))
    metrics["cli.bytes_out"] = statistics.fmean(len(op.stdout.encode()) for op in traced)
    metrics["trace.overhead_ratio"] = (
        per_command_median(traced) / per_command_median(untraced) - 1.0
    )
    metrics.update(counts)
    metrics.update(source_lines())
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    freelab = load_freelab()
    os.chdir(ROOT)
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print("context: " + json.dumps(machine_context(), sort_keys=True))

    counting = Tracer(freelab, ["microstates.estimate_volume"])
    full = Tracer(freelab, public_targets(freelab))
    # Closed loop over whole rounds.  Round 0 runs at the golden seed and
    # re-checks golden.json; later seeds derive from --seed.  With --trace 1
    # odd rounds are traced, so traced and untraced walls come from one run.
    # Round 0 is untimed, so at least one more untraced round must run.
    # Set-up probes run between rounds, spread evenly over the run, so that
    # their median sees the machine at the same times as the rounds do.
    ops, setup = [], []
    with PeakRss() as rss:
        start = time.perf_counter()
        deadline = start + seconds
        rnd = 0
        while True:
            while (
                len(setup) < SETUP_PROBES
                and time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES
            ):
                setup.append(probe_setup(workload))
            tr = full if trace and rnd % 2 == 1 else counting
            with tr:
                for cmd in WORKLOADS[workload]:
                    i = len(ops)
                    op_seed = GOLDEN_SEED if rnd == 0 else seed * SEED_STRIDE + i
                    op = run_op(freelab, tr, cmd, op_seed, i, rss)
                    op.traced = tr is full
                    ops.append(op)
                    print(
                        f"op {i} seed {op_seed} wall {op.wall:.4f} s sigma {op.sigma:.5g} "
                        f"work {op.work}{' traced' if op.traced else ''}"
                    )
            rnd += 1
            if time.perf_counter() >= deadline and rnd >= (3 if trace else 2):
                break
    setup += [probe_setup(workload) for _ in range(SETUP_PROBES - len(setup))]

    golden_ops = ops[: len(WORKLOADS[workload])]
    expected = json.loads(GOLDEN.read_text()).get(workload, []) if GOLDEN.is_file() else []
    mismatch = sum(
        golden_record(op) != (expected[j] if j < len(expected) else None)
        for j, op in enumerate(golden_ops)
    )
    failed = sum(1 for op in ops if op.problems)
    fail_ratio = failed / len(ops)
    untraced = [op for op in ops[len(golden_ops):] if not op.traced]
    wall = sum(op.wall for op in untraced)
    work = sum(op.work for op in untraced)
    e2e = {
        "setup_s": statistics.median(setup),
        "op_p50_s": per_command_median(untraced),
        "samples_per_s": work / wall,
        "peak_rss_mb": statistics.fmean(op.rss_mb for op in untraced),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "op_p50_s": f"{len(untraced)} commands, {len(golden_ops)} per round",
        "samples_per_s": f"{work} over {wall:.3f} s",
        "peak_rss_mb": f"mean of {len(untraced)} commands",
    }
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]} ({notes[name]})")
    timed = [op.tts for op in untraced if math.isfinite(op.tts)]
    tts = statistics.median(timed) if timed else 0.0
    print(f"tts_s = {tts:.6g} s (median of {len(timed)} commands)")
    print(f"fail_ratio = {fail_ratio:.6g} ({failed} of {len(ops)} commands failed)")
    print(f"golden_mismatch = {mismatch} (of {len(golden_ops)} golden commands, seed {GOLDEN_SEED})")

    if trace:
        metrics = per_layer(full.spans, [op for op in ops if op.traced], untraced, {
            "tts_s": tts,
            "golden_mismatch": mismatch,
            "fail_ratio": fail_ratio,
        })
        for name in sorted(metrics):
            print(f"{name} = {metrics[name]:.6g} {unit_of(name)}")
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics, units = e2e, END_TO_END_UNITS

    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def record_golden() -> None:
    """Write golden.json from the golden round of every workload."""
    freelab = load_freelab()
    os.chdir(ROOT)
    counting = Tracer(freelab, ["microstates.estimate_volume"])
    out = {}
    with counting:
        for name, commands in WORKLOADS.items():
            # failed outputs are recorded too: the digest pins the outputs,
            # whether correct or not, and fail_ratio reports the failures
            ops = [run_op(freelab, counting, cmd, GOLDEN_SEED, -1) for cmd in commands]
            out[name] = [golden_record(op) for op in ops]
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
