"""The benchmark's workloads: fixed specs, explicit flags, seeds from --seed.

Every command passes each parameter the result depends on (radius,
threads, samples, pool, depth, window, format), so a change of a CLI
default cannot change what a workload measures.  In particular the
radius stays 4: with a derived default of 6 for semicircle factors no
k=16 matrix would need an eigen-solve (its Frobenius norm is about 4).
"""

from dataclasses import dataclass
from typing import Optional, Tuple

# Per-operation seeds: operation i of a run with benchmark seed s uses
# s * SEED_STRIDE + i, so runs with different seeds never share one ...
SEED_STRIDE = 100_000
# ... except the first round, which uses this fixed seed so that every run
# re-checks the outputs recorded in golden.json.
GOLDEN_SEED = 0


def _sweep(spec, ks, samples, threads):
    return (
        "chi-mc", "--spec", f"perfbench/specs/{spec}.json", "--k", ks,
        "--l", "4", "--eps", "0.4", "--radius", "4", "--samples", str(samples),
        "--y-pool", "8", "--threads", str(threads), "--format", "json",
    )


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload, without its --seed."""

    argv: Tuple[str, ...]
    # sigma* of tts_s: the standard error of the extrapolated value that
    # counts as the stated accuracy.  None for the deterministic battery.
    sigma_target: Optional[float] = None
    semicircle: bool = False  # variance-1 semicircle: the entropy bound applies
    conditioned: bool = False  # every k must name a winning Y-candidate

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]

    def with_seed(self, seed: int):
        return list(self.argv) + ["--seed", str(seed)]


# One round of commands per workload; the closed loop repeats rounds.  Why
# each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "sweep-small-k": (
        Command(_sweep("semicircle", "2,3,5,8", 40_000, 1), 0.001, semicircle=True),
        Command(_sweep("free_pair", "3,4,5", 20_000, 1), 0.006),
    ),
    # k=20 would cost 11 s per command at 8192 samples; fewer samples than
    # two 4096-sample chunks would leave the second thread idle
    "sweep-large-k": (
        Command(_sweep("semicircle", "12,14,16", 8192, 2), 0.002, semicircle=True),
    ),
    "conditioned": (
        Command(_sweep("conditioned", "3,4,5,6", 4096, 1), 0.0035, conditioned=True),
    ),
    "battery": (Command(("check", "deterministic", "--threads", "1", "--format", "json")),),
}
