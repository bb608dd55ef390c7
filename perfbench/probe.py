"""Set-up probe: a fresh process that gets a workload's first operation ready.

It imports the CLI, parses the workload's commands and loads their specs,
pricing every word up to the sweep depth (this fills the lazy caches),
then prints ``ready``.  run.py times it from spawn to that line.

    python3 perfbench/probe.py WORKLOAD
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(workload: str) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from freelab import cli, microstates
    from workloads import GOLDEN_SEED, WORKLOADS

    parser = cli.build_parser()
    for cmd in WORKLOADS[workload]:
        args = parser.parse_args(cmd.with_seed(GOLDEN_SEED))
        if args.command == "chi-mc":
            spec = microstates.TracialSpec.load(os.path.join(ROOT, args.spec))
            for word in spec.required_words(args.l):
                spec.target(word)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
