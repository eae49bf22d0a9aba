"""Paper-pipeline benchmark: one workload per run, metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig4_surface --seed 2019 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached to
the program; ``--trace 1`` is a separate run that wraps the program's
layer entry points in spans and reports the per-layer metrics. Every run
checks each campaign against the standard path and prints, as the last
line of standard output, ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the metrics and why each workload exists.

This process only launches two children with the pinned environment:
one that trains or loads the golden network (``--phase prepare``), then
the one that measures (``--phase measure``). Training in its own process
keeps its memory out of the measured process's peak RSS.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(HERE, ".cache")

#: BLAS/OpenMP threads per process; processes never exceed the pool width
BLAS_THREADS = 1
#: string hashing orders sets and dicts, and with them the allocation
#: sequence that sets a run's peak RSS; a fixed seed makes it repeat
HASH_SEED = "0"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("fig4_surface", "fig3_layers", "fig2_pool")


def parse_args(argv: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("launch", "prepare", "measure"), default="launch",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pinned_environment() -> dict:
    """BLAS/OpenMP pool widths and the hash seed, set before numpy loads."""
    pinned = {variable: str(BLAS_THREADS) for variable in THREAD_VARIABLES}
    pinned["PYTHONHASHSEED"] = HASH_SEED
    return pinned


def launch(argv: list[str], pinned: dict) -> int:
    """Run the prepare child, then the measuring child; the first failure's code."""
    # a terminated launcher unwinds through subprocess.run, which kills
    # and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = {**os.environ, **pinned}
    command = [sys.executable, os.path.abspath(__file__), *argv]
    for phase in ("prepare", "measure"):
        code = subprocess.run([*command, "--phase", phase], env=env).returncode
        if code:
            return code
    return 0


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    pinned = pinned_environment()
    if args.phase == "launch":
        return launch(sys.argv[1:], pinned)
    sys.path.insert(0, SRC)
    import harness  # imports numpy and the program: threads are pinned by now

    if args.phase == "prepare":
        return harness.prepare(args, CACHE_DIR)
    return harness.run(args, pinned, BLAS_THREADS, CACHE_DIR, os.path.join(HERE, ".work"))


if __name__ == "__main__":
    sys.exit(main())
