"""Measure the compiled kernel's block-sort lowering cost table.

The compiled kernel runs a group of equal-width block sorts either as one
gathered slab sorted in place, or lowered to Batcher odd-even merge-sort
comparator stages.  Which is faster depends on the width and on the group's
lane count (``blocks × batch``).  This script times both ways node-major, on
the kernel's own primitives, for every block width ``N**2`` of the library's
factors (N = 2..10) over a range of lane counts, and prints the ratio
lowered ÷ sorted (below 1: lowering wins) plus, per width, the smallest lane
count from which lowering wins at every batch size and every larger lane
count measured.  Those thresholds are
``repro.schedule.compiled._LOWER_FROM_LANES``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/lowering_cost.py
    PYTHONPATH=src python benchmarks/lowering_cost.py --batch 64 256 --repeat 15

Each cell is the median of ``--repeat`` timed passes over fresh random keys,
int64 and float64 summed; half of every group's rows sort descending.
"""

from __future__ import annotations

import argparse
import platform
from statistics import median
from time import perf_counter

import numpy as np

from repro.schedule.compiled import _apply_plan, _lowered_stages

WIDTHS = (4, 9, 16, 25, 36, 49, 64, 81, 100)
LANES = (256, 512, 1024, 2048, 4096, 8192, 16384, 32768)


def _time(plan: tuple, nodes: int, batch: int, repeat: int, rng: np.random.Generator) -> float:
    total = 0.0
    for dtype in ("int64", "float64"):
        samples = []
        for _ in range(repeat):
            if dtype == "int64":
                w = rng.integers(0, 1 << 40, size=(nodes, batch))
            else:
                w = rng.random((nodes, batch))
            t0 = perf_counter()
            _apply_plan(w, plan)
            samples.append(perf_counter() - t0)
        total += median(samples)
    return total


def measure(width: int, lanes: int, batch: int, repeat: int, seed: int) -> float:
    """Lowered ÷ sorted time for one group of ``lanes // batch`` blocks."""
    rng = np.random.default_rng(seed)
    blocks = max(lanes // batch, 1)
    nodes = rng.permutation(blocks * width).reshape(blocks, width).astype(np.intp)
    desc = np.arange(0, blocks, 2, dtype=np.intp)
    lowered = (tuple(_lowered_stages(nodes, desc)), ())
    sorted_ = ((), ((nodes, desc),))
    return _time(lowered, nodes.size, batch, repeat, rng) / _time(
        sorted_, nodes.size, batch, repeat, rng
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--batch", type=int, nargs="+", default=[1, 4, 16, 64, 256], help="lanes per node row"
    )
    parser.add_argument("--repeat", type=int, default=9, help="timed passes per cell")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print(
        f"# {platform.machine()}, Python {platform.python_version()}, NumPy {np.__version__}; "
        "lowered ÷ sorted time by lane count"
    )
    print("| width | batch | " + " | ".join(str(n) for n in LANES) + " |")
    print("|---" * (len(LANES) + 2) + "|")
    thresholds = {}
    for width in WIDTHS:
        wins = [True] * len(LANES)
        for batch in args.batch:
            ratios = [measure(width, n, batch, args.repeat, args.seed) for n in LANES]
            wins = [w and r < 1 for w, r in zip(wins, ratios)]
            cells = " | ".join(f"{r:.2f}" for r in ratios)
            print(f"| {width} | {batch} | {cells} |", flush=True)
        start = next((n for i, n in enumerate(LANES) if all(wins[i:])), None)
        if start is not None:
            thresholds[width] = start
    print(f"# lower from (wins at every batch and every larger lane count): {thresholds}")


if __name__ == "__main__":
    main()
