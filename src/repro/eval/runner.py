"""Command-line experiment runner.

Usage::

    python -m repro.eval.runner                 # every table and figure
    python -m repro.eval.runner table3 fig10    # specific experiments
    python -m repro.eval.runner --input-length 50000 fig9a

One suite evaluation (compile + simulate all 20 benchmarks) is shared
across all requested experiments.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.eval.experiments import (
    BenchmarkEvaluation,
    DEFAULT_INPUT_LENGTH,
    evaluate_suite,
    registry,
)
from repro.eval.tables import format_table

#: Experiment id -> section title, in the order a full run prints them;
#: the ids are the keys of :func:`repro.eval.experiments.registry`.
TITLES = {
    "table1": "Table 1: benchmark characteristics",
    "table2": "Table 2: switch parameters",
    "table3": "Table 3: pipeline stage delays and operating frequency",
    "table4": "Table 4: impact of optimisations and parameters",
    "table5": "Table 5: comparison with related ASIC designs (Dotstar0.9)",
    "fig7": "Figure 7: throughput vs Micron's AP (Gb/s)",
    "fig8": "Figure 8: cache utilisation (MB)",
    "fig9a": "Figure 9a: energy per input symbol",
    "fig9b": "Figure 9b: average power",
    "fig10": "Figure 10: reachability vs frequency and area",
    "multistream": "Multi-stream scaling (Section 5.2: space -> speedup)",
    "headline": "Section 5.1 headline claims",
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiments", nargs="*", default=[],
        help=f"experiment ids (default: all of {', '.join(TITLES)})",
    )
    parser.add_argument(
        "--input-length", type=int, default=DEFAULT_INPUT_LENGTH,
        help="input stream length per benchmark (symbols)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="benchmark-suite size multiplier (1.0 = fast default)",
    )
    arguments = parser.parse_args(argv)

    cache: List[BenchmarkEvaluation] = []

    def evaluations() -> List[BenchmarkEvaluation]:
        if not cache:
            print(
                f"(evaluating the 20-benchmark suite over "
                f"{arguments.input_length}-symbol streams...)",
                file=sys.stderr,
            )
            cache.extend(
                evaluate_suite(
                    input_length=arguments.input_length,
                    seed=arguments.seed,
                    scale=arguments.scale,
                )
            )
        return cache

    experiments = registry(evaluations)
    wanted = arguments.experiments or list(TITLES)
    unknown = [name for name in wanted if name not in experiments]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    for name in wanted:
        print(f"\n== {TITLES[name]} ==")
        print(format_table(experiments[name]()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
