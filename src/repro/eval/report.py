"""Generate a complete markdown results report.

``python -m repro.eval.report RESULTS.md`` evaluates the suite once and
writes every table and figure as a markdown document — the mechanised
version of EXPERIMENTS.md's measured columns, regenerable at any suite
scale or input length.
"""

from __future__ import annotations

import argparse
import pathlib
from typing import List, Optional, Sequence

from repro.eval.experiments import (
    DEFAULT_INPUT_LENGTH,
    evaluate_suite,
    registry,
)
from repro.eval.runner import TITLES
from repro.eval.tables import format_cell


def rows_to_markdown(rows: Sequence[Sequence]) -> str:
    """Render experiment rows as a GitHub-flavoured markdown table."""
    if not rows:
        return ""
    lines = []
    header = [format_cell(cell) for cell in rows[0]]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows[1:]:
        lines.append(
            "| " + " | ".join(format_cell(cell) for cell in row) + " |"
        )
    return "\n".join(lines)


def generate_report(
    *,
    input_length: int = DEFAULT_INPUT_LENGTH,
    seed: int = 1,
    scale: float = 1.0,
    experiments: Optional[List[str]] = None,
) -> str:
    """Build the full markdown report as a string."""
    cache: List = []

    def evaluations():
        if not cache:
            cache.extend(
                evaluate_suite(
                    input_length=input_length, seed=seed, scale=scale
                )
            )
        return cache

    runners = registry(evaluations)
    wanted = experiments or list(TITLES)
    sections = [
        "# Cache Automaton — measured results",
        "",
        f"Configuration: suite scale {scale}, {input_length}-symbol streams, "
        f"seed {seed}.",
        "",
    ]
    for name in wanted:
        sections.append(f"## {TITLES[name]}")
        sections.append("")
        sections.append(rows_to_markdown(runners[name]()))
        sections.append("")
    return "\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", type=pathlib.Path)
    parser.add_argument("--input-length", type=int, default=DEFAULT_INPUT_LENGTH)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--experiments", nargs="*", default=None, choices=list(TITLES)
    )
    arguments = parser.parse_args(argv)
    report = generate_report(
        input_length=arguments.input_length,
        seed=arguments.seed,
        scale=arguments.scale,
        experiments=arguments.experiments,
    )
    arguments.output.write_text(report, encoding="utf-8")
    print(f"wrote {arguments.output} ({len(report.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
