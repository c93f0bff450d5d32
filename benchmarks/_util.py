"""Shared helpers for the benchmark harness.

Every bench reproduces one table or figure of the dissertation: it runs
the workload, prints the reproduced rows/series (visible with ``-s``),
and persists them under ``benchmarks/output/`` so the artifacts survive
the run.  A reduced ``*_SMOKE=1`` run persists under the git-ignored
``benchmarks/output/smoke/`` instead, so it never overwrites the
tracked full-mode artifacts.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")
if any(
    name.endswith("_SMOKE") and value == "1" for name, value in os.environ.items()
):
    OUTPUT_DIR = os.path.join(OUTPUT_DIR, "smoke")


def emit(artifact: str, text: str) -> None:
    """Print a reproduced artifact and persist it to disk."""
    banner = f"\n===== {artifact} ====="
    print(banner)
    print(text)
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    safe = artifact.replace(" ", "_").replace("/", "-")
    with open(os.path.join(OUTPUT_DIR, f"{safe}.txt"), "w") as handle:
        handle.write(text + "\n")


def format_rows(rows: Iterable[Mapping[str, object]]) -> str:
    """Render dict rows as an aligned text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    columns = list(rows[0])
    widths = {
        column: max(len(str(column)), *(len(_fmt(row[column])) for row in rows))
        for column in columns
    }
    lines = ["  ".join(str(c).ljust(widths[c]) for c in columns)]
    for row in rows:
        lines.append("  ".join(_fmt(row[c]).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_series(series: Iterable[tuple[object, object]], header: str) -> str:
    """Render an (x, y) series as two aligned columns."""
    lines = [header]
    for x, y in series:
        lines.append(f"{_fmt(x):>12s}  {_fmt(y)}")
    return "\n".join(lines)
