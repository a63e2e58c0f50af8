"""Experiment harness: tables, formatting, and run plumbing.

Each experiment module exposes ``run(seeds=..., **size_params) ->
ExperimentTable`` (or a list of tables).  The paper under reproduction is
a vision paper with no tables of its own, so these tables *are* the
evaluation: each one operationalises a claim from the text (see
DESIGN.md for the claim-to-experiment index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


@dataclass
class ExperimentTable:
    """One results table: ordered columns, row dicts, provenance notes."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values: Any) -> None:
        """Append a row; keys must be a subset of the declared columns."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns: {sorted(unknown)}")
        # Store a copy: a caller reusing (and mutating) its kwargs dict
        # must not be able to corrupt already-recorded rows.
        self.rows.append(dict(values))

    def append_note(self, note: str) -> None:
        """Add one note line, preserving any existing notes."""
        self.notes = f"{self.notes}; {note}" if self.notes else note

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(name)
        return [row.get(name) for row in self.rows]

    def row_by(self, key_column: str, key: Any) -> Dict[str, Any]:
        """First row whose ``key_column`` equals ``key``."""
        for row in self.rows:
            if row.get(key_column) == key:
                return row
        raise KeyError(f"no row with {key_column}={key!r}")

    def best_row(self, metric: str, maximise: bool = True) -> Dict[str, Any]:
        """Row with the best value of ``metric``."""
        scored = [r for r in self.rows
                  if isinstance(r.get(metric), (int, float))
                  and not math.isnan(r[metric])]
        if not scored:
            raise ValueError(f"no numeric values in column {metric!r}")
        return (max if maximise else min)(scored, key=lambda r: r[metric])


def _format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == 0 or 0.001 <= abs(value) < 10000:
            return f"{value:.3f}"
        return f"{value:.2e}"
    return str(value)


def format_table(table: ExperimentTable) -> str:
    """Render a table as aligned monospace text."""
    header = [table.columns]
    body = [[_format_cell(row.get(c)) for c in table.columns]
            for row in table.rows]
    widths = [max(len(line[i]) for line in header + body)
              for i in range(len(table.columns))]
    lines = [f"== {table.experiment_id}: {table.title} =="]
    lines.append("  ".join(c.ljust(w) for c, w in zip(table.columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row_cells in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row_cells, widths)))
    if table.notes:
        lines.append(f"note: {table.notes}")
    return "\n".join(lines)


def print_tables(tables: Sequence[ExperimentTable]) -> None:
    """Print every table, separated by blank lines."""
    for table in tables:
        print(format_table(table))
        print()


def to_markdown(table: ExperimentTable) -> str:
    """Render a table as GitHub-flavoured markdown."""
    lines = [f"## {table.experiment_id} — {table.title}", ""]
    lines.append("| " + " | ".join(table.columns) + " |")
    lines.append("|" + "|".join("---" for _ in table.columns) + "|")
    for row in table.rows:
        cells = [_format_cell(row.get(c)) for c in table.columns]
        lines.append("| " + " | ".join(cells) + " |")
    if table.notes:
        lines.append("")
        lines.append(f"*{table.notes}*")
    return "\n".join(lines)


def write_markdown_report(tables: Sequence[ExperimentTable], path: str,
                          title: str = "Experiment results") -> None:
    """Write every table to ``path`` as one markdown document."""
    sections = [f"# {title}", ""]
    for table in tables:
        sections.append(to_markdown(table))
        sections.append("")
    with open(path, "w") as handle:
        handle.write("\n".join(sections))

