"""Plain-text table rendering for experiment output.

Every experiment returns an :class:`ExperimentTable` — a titled list of rows —
so the runner, examples, and EXPERIMENTS.md all print the same artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

Cell = Union[str, int, float]


def _format_cell(value: Cell) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


@dataclass
class ExperimentTable:
    """A titled table of experiment rows."""

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[Sequence[Cell]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Cell) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Cell]:
        """All values of one column (for assertions in the tier-1 tests)."""
        index = list(self.columns).index(name)
        return [row[index] for row in self.rows]

    def as_dicts(self) -> List[Dict[str, Cell]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def to_csv(self) -> str:
        """A CSV rendering (header row + data rows) for downstream plotting."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_format_cell(value) for value in row])
        return buffer.getvalue()

    def render(self) -> str:
        """A fixed-width ASCII rendering."""
        header = [str(column) for column in self.columns]
        body = [[_format_cell(value) for value in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def render_all(tables: Sequence[ExperimentTable]) -> str:
    """Concatenate several tables with blank-line separators."""
    return "\n\n".join(table.render() for table in tables)
