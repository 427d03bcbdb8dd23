"""Small result containers shared by the experiment harnesses.

:class:`Series` is one line of a figure, :class:`TableResult` one table;
:func:`render_report`, :func:`summary_line` and :func:`format_series_table`
turn them into the text ``python -m repro.cli`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union


@dataclass
class Series:
    """A labelled (x, y) series, one line of a paper figure."""

    label: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)

    def append(self, x: float, y: float) -> None:
        """Add one point to the series."""
        self.x.append(float(x))
        self.y.append(float(y))

    def final(self) -> float:
        """The last y value (the figure's end-of-run number quoted in the text)."""
        if not self.y:
            raise ValueError(f"series {self.label!r} is empty")
        return self.y[-1]

    def __len__(self) -> int:
        return len(self.x)


@dataclass
class TableResult:
    """A labelled table: ordered column names plus rows of values."""

    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    #: How :meth:`format` renders floats unless told otherwise.
    float_format: str = "{:.3f}"

    @classmethod
    def from_rows(cls, title: str, columns: List[str],
                  rows: Iterable[Dict[str, object]]) -> "TableResult":
        """The table of ``columns`` picked from each row (rows may carry more keys)."""
        return cls(title, columns, [{column: row[column] for column in columns} for row in rows])

    def add_row(self, **values: object) -> None:
        """Append a row; every configured column must be provided."""
        missing = [column for column in self.columns if column not in values]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append({column: values[column] for column in self.columns})

    def format(self, float_format: Optional[str] = None) -> str:
        """Render the table as aligned plain text (used by benches and the CLI)."""
        float_format = float_format or self.float_format

        def render(value: object) -> str:
            if isinstance(value, bool):
                return str(value)
            if isinstance(value, float):
                return float_format.format(value)
            return str(value)

        rendered = [[render(row[column]) for column in self.columns] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(line[i]) for line in rendered)) if rendered else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(self.columns))
        separator = "  ".join("-" * widths[i] for i in range(len(self.columns)))
        lines = [self.title, header, separator]
        for line in rendered:
            lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(line))))
        return "\n".join(lines)

    def report(self) -> str:
        """What the CLI prints for a one-table result."""
        return self.format()


def render_report(*blocks: Union[TableResult, str]) -> str:
    """Tables (floats to two places) and lines of text joined by blank lines: a CLI report."""
    return "\n\n".join(block if isinstance(block, str) else block.format("{:,.2f}")
                       for block in blocks)


def summary_line(name: str, values: Dict[str, float]) -> str:
    """The ``"<name> summary: k=v, ..."`` line of a result's headline numbers."""
    return f"{name} summary: " + ", ".join(f"{key}={value:,.2f}" for key, value in values.items())


def format_series_table(series_list: Sequence[Series], x_label: str = "x") -> str:
    """Render several series sharing the same x grid as one text table."""
    if not series_list:
        return "(no series)"
    table = TableResult(
        title="",
        columns=[x_label, *[series.label for series in series_list]],
    )
    length = min(len(series) for series in series_list)
    for index in range(length):
        row = {x_label: series_list[0].x[index]}
        for series in series_list:
            row[series.label] = series.y[index]
        table.add_row(**row)
    return table.format()
