"""Plain-text rendering of experiment reports (aligned tables)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError


@dataclass
class Report:
    """One regenerated paper artifact: a titled table plus commentary."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[str]]
    notes: List[str] = field(default_factory=list)
    #: Raw numeric payload for programmatic consumers (tests, benches).
    data: Dict = field(default_factory=dict)

    def render(self) -> str:
        """Monospace rendering of the report."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(format_table(self.headers, self.rows))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render an aligned monospace table."""
    if not headers:
        raise ConfigurationError("a table needs headers")
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    def fmt(cells) -> str:
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
