"""What the paper-artifact benches share: the scaled surveillance
workload and the report printer.

Every bench prints its result through :class:`Report`, so the output of
``pytest benchmarks/ --benchmark-only`` reads like the paper's tables,
and mirrors each report into ``benchmarks/reports/<name>.txt`` for
EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.devices.scenario import Scenario, build_temperature_surveillance

__all__ = ["Report", "format_table", "surveillance_workload"]

#: The alert threshold of every added room; hot sensors read 4 °C above it.
THRESHOLD = 28.0


def surveillance_workload(
    sensors: int, rooms: int, contacts: int = 5, hot_fraction: float = 0.2,
    with_queries: bool = True,
) -> Scenario:
    """The §5.2 temperature scenario plus ``sensors`` sensors spread over
    ``rooms`` rooms ``room00``…, each room watched by one of ``contacts``
    added managers; the first ``hot_fraction`` of the sensors run hot."""
    scenario = build_temperature_surveillance(with_queries=with_queries)
    names = [f"room{i:02d}" for i in range(rooms)]
    for i in range(sensors):
        base = THRESHOLD + 4.0 if i < int(sensors * hot_fraction) else THRESHOLD - 8.0
        scenario.add_sensor(f"sensor{i:03d}", names[i % rooms], base)
    managers = [f"manager{i:02d}" for i in range(contacts)]
    channels = ("email", "jabber", "sms")
    scenario.pems.tables.insert("contacts", [
        {"name": m, "address": f"{m}@example.org", "messenger": channels[i % 3]}
        for i, m in enumerate(managers)
    ])
    scenario.pems.tables.insert("surveillance", [
        {"name": managers[i % contacts], "location": room, "threshold": THRESHOLD}
        for i, room in enumerate(names)
    ])
    return scenario


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width text table with a separator line under the header."""
    text_rows = [[_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows else len(headers[i])
        for i in range(len(headers))
    ]

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    parts = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(r) for r in text_rows)
    return "\n".join(parts)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


class Report:
    """Accumulates a benchmark's textual report; prints and persists it."""

    def __init__(self, name: str, directory: str | Path | None = None):
        self.name = name
        self.directory = Path(directory or Path(__file__).parent / "reports")
        self._sections: list[str] = []

    def add(self, text: str) -> None:
        self._sections.append(text)

    def table(
        self,
        headers: Sequence[str],
        rows: Sequence[Sequence[object]],
        title: str | None = None,
    ) -> None:
        self.add(format_table(headers, rows, title))

    def render(self) -> str:
        header = f"== {self.name} =="
        return "\n\n".join([header, *self._sections])

    def emit(self) -> str:
        """Print the report and write it under ``benchmarks/reports/``."""
        text = self.render()
        print("\n" + text)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            (self.directory / f"{self.name}.txt").write_text(text + "\n", encoding="utf-8")
        except OSError:
            pass  # reports are best-effort; the printout is authoritative
        return text
