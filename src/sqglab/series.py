"""Time-series container and deterministic artifact writers.

Artifacts are byte-stable: floats are written with 17 significant digits
(full double precision, round-trip exact), keys are emitted in sorted order,
and nothing time-of-day-dependent is allowed in (wall-clock timing goes to a
sidecar log, never into the comparable artifacts).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "DiagnosticsSeries",
    "format_float",
    "emit_csv",
    "emit_json",
    "write_table",
]


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (bit round-trip exact)."""
    return f"{float(x):.17g}"


@dataclass
class DiagnosticsSeries:
    """Sampled scalar diagnostics: a strictly increasing time axis plus named columns.

    The column set is fixed by the first appended row; later rows must carry
    exactly the same keys.
    """

    meta: dict = field(default_factory=dict)
    times: list = field(default_factory=list)
    columns: dict = field(default_factory=dict)

    def append(self, t: float, row: Mapping[str, float]) -> None:
        t = float(t)
        if self.times and t <= self.times[-1]:
            raise ValueError(
                f"sample times must be strictly increasing: {t} after {self.times[-1]}"
            )
        if not self.times:
            for key in row:
                self.columns[str(key)] = []
        if set(row.keys()) != set(self.columns.keys()):
            raise ValueError(
                f"row keys {sorted(map(str, row))} do not match the fixed columns "
                f"{sorted(self.columns)}"
            )
        self.times.append(t)
        for key, value in row.items():
            self.columns[str(key)].append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def column(self, name: str) -> list:
        return self.columns[name]

    def add_column(self, name: str, values) -> None:
        """Attach a derived column (one value per existing sample)."""
        name = str(name)
        if name in self.columns or name == "t":
            raise ValueError(f"column {name!r} already exists")
        values = [float(v) for v in values]
        if len(values) != len(self.times):
            raise ValueError(
                f"column {name!r} has {len(values)} values for {len(self.times)} samples"
            )
        self.columns[name] = values


def emit_csv(series: DiagnosticsSeries, path) -> None:
    """Write a series as CSV with a ``# key = value`` metadata preamble."""
    rows = zip(series.times, *series.columns.values())
    write_table(path, ("t", *series.columns), rows, series.meta)


def write_table(path, names, rows, meta: Mapping | None = None) -> None:
    """Write a generic long-format CSV table with the standard preamble.

    ``rows`` is an iterable of tuples matching ``names``; floats are
    rendered at full precision, everything else via ``str``.
    """
    lines = []
    for key in sorted(meta or {}):
        lines.append(f"# {key} = {meta[key]}")
    lines.append(",".join(str(name) for name in names))
    for row in rows:
        if len(row) != len(names):
            raise ValueError(f"row {row!r} does not match columns {list(names)!r}")
        rendered = [
            format_float(v) if isinstance(v, float) else str(v) for v in row
        ]
        lines.append(",".join(rendered))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_json(payload: Mapping, path) -> None:
    """Write a JSON artifact with sorted keys (byte-stable)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
