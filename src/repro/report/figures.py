"""Figure data containers and ASCII rendering.

Every reproduced figure is materialized as a :class:`Series` (per-year
lines, CDFs) or :class:`Distribution` (per-country bars), with an ASCII
renderer so benchmark output shows the *shape* — which is what the
reproduction is graded on — without plotting dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

__all__ = ["Series", "Distribution", "render_series", "render_bars", "cdf_points"]


@dataclass(frozen=True)
class Series:
    """An (x, y) series — yearly trends, CDFs."""

    name: str
    points: Tuple[Tuple[float, float], ...]

    @classmethod
    def from_mapping(cls, name: str, mapping: Mapping) -> "Series":
        return cls(
            name,
            tuple(sorted((float(k), float(v)) for k, v in mapping.items())),
        )


@dataclass(frozen=True)
class Distribution:
    """Labelled values — per-country bars, price distributions."""

    name: str
    values: Tuple[Tuple[str, float], ...]

    @classmethod
    def from_mapping(cls, name: str, mapping: Mapping) -> "Distribution":
        return cls(
            name,
            tuple(
                sorted(
                    ((str(k), float(v)) for k, v in mapping.items()),
                    key=lambda kv: -kv[1],
                )
            ),
        )

    def top(self, n: int) -> "Distribution":
        return Distribution(self.name, self.values[:n])


def cdf_points(histogram: Mapping[int, int]) -> Tuple[Tuple[float, float], ...]:
    """Turn a value→count histogram into CDF points."""
    total = sum(histogram.values())
    if total == 0:
        return ()
    points = []
    cumulative = 0
    for value in sorted(histogram):
        cumulative += histogram[value]
        points.append((float(value), cumulative / total))
    return tuple(points)


def _scaled_bar(value: float, maximum: float, width: int = 40) -> str:
    if maximum <= 0:
        return ""
    return "#" * max(1 if value > 0 else 0, round(value / maximum * width))


def render_series(
    series: Sequence[Series],
    title: str = "",
    y_format: str = "{:.0f}",
) -> str:
    """Render one or more series as aligned columns per x value."""
    xs: List[float] = sorted({x for s in series for x, _ in s.points})
    lines: List[str] = []
    if title:
        lines.append(title)
    header = ["x".rjust(8)] + [s.name.rjust(14) for s in series]
    lines.append(" ".join(header))
    lookup = [dict(s.points) for s in series]
    for x in xs:
        cells = [f"{x:8.0f}" if x == int(x) else f"{x:8.2f}"]
        for table in lookup:
            y = table.get(x)
            cells.append(
                (y_format.format(y) if y is not None else "-").rjust(14)
            )
        lines.append(" ".join(cells))
    return "\n".join(lines)


def render_bars(
    distribution: Distribution,
    title: str = "",
    limit: int = 20,
    value_format: str = "{:.1f}",
) -> str:
    """Horizontal ASCII bars, biggest first."""
    values = distribution.values[:limit]
    lines: List[str] = []
    if title:
        lines.append(title)
    if not values:
        lines.append("(empty)")
        return "\n".join(lines)
    maximum = max(v for _, v in values)
    label_width = max(len(label) for label, _ in values)
    for label, value in values:
        lines.append(
            f"{label.ljust(label_width)} {value_format.format(value).rjust(10)} "
            f"{_scaled_bar(value, maximum)}"
        )
    return "\n".join(lines)
