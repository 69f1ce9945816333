"""Presentation layer: text tables, ASCII figures, CSV/JSON export."""

from .disclosure import (
    DisclosurePackage,
    Finding,
    build_disclosures,
    render_package,
)
from .export import to_csv, to_json, write_csv, write_json
from .paperkit import ARTIFACTS, export_all, render_all
from .bench import PerfRecord, PerfReport
from .resilience import ResilienceReport
from .figures import Distribution, Series, cdf_points, render_bars, render_series
from .tables import format_count, format_percent, render_table

__all__ = [
    "DisclosurePackage",
    "Finding",
    "build_disclosures",
    "render_package",
    "ARTIFACTS",
    "export_all",
    "render_all",
    "PerfRecord",
    "PerfReport",
    "ResilienceReport",
    "to_csv",
    "to_json",
    "write_csv",
    "write_json",
    "Distribution",
    "Series",
    "cdf_points",
    "render_bars",
    "render_series",
    "format_count",
    "format_percent",
    "render_table",
]
