"""argparse ``type=`` converters for every ``repro`` command line:
stdlib-only, so :mod:`repro.cli` and the CLIs it mounts share them
without an import cycle.  A value no run can use exits 2 before
worldgen."""

from __future__ import annotations

import math
import os
from argparse import ArgumentTypeError
from typing import Callable

__all__ = ["at_least", "positive", "shard_count"]


def shard_count(value: str) -> int:
    """argparse ``type=`` for every ``--shards`` option: a positive
    worker count, or ``auto`` for the CPU count."""
    return (os.cpu_count() or 1) if value == "auto" else at_least(1)(value)


def at_least(minimum: int) -> Callable[[str], int]:
    """argparse ``type=`` for an integer count of at least ``minimum``,
    so a count that would make a gate vacuous is a usage error."""

    def parse(value: str) -> int:
        try:
            count = int(value)
        except ValueError:
            raise ArgumentTypeError(f"must be an integer, got {value!r}") from None
        if count < minimum:
            raise ArgumentTypeError(f"must be >= {minimum}, got {count}")
        return count

    return parse


def positive(value: str) -> float:
    """argparse ``type=`` for a positive, finite number (a scale, a
    duration, a rate), so a value no run can use fails before worldgen."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not 0 < number < math.inf:
        raise ArgumentTypeError(f"must be a positive finite number, got {value!r}")
    return number
