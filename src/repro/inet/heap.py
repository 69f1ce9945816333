"""The run's one heap policy: the cycle collector stays paused.

No pipeline makes cyclic garbage, so a collector pass over the
read-only world frees nothing.  :func:`paused` (``with paused():`` or
``@paused()``) disables the collector, and is a no-op when it is
already off.  The outermost exit, also on an exception, moves what the
run kept into the oldest generation untraversed (``gc.freeze()`` then
``gc.unfreeze()``, skipped while a caller's freeze is open) and then
restores the state it found.  No other module of ``repro`` calls into
:mod:`gc` (DESIGN.md §11.1, "Heap discipline").
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["collect_dropped", "paused"]


@contextmanager
def paused() -> Iterator[None]:
    """Run the body with the cycle collector paused."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        gc.enable()


def collect_dropped() -> None:
    """Free a world a paused run dropped: a world is cyclic, so only a
    full collection frees it."""
    gc.collect()
