"""Retransmission spacing policy.

:class:`BackoffPolicy` is frozen configuration for the serving layer's
refresh-job retries (``ServeConfig.refresh_backoff`` in
:mod:`repro.serve.service`).  Callers pass their own seeded
:class:`random.Random` so jitter draws stay inside the caller's
deterministic event order.  The prober does not use it: it
retransmits at the timeout instant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["BackoffPolicy"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff between retransmissions.

    The delay before retransmission ``attempt + 1`` (``attempt`` counts
    completed, timed-out transmissions, starting at 1) is::

        min(cap, base * multiplier ** (attempt - 1)) * (1 + jitter * u)

    where ``u`` is drawn uniformly from ``[0, 1)`` on the caller's RNG.
    ``base = 0`` means no wait.
    """

    base: float = 0.0
    multiplier: float = 2.0
    cap: float = 30.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"backoff base must be >= 0, got {self.base}")
        if self.multiplier < 1.0:
            raise ValueError(
                f"backoff multiplier must be >= 1, got {self.multiplier}"
            )
        if self.cap < self.base:
            raise ValueError(
                f"backoff cap {self.cap} must be >= base {self.base}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Seconds to wait after the ``attempt``-th timed-out send."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        if self.base == 0.0:
            return 0.0
        spacing = min(self.cap, self.base * self.multiplier ** (attempt - 1))
        if self.jitter:
            spacing *= 1.0 + self.jitter * rng.random()
        return spacing
