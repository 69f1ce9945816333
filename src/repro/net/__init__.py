"""Simulated internetwork substrate: addresses, time, latency, delivery."""

from ..inet.address import BlockAllocator, IPv4Address, IPv4Prefix, parse_ipv4
from ..inet.clock import (
    SECONDS_PER_DAY,
    SimulatedClock,
    date_to_epoch,
    days_in_year,
    epoch_to_date,
    year_bounds,
)
from .chaos import (
    PROFILES as CHAOS_PROFILES,
    ChaosDecision,
    ChaosStats,
    FaultSchedule,
    LatencyBrownout,
    LossBurst,
    OutageWindow,
    RateLimitRule,
    build_profile,
)
from .events import CampaignAborted, EventScheduler, PendingExchange
from .latency import FixedLatency, LatencyModel, LogNormalLatency
from .network import (
    FunctionHost,
    Host,
    Network,
    NetworkError,
    NetworkStats,
    QueryTimeout,
)
from .resilience import BreakerState, CircuitBreaker

__all__ = [
    "BlockAllocator",
    "IPv4Address",
    "IPv4Prefix",
    "parse_ipv4",
    "CHAOS_PROFILES",
    "ChaosDecision",
    "ChaosStats",
    "FaultSchedule",
    "LatencyBrownout",
    "LossBurst",
    "OutageWindow",
    "RateLimitRule",
    "build_profile",
    "SECONDS_PER_DAY",
    "SimulatedClock",
    "date_to_epoch",
    "days_in_year",
    "epoch_to_date",
    "year_bounds",
    "CampaignAborted",
    "EventScheduler",
    "PendingExchange",
    "FixedLatency",
    "LatencyModel",
    "LogNormalLatency",
    "FunctionHost",
    "Host",
    "Network",
    "NetworkError",
    "NetworkStats",
    "QueryTimeout",
    "BreakerState",
    "CircuitBreaker",
]
