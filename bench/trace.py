"""Span tracing for the benchmark's traced trial.

:class:`Tracer` wraps one table of public callables (``SPANS``) with
span recorders at run time; nothing in ``src/`` changes.  Each call
records the callable, its start and end, and the open span that caused
it, in flat arrays kept in memory and written out once at exit.  Layer
numbers are *self* time (a span minus the part its child spans cover)
summed per layer metric, plus counters read at the same boundaries, so
the self times of all spans and ``unattributed_s`` add up to the trial.

Spans opened inside forked shard workers stay in the workers: worker
internals are opaque, and their counts come from ``runner.shard_stats``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Hook = Callable[[Dict[str, float], tuple, Any], None]
# (module, class or None for a module function, attribute,
#  self-time metric or None, call-count metric or None, counter hook)
Span = Tuple[str, Optional[str], str, Optional[str], Optional[str], Optional[Hook]]


def _world_addresses(counters, args, world) -> None:
    counters["worldgen.addresses"] += len(world.network.addresses())


def _prober_counts(counters, args, dataset) -> None:
    prober = args[0]
    counters["probe.queries"] += prober.queries_sent
    counters["probe.warm_queries"] += prober.warm_queries
    if prober.zone_cuts is not None:
        counters["probe.zone_cut_hits"] += prober.zone_cuts.hits
        counters["probe.zone_cut_misses"] += prober.zone_cuts.misses


def _cache_outcome(counters, args, answer) -> None:
    if answer.state in ("fresh", "negative"):
        counters["cache.hits"] += 1
    elif answer.is_stale:
        counters["cache.stale_hits"] += 1


SPANS: Tuple[Span, ...] = (
    ("repro.worldgen.generator", "WorldGenerator", "generate",
     "worldgen.generate_s", None, _world_addresses),
    ("repro.core.study", "GovernmentDnsStudy", "seeds",
     "study.targets_s", None, None),
    ("repro.core.study", "GovernmentDnsStudy", "targets",
     "study.targets_s", None, None),
    ("repro.core.probe", "ActiveProber", "probe_all",
     "probe.probe_all_s", None, _prober_counts),
    # The probe engine drains events one at a time (run_until_idle is
    # never on its path), so the event-loop boundary is run_next.
    ("repro.net.events", "EventScheduler", "run_next",
     "events.run_next_self_s", None, None),
    ("repro.net.network", "Network", "send",
     "net.send_self_s", "net.send_calls", None),
    ("repro.dns.server", "AuthoritativeServer", "handle_datagram",
     "server.handle_self_s", "server.handle_calls", None),
    ("repro.dns.resolver", "Resolver", "resolve",
     "resolver.resolve_self_s", "resolver.resolve_calls", None),
    ("repro.dns.cache", "ResolverCache", "lookup",
     "cache.lookup_self_s", "cache.lookup_calls", _cache_outcome),
    # deepest_enclosing is the zone-cut cache's lookup; get is its
    # per-ancestor step.
    ("repro.dns.cache", "ZoneCutCache", "deepest_enclosing",
     "zonecut.lookup_self_s", "zonecut.lookup_calls", None),
    ("repro.core.shard", "ProcessCampaignRunner", "collect",
     "shard.collect_s", None, None),
    ("repro.core.shard", "ProcessCampaignRunner", "merge",
     "shard.merge_s", None, None),
    ("repro.core.dataset", "MeasurementDataset", "merge",
     "dataset.merge_s", None, None),
    ("repro.core.dataset", "DatasetColumns", "build",
     "dataset.columns_build_s", None, None),
    ("repro.core.journal", None, "dataset_digest",
     "dataset.digest_s", None, None),
    ("repro.report.paperkit", None, "render_all",
     "report.render_self_s", None, None),
    ("repro.core.epoch", "EpochRunner", "bootstrap",
     "epoch.bootstrap_s", None, None),
    ("repro.core.epoch", "EpochRunner", "run_epoch",
     "epoch.run_epoch_self_s", None, None),
    ("repro.core.epoch", None, "advance_world",
     "epoch.advance_world_s", None, None),
    ("repro.pdns.change", "ChangeSensor", "feeds_for",
     "epoch.sensor_s", None, None),
    ("repro.core.longitudinal", "LongitudinalDataset", "append_epoch",
     "epoch.append_s", None, None),
    ("repro.core.longitudinal", "LongitudinalDataset", "columns_at",
     "epoch.columns_at_s", None, None),
    ("repro.serve.workload", "ClientWorkload", "generate",
     "serve.workload_s", None, None),
    ("repro.serve.service", "RecursiveService", "warm",
     "serve.warm_s", None, None),
    ("repro.serve.service", "RecursiveService", "run",
     "serve.run_s", None, None),
    # Inherited from Resolver: wrapped again on the subclass so serving
    # resolutions are counted apart (the inner Resolver span keeps the
    # time).  Must come after the Resolver entry.
    ("repro.serve.upstream", "HealthAwareResolver", "resolve",
     None, "serve.upstream_resolves", None),
    ("repro.report.serving", "ServingReport", "collect",
     "serve.report_s", None, None),
)

# Every public method (and the constructor) of each analysis class is
# wrapped, and their self times summed per class.
ANALYSES = (
    ("repro.core.replication", "PdnsReplicationAnalysis",
     "analysis.pdns_replication_s"),
    ("repro.core.replication", "ActiveReplicationAnalysis",
     "analysis.active_replication_s"),
    ("repro.core.diversity", "DiversityAnalysis", "analysis.diversity_s"),
    ("repro.core.centralization", "CentralizationAnalysis",
     "analysis.centralization_s"),
    ("repro.core.delegation", "DelegationAnalysis", "analysis.delegation_s"),
    ("repro.core.consistency", "ConsistencyAnalysis", "analysis.consistency_s"),
)

# Every per-layer metric a traced invocation reports, with its unit.
# A layer a workload never enters reports 0.
LAYER_METRICS: Dict[str, str] = {
    "worldgen.generate_s": "s",
    "worldgen.addresses": "count",
    "study.targets_s": "s",
    "study.targets": "count",
    "probe.probe_all_s": "s",
    "probe.queries": "count",
    "probe.warm_queries": "count",
    "probe.zone_cut_hit_ratio": "ratio",
    "probe.virtual_campaign_s": "virtual_s",
    "events.run_next_self_s": "s",
    "events.fired": "count",
    "net.send_self_s": "s",
    "net.send_calls": "count",
    "net.timeouts": "count",
    "net.datagrams_lost": "count",
    "net.datagrams_per_op": "datagrams/op",
    "server.handle_self_s": "s",
    "server.handle_calls": "count",
    "resolver.resolve_self_s": "s",
    "resolver.resolve_calls": "count",
    "cache.lookup_self_s": "s",
    "cache.lookup_calls": "count",
    "cache.hit_ratio": "ratio",
    "cache.stale_hits": "count",
    "zonecut.lookup_self_s": "s",
    "zonecut.lookup_calls": "count",
    "chaos.outage_drops": "count",
    "chaos.burst_losses": "count",
    "chaos.brownout_hits": "count",
    "chaos.rate_limit_refusals": "count",
    "shard.collect_s": "s",
    "shard.merge_s": "s",
    "shard.worker_queries": "count",
    "shard.warm_queries": "count",
    "dataset.digest_s": "s",
    "dataset.columns_build_s": "s",
    "dataset.merge_s": "s",
    **{metric: "s" for _, _, metric in ANALYSES},
    "report.render_self_s": "s",
    "epoch.bootstrap_s": "s",
    "epoch.run_epoch_self_s": "s",
    "epoch.advance_world_s": "s",
    "epoch.sensor_s": "s",
    "epoch.append_s": "s",
    "epoch.columns_at_s": "s",
    "epoch.probed_share": "ratio",
    "epoch.changed": "count",
    "epoch.steady_s": "s",
    "serve.workload_s": "s",
    "serve.warm_s": "s",
    "serve.run_s": "s",
    "serve.report_s": "s",
    "serve.upstream_resolves": "count",
    "serve.answers_per_s": "1/s",
    "serve.failed_share": "ratio",
    "serve.stale_share": "ratio",
    "serve.prefetches": "count",
    "serve.refreshes_run": "count",
    "serve.refreshes_abandoned": "count",
    "serve.latency_p50_ms": "virtual_ms",
    "serve.latency_p99_ms": "virtual_ms",
    "unattributed_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Records spans around the ``SPANS`` and ``ANALYSES`` callables."""

    def __init__(self) -> None:
        # Per wrapped callable: (qualified name, self-time metric, count
        # metric); each span stores an index into this table.
        self.kinds: List[Tuple[str, Optional[str], Optional[str]]] = []
        self.span_kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    def install(self) -> None:
        for module, owner, attribute, time_metric, count_metric, hook in SPANS:
            self._patch(module, owner, attribute, time_metric, count_metric, hook)
        for module, owner, metric in ANALYSES:
            cls = getattr(importlib.import_module(module), owner)
            for attribute, value in sorted(vars(cls).items()):
                public = not attribute.startswith("_") or attribute == "__init__"
                if public and inspect.isfunction(value):
                    self._patch(module, owner, attribute, metric, None, None)

    def _patch(self, module, owner_name, attribute, time_metric, count_metric, hook):
        owner = importlib.import_module(module)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        found = inspect.getattr_static(owner, attribute)
        rebind = None
        function = found
        if isinstance(found, (classmethod, staticmethod)):
            rebind, function = type(found), found.__func__
        if not inspect.isfunction(function) or inspect.isgeneratorfunction(function):
            raise TypeError(f"cannot trace {module}.{owner_name}.{attribute}")
        kind = len(self.kinds)
        self.kinds.append(
            (f"{owner_name or module}.{attribute}", time_metric, count_metric)
        )
        wrapper = self._wrap(function, kind, hook)
        setattr(owner, attribute, rebind(wrapper) if rebind else wrapper)

    def _wrap(self, function, kind: int, hook: Optional[Hook]):
        kinds, starts, ends = self.span_kind, self.start, self.end
        parents, stack = self.parent, self._stack
        counters, clock = self.counters, time.perf_counter

        @functools.wraps(function)
        def span(*args, **kwargs):
            index = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return span

    # ------------------------------------------------------------------
    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer self times, call counts and hook counters.

        ``wall_s`` is the traced trial's set-up plus run; what no
        top-level span covers is reported as ``unattributed_s``.
        """
        count = len(self.span_kind)
        covered_by_children = [0.0] * count
        top_level = 0.0
        for index in range(count):
            duration = self.end[index] - self.start[index]
            parent = self.parent[index]
            if parent >= 0:
                covered_by_children[parent] += duration
            else:
                top_level += duration
        metrics: Dict[str, float] = defaultdict(float)
        for index in range(count):
            _, time_metric, count_metric = self.kinds[self.span_kind[index]]
            if time_metric is not None:
                metrics[time_metric] += (
                    self.end[index] - self.start[index]
                ) - covered_by_children[index]
            if count_metric is not None:
                metrics[count_metric] += 1
        counters = self.counters
        for name in ("worldgen.addresses", "probe.queries", "probe.warm_queries",
                     "cache.stale_hits"):
            metrics[name] = counters[name]
        metrics["probe.zone_cut_hit_ratio"] = _ratio(
            counters["probe.zone_cut_hits"],
            counters["probe.zone_cut_hits"] + counters["probe.zone_cut_misses"],
        )
        metrics["cache.hit_ratio"] = _ratio(
            counters["cache.hits"], metrics["cache.lookup_calls"]
        )
        metrics["unattributed_s"] = wall_s - top_level
        metrics["trace.unattributed_share"] = metrics["unattributed_s"] / wall_s
        return dict(metrics)

    def write(self, path: str, header: Dict[str, Any], origin: float) -> None:
        """Write every span (times in seconds from ``origin``)."""
        payload = {
            **header,
            "kinds": [
                {"name": name, "self_metric": time_metric, "count_metric": count_metric}
                for name, time_metric, count_metric in self.kinds
            ],
            "fields": ["kind", "start_s", "end_s", "parent"],
            "spans": [
                [
                    self.span_kind[index],
                    round(self.start[index] - origin, 7),
                    round(self.end[index] - origin, 7),
                    self.parent[index],
                ]
                for index in range(len(self.span_kind))
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.write("\n")
