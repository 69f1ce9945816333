"""The probe benchmark suite behind ``repro bench``: its record format
and its regression gate.

For each engine configuration, :func:`run_probe_record` runs the
campaign on an identically seeded world through
:func:`repro.core.shard.run_campaign` and records what it cost in the
deterministic currencies:

* **simulated seconds** — how long the campaign took in virtual time
  (what a real deployment of the methodology would experience);
* **queries** — how many queries the prober issued (measurement plus
  infrastructure traffic), the paper's politeness currency;

plus the dataset digest.  Records are written to a single JSON file
(``BENCH_probe.json``) so CI can archive one artifact per run.  Both
the CLI subcommand and ``benchmarks/test_perf_probe.py`` call this
module, so they measure exactly the same campaigns.

The committed ``BENCH_probe.json`` is a **regression gate**
(:func:`gate_suite`): every counter in :data:`GATED_FIELDS` of
a fresh run must match the committed record exactly.  Wall-clock time
is not recorded here; ``bench/run.py`` measures it from outside the
package, as paired medians with a traced per-layer trial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.epoch import EpochRunner
from ..core.journal import dataset_digest
from ..core.probe import ProbeConfig
from ..core.shard import government_suffixes, run_campaign
from ..core.study import GovernmentDnsStudy
from ..inet.heap import collect_dropped
from ..worldgen.churn import world_at_epoch
from .export import to_json, write_json

__all__ = [
    "BENCH_CONFIGS",
    "DEFAULT_SHARDS",
    "GATED_FIELDS",
    "LONGITUDINAL_EPOCHS",
    "LONGITUDINAL_LABELS",
    "PerfRecord",
    "PerfReport",
    "PerfSuite",
    "gate_report",
    "gate_suite",
    "load_report_payload",
    "run_longitudinal_record",
    "run_probe_bench",
    "run_probe_record",
    "run_probe_suite",
    "scale_payloads",
]

# The sharded record is committed at a fixed K: its network-query total
# depends on K (each worker warms its own cache), so the CI gate needs
# one canonical shard count rather than "however many cores the runner
# had".
DEFAULT_SHARDS = 4

BENCH_CONFIGS: Dict[str, Dict[str, object]] = {
    "serial": {"max_in_flight": 1, "zone_cut_caching": False},
    "concurrent": {"max_in_flight": 64, "zone_cut_caching": True},
    "sharded": {"max_in_flight": 64, "zone_cut_caching": True},
}

# The longitudinal epoch suite: both labels run the same churn sequence
# on identically-seeded worlds with the concurrent engine — the *full*
# label re-probes the whole universe each epoch (the naive baseline),
# the *incremental* label probes only what the change sensor implicates
# plus the audit sample.  Equal final dataset digests certify the two
# measured the same thing; the gated query counters record how much
# cheaper the incremental loop is per steady-state epoch.
LONGITUDINAL_LABELS = ("longitudinal_full", "longitudinal_incremental")
LONGITUDINAL_EPOCHS = 3

# Fields that are pure functions of (seed, scale, config): any drift is
# a real behaviour change, never runner noise.
GATED_FIELDS = (
    "targets",
    "queries_sent",
    "network_queries",
    "timeouts",
    "responsive_domains",
    "dataset_digest",
)


# ----------------------------------------------------------------------
# Record format
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PerfRecord:
    """One engine configuration's campaign cost."""

    label: str
    max_in_flight: int
    zone_cut_caching: bool
    targets: int
    simulated_seconds: float
    active_seconds: float  # simulated minus configured inter-round waits
    queries_sent: int  # prober-issued series (walk + sweep + warm)
    network_queries: int  # every datagram, including NS-address resolution
    timeouts: int
    responsive_domains: int
    # sha256 of the canonical dataset serialization (see
    # repro.core.journal.dataset_digest).
    dataset_digest: str
    # Worker-process count for sharded records; None = in-process.
    shards: Optional[int] = None


@dataclass
class PerfReport:
    """A set of perf records plus derived baseline-vs-config ratios."""

    scale: float
    seed: int
    records: List[PerfRecord] = field(default_factory=list)
    baseline_label: Optional[str] = None

    def add(self, record: PerfRecord, baseline: bool = False) -> None:
        if any(r.label == record.label for r in self.records):
            raise ValueError(f"duplicate perf record label: {record.label}")
        self.records.append(record)
        if baseline:
            self.baseline_label = record.label

    def get(self, label: str) -> PerfRecord:
        for record in self.records:
            if record.label == label:
                return record
        raise KeyError(f"no perf record labelled {label!r}")

    def reductions(self, label: str) -> Dict[str, float]:
        """Ratios of the baseline record's cost over this config's (>1
        means the config is cheaper).

        ``queries_sent``, ``network_queries`` and ``active_seconds``
        are each compared against the baseline record; a ratio of 2.0
        reads "the baseline cost 2x more".
        """
        if self.baseline_label is None:
            raise ValueError("no baseline record marked")
        baseline = self.get(self.baseline_label)
        record = self.get(label)
        ratios: Dict[str, float] = {}
        for metric in ("queries_sent", "network_queries", "active_seconds"):
            cost = getattr(record, metric)
            ratios[metric] = (
                float("inf") if cost == 0 else getattr(baseline, metric) / cost
            )
        return ratios

    def payload(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "scale": self.scale,
            "seed": self.seed,
            "baseline": self.baseline_label,
            "records": {record.label: record for record in self.records},
        }
        if self.baseline_label is not None:
            out["reductions_vs_baseline"] = {
                record.label: self.reductions(record.label)
                for record in self.records
                if record.label != self.baseline_label
            }
        return out

    def to_json(self) -> str:
        return to_json(self.payload())


@dataclass
class PerfSuite:
    """Per-scale :class:`PerfReport` collection under one seed.

    The suite format (``"format": 2``) keys full reports by scale so
    the regression gate covers *every* committed scale, not just the
    one the CLI happened to be invoked with.
    """

    seed: int
    reports: Dict[float, PerfReport] = field(default_factory=dict)

    def add(self, report: PerfReport) -> None:
        if report.seed != self.seed:
            raise ValueError(
                f"report seed {report.seed} != suite seed {self.seed}"
            )
        if report.scale in self.reports:
            raise ValueError(f"duplicate suite scale: {report.scale}")
        self.reports[report.scale] = report

    def payload(self) -> Dict[str, object]:
        return {
            "format": 2,
            "seed": self.seed,
            "scales": {
                str(scale): self.reports[scale].payload()
                for scale in sorted(self.reports)
            },
        }

    def to_json(self) -> str:
        return to_json(self.payload())

    def write(self, path: str) -> None:
        write_json(path, self.payload())


# ----------------------------------------------------------------------
# Running the suite
# ----------------------------------------------------------------------
def run_probe_record(label: str, seed: int, scale: float) -> PerfRecord:
    """Run one configuration's full campaign and record its counters.

    The ``sharded`` label runs over :data:`DEFAULT_SHARDS` workers.
    """
    if label not in BENCH_CONFIGS:
        raise ValueError(f"unknown bench config: {label!r}")
    config = ProbeConfig(**BENCH_CONFIGS[label])  # type: ignore[arg-type]
    shards = DEFAULT_SHARDS if label == "sharded" else None
    world = world_at_epoch(seed, scale)
    study = GovernmentDnsStudy(world, probe_config=config)
    targets = study.targets()
    base_network_queries = world.network.stats.queries_sent
    base_timeouts = world.network.stats.timeouts
    dataset, counters = run_campaign(
        world,
        targets,
        config,
        shards=shards,
        suffixes=government_suffixes(study.seeds().values()),
    )

    # The inter-round wait is methodology, not engine cost: subtract it
    # to compare what the engine actually controls.
    columns = dataset.columns
    waits = config.retry_interval_days * 86_400 if 1 in columns.retried else 0.0
    return PerfRecord(
        label=label,
        max_in_flight=config.max_in_flight,
        zone_cut_caching=config.zone_cut_caching,
        targets=len(targets),
        simulated_seconds=round(counters.simulated_seconds, 3),
        active_seconds=round(counters.simulated_seconds - waits, 3),
        queries_sent=counters.queries_sent,
        # Network totals include seed selection's queries.
        network_queries=base_network_queries + counters.network_queries,
        timeouts=base_timeouts + counters.timeouts,
        responsive_domains=columns.responsive.count(1),
        dataset_digest=dataset_digest(dataset),
        shards=shards,
    )


def run_longitudinal_record(
    label: str,
    seed: int,
    scale: float,
    epochs: int = LONGITUDINAL_EPOCHS,
) -> PerfRecord:
    """Run one longitudinal mode's full epoch loop and record it.

    The gated counters are *steady-state* totals (epochs 1..N; the
    bootstrap campaign is identical in both modes and would dilute the
    ratio), while ``responsive_domains`` and ``dataset_digest`` are the
    final epoch's — the digest doubling as the incremental-vs-full
    equivalence certificate.
    """
    if label not in LONGITUDINAL_LABELS:
        raise ValueError(f"unknown longitudinal config: {label!r}")
    config = ProbeConfig(**BENCH_CONFIGS["concurrent"])  # type: ignore[arg-type]
    runner = EpochRunner(
        world_at_epoch(seed, scale),
        probe_config=config,
        incremental=label == "longitudinal_incremental",
    )
    runner.run(epochs)

    steady = runner.stats[1:]
    final = runner.stats[-1]
    simulated = sum(s.simulated_seconds for s in steady)
    return PerfRecord(
        label=label,
        max_in_flight=config.max_in_flight,
        zone_cut_caching=config.zone_cut_caching,
        targets=len(runner.targets),
        simulated_seconds=round(simulated, 3),
        active_seconds=round(simulated, 3),
        queries_sent=sum(s.queries_sent for s in steady),
        network_queries=sum(s.network_queries for s in steady),
        timeouts=sum(s.timeouts for s in steady),
        responsive_domains=final.responsive,
        dataset_digest=final.epoch_digest,
    )


def run_probe_bench(
    seed: int,
    scale: float,
    labels: Tuple[str, ...] = ("serial", "concurrent", "sharded"),
) -> PerfReport:
    """Run the benchmark suite; ``serial`` (when present) is the
    baseline for reduction ratios.  Longitudinal labels dispatch to the
    epoch-suite runner; everything else is a one-shot campaign."""
    report = PerfReport(scale=scale, seed=seed)
    for label in labels:
        if label in LONGITUDINAL_LABELS:
            record = run_longitudinal_record(label, seed, scale)
        else:
            record = run_probe_record(label, seed, scale)
        report.add(record, baseline=(label == "serial"))
        collect_dropped()
    return report


def run_probe_suite(
    seed: int,
    scales: Tuple[float, ...],
    labels: Tuple[str, ...] = ("serial", "concurrent", "sharded"),
) -> PerfSuite:
    """Run the full benchmark at each scale into one suite."""
    suite = PerfSuite(seed=seed)
    for scale in scales:
        suite.add(run_probe_bench(seed, scale, labels=labels))
    return suite


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
def load_report_payload(path: str) -> Dict[str, object]:
    """Read a previously written BENCH_probe.json payload."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def scale_payloads(committed: Dict[str, object]) -> Dict[float, Dict[str, object]]:
    """Per-scale report payloads from a committed suite file.

    Raises ValueError on anything but a ``"format": 2`` suite.
    """
    scales = committed.get("scales")
    if committed.get("format") != 2 or not isinstance(scales, dict):
        raise ValueError("not a format-2 benchmark suite file")
    return {float(key): payload for key, payload in scales.items()}


def gate_suite(
    current: PerfSuite, committed: Dict[str, object]
) -> List[str]:
    """Gate a fresh suite against a committed payload, every scale.

    Each scale committed to the baseline file must be present in the
    current run and pass :func:`gate_report`; scales only present in
    the current run are allowed (that is how a scale is introduced).
    """
    violations: List[str] = []
    for scale, payload in sorted(scale_payloads(committed).items()):
        report = current.reports.get(scale)
        if report is None:
            violations.append(
                f"scale {scale} present in committed baseline but "
                f"missing from this run"
            )
            continue
        violations.extend(
            f"scale {scale}: {violation}"
            for violation in gate_report(report, payload)
        )
    return violations


def gate_report(
    current: PerfReport, committed: Dict[str, object]
) -> List[str]:
    """Compare a fresh report against the committed baseline payload.

    Returns a list of violation strings (empty = gate passes).  Every
    committed record must carry each of :data:`GATED_FIELDS`, and each
    must match exactly.  A record present in the committed file but
    absent from the current run is a violation (a silently dropped
    configuration is a regression too); new records in the current run
    are allowed (that is how a record is introduced).

    All violations are reported in one pass: an identity mismatch does
    not short-circuit the record-level comparisons, so a run that both
    drifted a field and was taken at the wrong seed reports both facts
    instead of hiding the field drift behind the identity error.
    """
    violations: List[str] = []
    for key in ("seed", "scale"):
        committed_value = committed.get(key)
        current_value = getattr(current, key)
        if committed_value != current_value:
            violations.append(
                f"benchmark identity mismatch: {key} is {current_value}, "
                f"committed file was recorded at {committed_value}"
            )
    records = committed.get("records")
    if not isinstance(records, dict):
        violations.append("committed payload has no records mapping")
        return violations
    for label in sorted(records):
        reference = records[label]
        try:
            record = current.get(label)
        except KeyError:
            violations.append(
                f"record {label!r} present in committed baseline but "
                f"missing from this run"
            )
            continue
        assert isinstance(reference, dict)
        for fieldname in GATED_FIELDS:
            if fieldname not in reference:
                violations.append(
                    f"{label}.{fieldname}: missing from the committed record"
                )
                continue
            actual = getattr(record, fieldname)
            if actual != reference[fieldname]:
                violations.append(
                    f"{label}.{fieldname}: {actual!r} != committed "
                    f"{reference[fieldname]!r}"
                )
    return violations

