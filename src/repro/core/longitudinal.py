"""The versioned longitudinal dataset: per-epoch deltas over one base.

A longitudinal campaign probes the full target universe once (epoch 0)
and then, each epoch, re-probes only the domains whose footprint
plausibly changed.  This module is the storage layer for that loop:

* **Carry-forward.**  A domain not re-probed in epoch *k* keeps its
  most recent :class:`~repro.core.dataset.ProbeResult` object — and its
  *epoch attribution* (:meth:`LongitudinalDataset.origin_epoch`).  A
  re-probe whose result serializes identically to the stored one is
  *not* a new version: the delta records only genuine changes, so
  attribution survives flagged-but-unchanged re-probes.
* **Copy-on-write columns.**  ``columns_at(k)`` starts from epoch
  *k-1*'s :class:`~repro.core.dataset.DatasetColumns`, rebuilds only
  the changed rows with the same fused pass a full build uses, and
  splices them in at the fixed admission indices — the target universe
  is fixed, so admission order never moves.
* **Digest chain.**  Every epoch is stamped with the full-dataset
  digest of its materialization *and* a chain digest binding the delta
  history, so any replay divergence is pinpointed to its first epoch.
* **Rows serialized once.**  The dataset keeps each domain's current
  canonical row (:func:`~repro.core.journal.result_row`), taken from
  :func:`~repro.core.journal.dataset_rows`: a sharded probe's shipped
  rows (its dataset's stored form) are kept as they arrived, an inline
  probe's results are serialized once.  An epoch compares its probed
  rows byte-for-byte against the stored rows, and streams the epoch
  digest over the stored rows in the fixed universe order.  Rows are captured when a
  result is appended, so mutating a :class:`ProbeResult` afterwards
  does not change later digests — results are treated as frozen.

The headline contract — property-tested across seeds × epochs × shard
counts — is that ``as_of(k)``'s digest is byte-identical to a
from-scratch full campaign against epoch *k*'s world.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..dns.name import DnsName
from .dataset import DatasetColumns, MeasurementDataset, ProbeResult
from .journal import dataset_rows, digest_rows, result_from_row

__all__ = ["EpochDelta", "LongitudinalDataset"]


@dataclass(frozen=True)
class EpochDelta:
    """What changed in one epoch (changed rows only)."""

    epoch: int
    changed: Dict[DnsName, ProbeResult]
    probed: Tuple[DnsName, ...]
    responsive_changed: Tuple[DnsName, ...]
    epoch_digest: str
    chain_digest: str

    @property
    def changed_domains(self) -> Tuple[DnsName, ...]:
        return tuple(sorted(self.changed))


class LongitudinalDataset:
    """A base campaign plus an append-only chain of epoch deltas."""

    def __init__(self, base: MeasurementDataset) -> None:
        self._base_results: Dict[DnsName, ProbeResult] = dict(base.results)
        self._latest: Dict[DnsName, ProbeResult] = dict(base.results)
        self._origin: Dict[DnsName, int] = {d: 0 for d in base.results}
        # Each domain's current canonical row, keyed in the fixed
        # universe order the digest streams them in.
        self._rows: Dict[DnsName, bytes] = dict(dataset_rows(base))
        self._deltas: List[EpochDelta] = []
        base_digest = self._current_digest()
        self._digests: List[str] = [base_digest]
        self._chain: List[str] = [
            hashlib.sha256(f"epoch 0:{base_digest}".encode()).hexdigest()
        ]
        # Admission index per domain: fixed universe, fixed order.
        self._index: Dict[DnsName, int] = {
            d: i for i, d in enumerate(base.results)
        }
        self._columns_cache: Dict[int, DatasetColumns] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epochs(self) -> int:
        """Number of epochs stored (epoch indices run 0..epochs-1)."""
        return len(self._deltas) + 1

    @property
    def deltas(self) -> Tuple[EpochDelta, ...]:
        return tuple(self._deltas)

    def delta(self, epoch: int) -> EpochDelta:
        if not 1 <= epoch < self.epochs:
            raise IndexError(f"no delta for epoch {epoch}")
        return self._deltas[epoch - 1]

    def latest(self, domain: DnsName) -> ProbeResult:
        """The carried-forward result for a domain."""
        return self._latest[domain]

    def origin_epoch(self, domain: DnsName) -> int:
        """The epoch whose probe produced the domain's current row."""
        return self._origin[domain]

    def matches(self, domain: DnsName, row: bytes) -> bool:
        """Is ``row`` the domain's current canonical row?"""
        return row == self._rows[domain]

    def epoch_digest(self, epoch: int) -> str:
        if not 0 <= epoch < self.epochs:
            raise IndexError(f"no digest for epoch {epoch}")
        return self._digests[epoch]

    def chain_digest(self, epoch: int) -> str:
        if not 0 <= epoch < self.epochs:
            raise IndexError(f"no chain digest for epoch {epoch}")
        return self._chain[epoch]

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def append_epoch(self, probed: MeasurementDataset) -> EpochDelta:
        """Fold one epoch's re-probe results into the chain.

        ``probed`` holds every result measured this epoch; rows whose
        serialization matches the carried-forward version are dropped
        (no new version, attribution preserved).  Domains outside the
        base universe are a pipeline bug and raise — the longitudinal
        contract is a fixed universe.  Of a row-backed ``probed``, only
        the changed rows are decoded.
        """
        epoch = self.epochs
        order: List[DnsName] = []
        outside: List[DnsName] = []
        fresh: List[Tuple[DnsName, bytes]] = []
        for domain, row in dataset_rows(probed):
            order.append(domain)
            current = self._rows.get(domain)
            if current is None:
                outside.append(domain)
            elif row != current:
                fresh.append((domain, row))
        if outside:
            # Checked before any state moves: a rejected batch leaves
            # the chain exactly as it was.
            raise ValueError(
                f"epoch {epoch}: domain {min(outside)} is not in the base "
                "universe; longitudinal campaigns have a fixed "
                "target list"
            )
        changed: Dict[DnsName, ProbeResult] = {}
        changed_rows: List[bytes] = []
        responsive_changed: List[DnsName] = []
        for domain, row in fresh:
            result = (
                probed.results[domain]
                if probed.rows is None
                else result_from_row(row)
            )
            changed[domain] = result
            changed_rows.append(row)
            if result.responsive != self._latest[domain].responsive:
                responsive_changed.append(domain)
            self._latest[domain] = result
            self._rows[domain] = row
            self._origin[domain] = epoch

        epoch_digest = self._current_digest()
        chain = hashlib.sha256(
            f"{self._chain[-1]}:epoch {epoch}:{epoch_digest}:"
            f"{digest_rows(changed_rows)}".encode()
        ).hexdigest()
        delta = EpochDelta(
            epoch=epoch,
            changed=changed,
            probed=tuple(order),
            responsive_changed=tuple(responsive_changed),
            epoch_digest=epoch_digest,
            chain_digest=chain,
        )
        self._deltas.append(delta)
        self._digests.append(epoch_digest)
        self._chain.append(chain)
        return delta

    def _current_digest(self) -> str:
        """The dataset digest of the current rows, in universe order."""
        return digest_rows(self._rows.values())

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def results_at(self, epoch: int) -> Dict[DnsName, ProbeResult]:
        """Epoch *k*'s full result mapping, in base admission order."""
        if not 0 <= epoch < self.epochs:
            raise IndexError(f"no epoch {epoch} (have 0..{self.epochs - 1})")
        results = dict(self._base_results)
        for delta in self._deltas[:epoch]:
            for domain, result in delta.changed.items():
                results[domain] = result  # replace: key order is stable
        return results

    def as_of(self, epoch: int) -> MeasurementDataset:
        """Materialize epoch *k* as a standalone dataset.

        The returned dataset's digest is byte-identical to a full
        campaign run against epoch *k*'s world, and its columns are the
        copy-on-write splice from :meth:`columns_at`.
        """
        dataset = MeasurementDataset(self.results_at(epoch))
        dataset._columns = self.columns_at(epoch)
        return dataset

    def columns_at(self, epoch: int) -> DatasetColumns:
        """Epoch *k*'s columnar store, built copy-on-write.

        Epoch 0 builds the full columns once; every later epoch copies
        epoch *k-1*'s columns and splices in freshly-built rows for the
        delta's changed domains only.
        """
        cached = self._columns_cache.get(epoch)
        if cached is not None:
            return cached
        if not 0 <= epoch < self.epochs:
            raise IndexError(f"no epoch {epoch} (have 0..{self.epochs - 1})")
        if epoch == 0:
            columns = DatasetColumns.build(self.results_at(0))
        else:
            columns = self._splice(
                self.columns_at(epoch - 1), self._deltas[epoch - 1]
            )
        self._columns_cache[epoch] = columns
        return columns

    def _splice(
        self, previous: DatasetColumns, delta: EpochDelta
    ) -> DatasetColumns:
        results = self.results_at(delta.epoch)
        if not delta.changed:
            # Same rows, same order: share the immutable columns but
            # point the lazy ns_count path at this epoch's results.
            return DatasetColumns(
                domains=previous.domains,
                iso2=previous.iso2,
                level=previous.level,
                parent_status=previous.parent_status,
                responsive=previous.responsive,
                retried=previous.retried,
                results=results,
                persistence=previous.persistence,
                defect_verdict=previous.defect_verdict,
                defect_provisional=previous.defect_provisional,
                defective_ns=previous.defective_ns,
                defective_in_parent=previous.defective_in_parent,
                consistency_verdict=previous.consistency_verdict,
                single_label_ns=previous.single_label_ns,
                parent_only=previous.parent_only,
                child_only=previous.child_only,
            )

        # Build mini-columns for just the changed rows, in admission
        # order, with the exact fused pass a full build uses.
        order = sorted(delta.changed, key=self._index.__getitem__)
        mini = DatasetColumns.build({d: delta.changed[d] for d in order})

        level = bytearray(previous.level)
        parent_status = bytearray(previous.parent_status)
        responsive = bytearray(previous.responsive)
        retried = bytearray(previous.retried)
        persistence = bytearray(previous.persistence)
        defect_verdict = bytearray(previous.defect_verdict)
        defect_provisional = bytearray(previous.defect_provisional)
        consistency_verdict = bytearray(previous.consistency_verdict)
        single_label_ns = bytearray(previous.single_label_ns)
        iso2 = list(previous.iso2)
        defective_ns = list(previous.defective_ns)
        defective_in_parent = list(previous.defective_in_parent)
        parent_only = list(previous.parent_only)
        child_only = list(previous.child_only)

        for j, domain in enumerate(order):
            i = self._index[domain]
            level[i] = mini.level[j]
            parent_status[i] = mini.parent_status[j]
            responsive[i] = mini.responsive[j]
            retried[i] = mini.retried[j]
            persistence[i] = mini.persistence[j]
            defect_verdict[i] = mini.defect_verdict[j]
            defect_provisional[i] = mini.defect_provisional[j]
            consistency_verdict[i] = mini.consistency_verdict[j]
            single_label_ns[i] = mini.single_label_ns[j]
            iso2[i] = mini.iso2[j]
            defective_ns[i] = mini.defective_ns[j]
            defective_in_parent[i] = mini.defective_in_parent[j]
            parent_only[i] = mini.parent_only[j]
            child_only[i] = mini.child_only[j]

        return DatasetColumns(
            domains=previous.domains,
            iso2=tuple(iso2),
            level=bytes(level),
            parent_status=bytes(parent_status),
            responsive=bytes(responsive),
            retried=bytes(retried),
            results=results,
            persistence=bytes(persistence),
            defect_verdict=bytes(defect_verdict),
            defect_provisional=bytes(defect_provisional),
            defective_ns=tuple(defective_ns),
            defective_in_parent=tuple(defective_in_parent),
            consistency_verdict=bytes(consistency_verdict),
            single_label_ns=bytes(single_label_ns),
            parent_only=tuple(parent_only),
            child_only=tuple(child_only),
        )
