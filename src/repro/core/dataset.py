"""Measurement result containers and the columnar analysis store.

Every analysis in :mod:`repro.core` consumes :class:`ProbeResult`
objects — one per probed domain — so the data model here is the
contract between the active-measurement pipeline and the §IV analyses.

A dataset stores one form and derives the rest:

* **The stored form** is either ``dataset.results``, the
  dict-of-results an inline campaign's prober produces, or
  ``dataset.rows``, the canonical rows (:func:`repro.core.journal.result_row`)
  a sharded campaign's workers shipped.  Every byte of the committed
  digests is defined over those rows: :func:`repro.core.journal.dataset_digest`
  streams a row-backed dataset's rows as they are, and serializes an
  inline dataset's results.  A row-backed dataset decodes ``results``
  only when a caller first asks for a :class:`ProbeResult`.
* The **columnar store** (:class:`DatasetColumns`, reached via
  ``dataset.columns``) is a derived index built lazily on first use:
  one fused pass over the results computes every per-domain verdict
  the §IV analyses need — responsiveness, defect classification and
  confidence, the §IV-D consistency taxonomy, failure persistence —
  into parallel ``bytes``/``array`` columns keyed by admission index.
  The analyses then sweep flat columns (``bytes.count`` for shares,
  ``zip`` for grouped sweeps) instead of re-deriving the same
  properties from per-domain object graphs thousands of times.
  Nothing about the columnar store can perturb a digest.

Name-typed columns (defective nameservers, parent-only/child-only
sets) hold tuples of interned :class:`~repro.dns.name.DnsName`
references, so membership tests and sorts inside the fused pass reuse
the cached hash/sort-key forms.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..dns.name import DnsName
from ..inet.address import IPv4Address

__all__ = [
    "ParentStatus",
    "ServerOutcome",
    "ServerProbe",
    "ProbeResult",
    "DatasetColumns",
    "MeasurementDataset",
    "PARENT_CODES",
    "DEFECT_HEALTHY",
    "DEFECT_PARTIAL",
    "DEFECT_FULL",
    "CONSISTENCY_CODES",
    "PERSISTENCE_CODES",
    "UNCLASSIFIED",
]


class ParentStatus:
    """What the domain's parent-zone nameservers said (paper §III-B)."""

    REFERRAL = "referral"      # non-empty: NS records for the domain
    ANSWER = "answer"          # parent served the NS set authoritatively
    #                            (parent and child co-hosted)
    EMPTY = "empty"            # authoritative NXDOMAIN / NODATA
    NO_RESPONSE = "no_response"  # no parent nameserver replied


class ServerOutcome:
    """Per-address outcome for the final NS query sweep."""

    ANSWER = "answer"      # authoritative answer for the domain's NS
    NODATA = "nodata"      # authoritative, but no NS records
    NXDOMAIN = "nxdomain"
    REFUSED = "refused"
    SERVFAIL = "servfail"
    UPWARD = "upward"      # upward referral (classic lame signature)
    LAME = "lame"          # some other non-authoritative response
    TIMEOUT = "timeout"

    # Outcomes that constitute "answering queries for the zone".
    AUTHORITATIVE = frozenset({ANSWER, NODATA})

    # Outcomes that prove only that *we* observed silence — not that
    # the server is misconfigured.  A defect verdict resting solely on
    # these is transient-failure-shaped and gets "provisional"
    # confidence until a second round confirms it.
    SOFT_FAILURES = frozenset({TIMEOUT})


@dataclass
class ServerProbe:
    """One nameserver hostname's measurement record."""

    hostname: DnsName
    resolvable: bool
    addresses: Tuple[IPv4Address, ...] = ()
    outcomes: Dict[IPv4Address, str] = field(default_factory=dict)
    ns_by_address: Dict[IPv4Address, Tuple[DnsName, ...]] = field(
        default_factory=dict
    )
    # Round-one verdicts that the retry round cleared before
    # re-querying (TIMEOUT / SERVFAIL).  Empty unless the domain was
    # retried and this server had transient-shaped failures.
    prior_outcomes: Dict[IPv4Address, str] = field(default_factory=dict)

    @property
    def answered(self) -> bool:
        """Did any address give an authoritative answer for the zone?"""
        return any(
            outcome in ServerOutcome.AUTHORITATIVE
            for outcome in self.outcomes.values()
        )

    @property
    def defective(self) -> bool:
        """A defective (lame) entry: unresolvable, or no address of it
        answers authoritatively for the zone."""
        return not self.resolvable or not self.answered

    @property
    def defect_confidence(self) -> str:
        """How sure the pipeline is that a defect verdict is real.

        ``"confirmed"``
            The defect rests on positive evidence (unresolvable, or an
            active wrong answer such as REFUSED / upward referral), or
            on soft failure observed in *both* measurement rounds — a
            persistently dead server, the paper's Figure-8 category.
        ``"provisional"``
            The only evidence is single-round soft failure (a
            timeout): indistinguishable from a transient outage, so
            defect prevalence built on it is an upper bound.  Meaningless when :attr:`defective` is False.
        """
        if not self.resolvable:
            return "confirmed"
        soft = ServerOutcome.SOFT_FAILURES
        for address, outcome in self.outcomes.items():
            if outcome in ServerOutcome.AUTHORITATIVE:
                continue
            if outcome not in soft:
                return "confirmed"
            if self.prior_outcomes.get(address) in soft:
                return "confirmed"  # silent in both rounds
        return "provisional"


@dataclass
class ProbeResult:
    """Everything the pipeline learned about one domain."""

    domain: DnsName
    iso2: str
    parent_status: str
    parent_ns: Tuple[DnsName, ...] = ()
    child_ns: Tuple[DnsName, ...] = ()
    servers: Dict[DnsName, ServerProbe] = field(default_factory=dict)
    queries_sent: int = 0
    retried: bool = False

    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        return self.domain.level

    @property
    def got_parent_response(self) -> bool:
        return self.parent_status != ParentStatus.NO_RESPONSE

    @property
    def parent_nonempty(self) -> bool:
        return self.parent_status in (ParentStatus.REFERRAL, ParentStatus.ANSWER)

    @property
    def responsive(self) -> bool:
        """At least one authoritative answer from the domain's own
        nameservers — the paper's "responsive domain"."""
        return any(server.answered for server in self.servers.values())

    @property
    def failure_persistence(self) -> Optional[str]:
        """Transient-vs-persistent classification of unresponsiveness.

        ``None``
            The domain answered in round one (no failure to classify),
            or the parent listed nothing to probe.
        ``"transient"``
            Unresponsive in round one, answered after the retry round —
            the population §III-B's retry exists to absorb.
        ``"persistent"``
            Still unresponsive after the retry round: two rounds of
            evidence, the paper's genuinely-dead infrastructure.
        ``"unconfirmed"``
            Unresponsive but never retried (retry round disabled):
            single-round evidence only.
        """
        if not self.parent_nonempty:
            return None
        if self.responsive:
            return "transient" if self.retried else None
        return "persistent" if self.retried else "unconfirmed"

    @property
    def all_ns(self) -> Tuple[DnsName, ...]:
        """P ∪ C in first-seen order."""
        seen: Dict[DnsName, None] = {}
        for hostname in self.parent_ns + self.child_ns:
            seen.setdefault(hostname, None)
        return tuple(seen)

    @property
    def ns_count(self) -> int:
        """The number of distinct nameservers listed for the domain."""
        return len(self.all_ns)

    def resolved_addresses(self) -> Tuple[IPv4Address, ...]:
        found: Dict[IPv4Address, None] = {}
        for server in self.servers.values():
            for address in server.addresses:
                found.setdefault(address, None)
        return tuple(found)


# ----------------------------------------------------------------------
# Column codes
# ----------------------------------------------------------------------
# Parent-response class, one byte per domain.
PARENT_CODES: Dict[str, int] = {
    ParentStatus.REFERRAL: 0,
    ParentStatus.ANSWER: 1,
    ParentStatus.EMPTY: 2,
    ParentStatus.NO_RESPONSE: 3,
}

# §IV-C delegation verdicts.  The string labels live in
# :mod:`repro.core.delegation` (which imports this module); the codes
# are defined here so the fused pass can emit them.
DEFECT_HEALTHY = 0
DEFECT_PARTIAL = 1
DEFECT_FULL = 2

# §IV-D consistency taxonomy, in
# :data:`repro.core.consistency.ConsistencyClass.ALL` order.
CONSISTENCY_CODES: Tuple[str, ...] = (
    "P=C",
    "P⊂C",
    "C⊂P",
    "P∩C≠∅, neither",
    "P∩C=∅, IP overlap",
    "P∩C=∅, no IP overlap",
)

# Failure persistence (code 0 = nothing to classify).
PERSISTENCE_CODES: Tuple[Optional[str], ...] = (
    None,
    "transient",
    "persistent",
    "unconfirmed",
)

# Sentinel for byte columns whose verdict does not apply to a domain
# (empty parent for defect verdicts; non-referral / silent child for
# consistency verdicts).
UNCLASSIFIED = 255


class DatasetColumns:
    """Parallel per-domain arrays, in dataset (admission) order.

    Byte columns use :data:`UNCLASSIFIED` where a verdict does not
    apply, so population shares are single ``bytes.count`` calls over
    the classified remainder.
    """

    __slots__ = (
        "domains",
        "iso2",
        "level",
        "parent_status",
        "responsive",
        "retried",
        "_results",
        "_ns_count",
        "persistence",
        "defect_verdict",
        "defect_provisional",
        "defective_ns",
        "defective_in_parent",
        "consistency_verdict",
        "single_label_ns",
        "parent_only",
        "child_only",
    )

    def __init__(
        self,
        domains: Tuple[DnsName, ...],
        iso2: Tuple[str, ...],
        level: bytes,
        parent_status: bytes,
        responsive: bytes,
        retried: bytes,
        results: Dict[DnsName, ProbeResult],
        persistence: bytes,
        defect_verdict: bytes,
        defect_provisional: bytes,
        defective_ns: Tuple[Tuple[DnsName, ...], ...],
        defective_in_parent: Tuple[Tuple[DnsName, ...], ...],
        consistency_verdict: bytes,
        single_label_ns: bytes,
        parent_only: Tuple[Tuple[DnsName, ...], ...],
        child_only: Tuple[Tuple[DnsName, ...], ...],
    ) -> None:
        self.domains = domains
        self.iso2 = iso2
        self.level = level
        self.parent_status = parent_status
        self.responsive = responsive
        self.retried = retried
        self._results = results
        self._ns_count: Optional["array[int]"] = None
        self.persistence = persistence
        self.defect_verdict = defect_verdict
        self.defect_provisional = defect_provisional
        self.defective_ns = defective_ns
        self.defective_in_parent = defective_in_parent
        self.consistency_verdict = consistency_verdict
        self.single_label_ns = single_label_ns
        self.parent_only = parent_only
        self.child_only = child_only

    def __len__(self) -> int:
        return len(self.domains)

    @property
    def ns_count(self) -> "array[int]":
        """Distinct listed nameservers (|P ∪ C|) per domain.

        Built on first access: only the replication/diversity sweeps
        need it, so the delegation/consistency path never pays for the
        set algebra.
        """
        counts = self._ns_count
        if counts is None:
            counts = array("H", bytes(2 * len(self.domains)))
            for i, result in enumerate(self._results.values()):
                parent_ns = result.parent_ns
                child_ns = result.child_ns
                if child_ns and child_ns != parent_ns:
                    counts[i] = len(set(parent_ns) | set(child_ns))
                elif parent_ns:
                    counts[i] = len(set(parent_ns))
            self._ns_count = counts
        return counts

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, results: Dict[DnsName, ProbeResult]) -> "DatasetColumns":
        """One fused pass over the results.

        Every per-server outcome dict is walked exactly once; the
        per-domain aggregates the analyses re-derived repeatedly
        (``responsive``, ``answered``, ``defective``, defect
        confidence, the consistency taxonomy) fall out of that single
        walk.  The verdict semantics mirror the :class:`ServerProbe` /
        :class:`ProbeResult` properties and the per-domain
        ``classify`` methods bit-for-bit — the equivalence is pinned by
        ``tests/test_columnar.py``.
        """
        n = len(results)
        level = bytearray(n)
        parent_status = bytearray(n)
        responsive_col = bytearray(n)
        retried_col = bytearray(n)
        persistence = bytearray(n)
        defect_verdict = bytearray(n)
        defect_provisional = bytearray(n)
        consistency_verdict = bytearray(n)
        single_label = bytearray(n)
        iso2: List[str] = []
        defective_ns: List[Tuple[DnsName, ...]] = []
        defective_in_parent: List[Tuple[DnsName, ...]] = []
        parent_only: List[Tuple[DnsName, ...]] = []
        child_only: List[Tuple[DnsName, ...]] = []

        authoritative = ServerOutcome.AUTHORITATIVE
        soft = ServerOutcome.SOFT_FAILURES
        referral_code = PARENT_CODES[ParentStatus.REFERRAL]
        parent_codes = PARENT_CODES

        # Bound-method aliases: the loop below appends to these lists
        # once per domain; skipping the attribute lookup is measurable
        # at campaign scale.
        iso2_append = iso2.append
        defective_ns_append = defective_ns.append
        defective_in_parent_append = defective_in_parent.append
        parent_only_append = parent_only.append
        child_only_append = child_only.append

        empty: Tuple[DnsName, ...] = ()
        for i, (domain, result) in enumerate(results.items()):
            iso2_append(result.iso2)
            # Hot loop: read the interned label tuples directly rather
            # than dispatching to Python-level __len__/level per name.
            level[i] = len(domain._labels)
            code = parent_codes[result.parent_status]
            parent_status[i] = code
            nonempty = code <= 1
            retried = result.retried
            if retried:
                retried_col[i] = 1

            # Fused per-server sweep.  The common case — a resolvable
            # server with an authoritative answer — is decided by one
            # C-level ``isdisjoint`` over the outcome values; only
            # defective servers fall through to the per-address
            # confidence walk, and only until one confirmed defect is
            # seen (the verdict needs *any*, not all).
            responsive = False
            defects: List[DnsName] = []
            any_confirmed_defect = False
            servers = result.servers
            for hostname, server in servers.items():
                resolvable = server.resolvable
                answered = not authoritative.isdisjoint(
                    server.outcomes.values()
                )
                if answered:
                    responsive = True
                    if resolvable:
                        continue  # healthy entry
                defects.append(hostname)
                if any_confirmed_defect:
                    continue
                if not resolvable:
                    any_confirmed_defect = True
                    continue
                prior = server.prior_outcomes
                for address, outcome in server.outcomes.items():
                    if outcome in authoritative:
                        continue
                    if outcome not in soft or (
                        prior and prior.get(address) in soft
                    ):
                        any_confirmed_defect = True  # positive evidence
                        break  #                       or two-round silence
            if responsive:
                responsive_col[i] = 1

            parent_ns = result.parent_ns
            child_ns = result.child_ns
            # The dominant case is a child NS tuple identical to the
            # parent's (the paper's 76.8% P=C); equal tuples mean equal
            # sets, so all the set algebra below collapses.
            identical = child_ns == parent_ns

            if defects:
                defect_tuple = tuple(defects)
                defective_ns_append(defect_tuple)
                # Tuple membership over a handful of interned names is
                # an identity scan in C — cheaper than building a set
                # (whose inserts dispatch to Python-level __hash__).
                defective_in_parent_append(
                    tuple([h for h in defect_tuple if h in parent_ns])
                )
            else:
                defect_tuple = empty
                defective_ns_append(empty)
                defective_in_parent_append(empty)

            # §IV-C verdict (only defined for a non-empty parent).
            if not nonempty:
                defect_verdict[i] = UNCLASSIFIED
            elif not responsive:
                defect_verdict[i] = DEFECT_FULL
                if defect_tuple and not any_confirmed_defect:
                    defect_provisional[i] = 1
            elif defect_tuple:
                defect_verdict[i] = DEFECT_PARTIAL
                if not any_confirmed_defect:
                    defect_provisional[i] = 1
            # else: DEFECT_HEALTHY == 0, the bytearray default.

            # §IV-D taxonomy (responsive referrals with a child answer).
            if responsive and code == referral_code and child_ns:
                if identical:
                    # P=C: nothing parent- or child-only.
                    for hostname in parent_ns:
                        if len(hostname._labels) == 1:
                            single_label[i] = 1
                            break
                    # consistency_verdict[i] stays 0 == EQUAL.
                    parent_only_append(empty)
                    child_only_append(empty)
                else:
                    parent_set = set(parent_ns)
                    child_set = set(child_ns)
                    for hostname in parent_set | child_set:
                        if len(hostname._labels) == 1:
                            single_label[i] = 1
                            break
                    if parent_set == child_set:
                        cv = 0
                    elif parent_set & child_set:
                        if parent_set < child_set:
                            cv = 1
                        elif child_set < parent_set:
                            cv = 2
                        else:
                            cv = 3
                    else:
                        parent_ips: set = set()
                        child_ips: set = set()
                        for hostname in parent_set:
                            server = servers.get(hostname)
                            if server is not None:
                                parent_ips.update(server.addresses)
                        for hostname in child_set:
                            server = servers.get(hostname)
                            if server is not None:
                                child_ips.update(server.addresses)
                        cv = 4 if parent_ips & child_ips else 5
                    consistency_verdict[i] = cv
                    parent_only_append(tuple(sorted(parent_set - child_set)))
                    child_only_append(tuple(sorted(child_set - parent_set)))
            else:
                consistency_verdict[i] = UNCLASSIFIED
                parent_only_append(empty)
                child_only_append(empty)

            # Failure persistence.
            if not nonempty:
                pass  # persistence[i] stays 0 == nothing to classify
            elif responsive:
                if retried:
                    persistence[i] = 1
            else:
                persistence[i] = 2 if retried else 3

        return cls(
            domains=tuple(results),
            iso2=tuple(iso2),
            level=bytes(level),
            parent_status=bytes(parent_status),
            responsive=bytes(responsive_col),
            retried=bytes(retried_col),
            results=results,
            persistence=bytes(persistence),
            defect_verdict=bytes(defect_verdict),
            defect_provisional=bytes(defect_provisional),
            defective_ns=tuple(defective_ns),
            defective_in_parent=tuple(defective_in_parent),
            consistency_verdict=bytes(consistency_verdict),
            single_label_ns=bytes(single_label),
            parent_only=tuple(parent_only),
            child_only=tuple(child_only),
        )


class MeasurementDataset:
    """A campaign's results in admission order, from one source:
    ``results`` (inline campaigns) or ``rows`` (:meth:`from_rows`).

    A row-backed dataset decodes ``results`` on first access and caches
    them; its length, membership, merge and digest need no decode.
    ``columns`` is the columnar index, built lazily from ``results``.
    Treat a dataset as frozen once built.
    """

    __slots__ = ("_results", "rows", "_columns")

    def __init__(self, results: Dict[DnsName, ProbeResult]) -> None:
        self._results: Optional[Dict[DnsName, ProbeResult]] = results
        self.rows: Optional[Dict[DnsName, bytes]] = None
        self._columns: Optional[DatasetColumns] = None

    @classmethod
    def from_rows(cls, rows: Dict[DnsName, bytes]) -> "MeasurementDataset":
        """A dataset whose source is ``rows`` (domain → canonical row,
        in sorted admission order)."""
        dataset = cls.__new__(cls)
        dataset._results, dataset.rows, dataset._columns = None, rows, None
        return dataset

    @property
    def results(self) -> Dict[DnsName, ProbeResult]:
        if self._results is None:
            from .journal import result_from_row  # journal imports us

            self._results = {
                domain: result_from_row(row)
                for domain, row in self.rows.items()
            }
        return self._results

    @property
    def columns(self) -> DatasetColumns:
        if self._columns is None:
            self._columns = DatasetColumns.build(self.results)
        return self._columns

    def _source(self) -> Mapping[DnsName, object]:
        """The stored form, keyed by domain in admission order."""
        return self.rows if self.rows is not None else self.results

    @classmethod
    def merge(
        cls,
        parts: "Iterable[MeasurementDataset]",
        labels: Optional[Sequence[str]] = None,
        epoch: Optional[int] = None,
    ) -> "MeasurementDataset":
        """Combine disjoint per-shard datasets into admission order.

        The campaign admits domains in sorted order, so the merge
        concatenates the parts' stored forms and sorts the union by
        domain — the result is byte-identical to a single-process
        campaign over the same targets regardless of how they were
        partitioned.  Overlapping shards are a partitioning bug and
        raise, naming the colliding domain and both offending shards
        (``labels`` defaults to positional ``"shard N"`` names).

        ``epoch`` tags every shard name with the measurement epoch the
        parts belong to, so a longitudinal pipeline that accidentally
        merges shards from different epochs fails with both the epoch
        and the shard named in the error instead of an anonymous
        ``shard N`` collision.

        Row-backed parts merge into a row-backed dataset, decoding
        nothing; non-empty parts of different forms raise.
        """
        materialized = list(parts)
        if labels is None:
            names = [f"shard {index}" for index in range(len(materialized))]
        else:
            names = [str(label) for label in labels]
            if len(names) != len(materialized):
                raise ValueError(
                    f"{len(names)} labels for {len(materialized)} shards"
                )
        if epoch is not None:
            names = [f"epoch {epoch} {name}" for name in names]
        forms = {part.rows is not None for part in materialized if len(part)}
        if len(forms) > 1:
            raise ValueError("cannot merge row-backed and result-backed parts")
        entries: List[Tuple[DnsName, object]] = []
        owner: Dict[DnsName, int] = {}
        for index, part in enumerate(materialized):
            source = part._source()
            for domain in source:
                previous = owner.get(domain)
                if previous is not None:
                    raise ValueError(
                        f"domain {domain} appears in more than one shard: "
                        f"{names[previous]} and {names[index]}"
                    )
                owner[domain] = index
            entries.extend(source.items())
        entries.sort(key=lambda entry: entry[0])
        if forms == {True}:
            return cls.from_rows(dict(entries))
        return cls(dict(entries))

    def __len__(self) -> int:
        return len(self._source())

    def __iter__(self) -> Iterator[ProbeResult]:
        return iter(self.results.values())

    def __getitem__(self, domain: DnsName) -> ProbeResult:
        return self.results[domain]

    def __contains__(self, domain: DnsName) -> bool:
        return domain in self._source()

    # Population slices used throughout §IV -----------------------------
    def with_parent_response(self) -> List[ProbeResult]:
        columns = self.columns
        no_response = PARENT_CODES[ParentStatus.NO_RESPONSE]
        results = self.results
        return [
            results[domain]
            for domain, code in zip(columns.domains, columns.parent_status)
            if code != no_response
        ]

    def with_nonempty_parent(self) -> List[ProbeResult]:
        columns = self.columns
        results = self.results
        return [
            results[domain]
            for domain, code in zip(columns.domains, columns.parent_status)
            if code <= 1
        ]

    def responsive(self) -> List[ProbeResult]:
        columns = self.columns
        results = self.results
        return [
            results[domain]
            for domain, flag in zip(columns.domains, columns.responsive)
            if flag
        ]

    def by_country(self) -> Dict[str, List[ProbeResult]]:
        columns = self.columns
        results = self.results
        grouped: Dict[str, List[ProbeResult]] = {}
        for domain, iso2 in zip(columns.domains, columns.iso2):
            grouped.setdefault(iso2, []).append(results[domain])
        return grouped

    def level_distribution(self) -> Dict[int, float]:
        """DNS-hierarchy level → share of all probed domains.

        The paper reports <1% second-level, 85.4% third-level, and
        10.9% fourth-level among the domains examined.
        """
        column = self.columns.level
        total = len(column)
        if not total:
            return {}
        return {
            level: column.count(level) / total
            for level in sorted(set(column))
        }

    def dominant_country_by_level(self) -> Dict[int, Tuple[str, float]]:
        """Level → (ISO2, share of that level's domains).

        Delegation strategies make some countries dominate a level —
        the paper finds 16% of its third-level domains in gov.cn and
        53% of its fourth-level ones in gov.br.
        """
        columns = self.columns
        by_level: Dict[int, Dict[str, int]] = {}
        for level, iso2 in zip(columns.level, columns.iso2):
            per_country = by_level.setdefault(level, {})
            per_country[iso2] = per_country.get(iso2, 0) + 1
        out: Dict[int, Tuple[str, float]] = {}
        for level, per_country in sorted(by_level.items()):
            iso2, count = max(per_country.items(), key=lambda kv: kv[1])
            out[level] = (iso2, count / sum(per_country.values()))
        return out
