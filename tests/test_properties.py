"""Property-based tests across the core data structures and invariants.

These complement the per-module suites with randomized checks of the
properties the analyses silently rely on.
"""

import copy
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.dataset import (
    PERSISTENCE_CODES,
    UNCLASSIFIED,
    DatasetColumns,
    MeasurementDataset,
    ParentStatus,
    ProbeResult,
    ServerOutcome,
    ServerProbe,
)
from repro.core.journal import dataset_digest, result_from_row, result_row
from repro.core.replication import PdnsReplicationAnalysis
from repro.core.seeds import Seed
from repro.dns.errors import NameError_
from repro.dns.message import Message, Question, Rcode
from repro.dns.name import DnsName
from repro.dns.rdata import A, NS, RRType
from repro.dns.rrset import RRset
from repro.dns.zone import LookupStatus, Zone
from repro.inet.address import IPv4Address, IPv4Prefix
from repro.inet.clock import SECONDS_PER_DAY, SimulatedClock, year_bounds
from repro.net.chaos import _TargetSet
from repro.pdns.database import PdnsDatabase
from repro.registry.registrar import PriceModel
from repro.serve.upstream import UpstreamHealth
from tests.digest_reference import one_blob_digest
from tests.ns_daily_reference import (
    daily_count_durations,
    mode_of_daily_counts,
    reference_year_states,
    summarize_daily_counts,
)

LABEL = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8
)
NAME = st.lists(LABEL, min_size=1, max_size=4).map(DnsName)

MIXED_LABEL = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_",
    min_size=1,
    max_size=8,
)
MIXED_LABELS = st.lists(MIXED_LABEL, max_size=4).map(tuple)

YEAR_START, YEAR_END = year_bounds(2020)
INTERVAL = st.tuples(
    st.floats(
        min_value=YEAR_START - 100 * SECONDS_PER_DAY,
        max_value=YEAR_END + 100 * SECONDS_PER_DAY,
    ),
    st.floats(min_value=0, max_value=400 * SECONDS_PER_DAY),
).map(lambda pair: (pair[0], pair[0] + pair[1]))


class TestNsDailySummaries:
    @given(st.lists(INTERVAL, max_size=8))
    def test_durations_are_positive(self, intervals):
        durations = daily_count_durations(intervals, YEAR_START, YEAR_END)
        assert all(v > 0 for v in durations.values())
        assert all(k > 0 for k in durations)

    @given(st.lists(INTERVAL, max_size=8))
    def test_total_duration_bounded_by_year(self, intervals):
        durations = daily_count_durations(intervals, YEAR_START, YEAR_END)
        # Some intervals extend a day past year end (inclusive last
        # day), so allow that slack.
        assert sum(durations.values()) <= (YEAR_END - YEAR_START) + SECONDS_PER_DAY

    @given(st.lists(INTERVAL, max_size=8))
    def test_min_mode_max_ordering(self, intervals):
        low = summarize_daily_counts(intervals, YEAR_START, YEAR_END, "min")
        mid = summarize_daily_counts(intervals, YEAR_START, YEAR_END, "mode")
        high = summarize_daily_counts(intervals, YEAR_START, YEAR_END, "max")
        assert low <= mid <= high

    @given(st.lists(INTERVAL, min_size=1, max_size=8))
    def test_max_bounded_by_interval_count(self, intervals):
        high = summarize_daily_counts(intervals, YEAR_START, YEAR_END, "max")
        assert high <= len(intervals)

    @given(st.lists(INTERVAL, max_size=8))
    def test_mode_agrees_with_dedicated_function(self, intervals):
        assert mode_of_daily_counts(
            intervals, YEAR_START, YEAR_END
        ) == summarize_daily_counts(intervals, YEAR_START, YEAR_END, "mode")


# The one-pass year_states against the per-year reference.  Records are
# (domain, hostname, last_seen, span [, copies at the identical
# interval]).  last_seen is drawn anywhere in 2010-2021, within a day of
# a year boundary, or a day before a mid-year (so the inclusive last day
# ends exactly there and the two halves of a year can tie).  Spans reach
# across several years; spans under the 7-day stability threshold leave
# some domains with no stable rows.
PDNS_YEARS = tuple(range(2011, 2021))
YEAR_EDGES = tuple(year_bounds(year)[0] for year in range(2010, 2023))
BEFORE_MID_YEARS = tuple(
    (start + end) / 2 - SECONDS_PER_DAY
    for start, end in map(year_bounds, range(2010, 2022))
)
PDNS_SEEDS = {
    "XX": Seed("XX", DnsName.parse("gov.xx"), True, "link", True),
    "YY": Seed("YY", DnsName.parse("gob.yy"), True, "link", True),
}
PDNS_DOMAINS = ("a.gov.xx", "b.gov.xx", "deep.a.gov.xx", "c.gob.yy")
LAST_SEEN = st.one_of(
    st.floats(min_value=YEAR_EDGES[0], max_value=YEAR_EDGES[-1]),
    st.tuples(
        st.sampled_from(YEAR_EDGES),
        st.floats(min_value=-SECONDS_PER_DAY, max_value=SECONDS_PER_DAY),
    ).map(sum),
    st.sampled_from(BEFORE_MID_YEARS),
)
SPAN = st.one_of(
    st.sampled_from(
        (0.0, 6 * SECONDS_PER_DAY, 7 * SECONDS_PER_DAY, 365 * SECONDS_PER_DAY)
    ),
    st.floats(min_value=0, max_value=4 * 366 * SECONDS_PER_DAY),
)
PDNS_ROW = st.tuples(
    st.sampled_from(PDNS_DOMAINS),
    st.integers(min_value=0, max_value=3),
    LAST_SEEN,
    SPAN,
    st.integers(min_value=0, max_value=2),
)


def hostname_for(domain: str, index: int) -> str:
    # Index 3 lies outside every seed, so privacy varies per domain.
    return "ns.provider.example." if index == 3 else f"ns{index}.{domain}."


class TestYearStatesMatchPerYearReference:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(PDNS_ROW, max_size=14))
    def test_one_pass_equals_per_year(self, rows):
        db = PdnsDatabase()
        for domain, host, last, span, copies in rows:
            for offset in range(copies + 1):
                db.observe_span(
                    DnsName.parse(domain),
                    RRType.NS,
                    hostname_for(domain, (host + offset) % 4),
                    last - span,
                    last,
                )
        for how in ("mode", "min", "max"):
            analysis = PdnsReplicationAnalysis(
                db, PDNS_SEEDS, years=PDNS_YEARS, year_summary=how
            )
            expected = reference_year_states(analysis, PDNS_YEARS, how)
            actual = analysis.year_states()
            assert actual == expected, how
            for year in PDNS_YEARS:
                assert list(actual[year]) == list(expected[year]), (how, year)


class TestZoneLookupProperties:
    @settings(max_examples=50)
    @given(st.lists(LABEL, min_size=1, max_size=10, unique=True), st.data())
    def test_every_in_zone_name_classifies(self, labels, data):
        zone = Zone(DnsName.parse("gov.zz"))
        zone.add_records(
            DnsName.parse("gov.zz"), NS(DnsName.parse("ns1.gov.zz"))
        )
        delegated = []
        for index, label in enumerate(labels):
            name = DnsName.parse(f"{label}.gov.zz")
            if index % 2 == 0:
                zone.add_records(name, NS(DnsName.parse(f"ns1.{name}")))
                delegated.append(name)
        probe_label = data.draw(LABEL)
        probe = DnsName.parse(f"{probe_label}.gov.zz")
        result = zone.lookup(probe, RRType.A)
        assert result.status in (
            LookupStatus.ANSWER,
            LookupStatus.REFERRAL,
            LookupStatus.NXDOMAIN,
            LookupStatus.NODATA,
            LookupStatus.CNAME,
        )
        if result.status == LookupStatus.REFERRAL:
            assert result.delegation is not None
            assert probe.is_subdomain_of(result.delegation.name)

    @settings(max_examples=50)
    @given(st.lists(LABEL, min_size=1, max_size=6, unique=True))
    def test_delegations_always_referred(self, labels):
        zone = Zone(DnsName.parse("gov.zz"))
        zone.add_records(
            DnsName.parse("gov.zz"), NS(DnsName.parse("ns1.gov.zz"))
        )
        for label in labels:
            child = DnsName.parse(f"{label}.gov.zz")
            zone.add_records(child, NS(DnsName.parse(f"ns1.{child}")))
        for label in labels:
            below = DnsName.parse(f"www.{label}.gov.zz")
            result = zone.lookup(below, RRType.A)
            assert result.status == LookupStatus.REFERRAL
            assert result.delegation.name == DnsName.parse(f"{label}.gov.zz")


class TestPdnsProperties:
    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(NAME, st.floats(min_value=0, max_value=1e9)),
            min_size=1,
            max_size=30,
        )
    )
    def test_observation_merge_invariants(self, observations):
        db = PdnsDatabase()
        for name, timestamp in observations:
            db.observe(name, RRType.NS, "ns1.x.", timestamp)
        for record in db:
            assert record.first_seen <= record.last_seen
            assert record.count >= 1
        # Total observation count is conserved.
        assert sum(r.count for r in db) == len(observations)

    @settings(max_examples=40)
    @given(st.lists(NAME, min_size=1, max_size=25))
    def test_wildcard_is_exactly_the_subtree(self, names):
        db = PdnsDatabase()
        for index, name in enumerate(names):
            db.observe(name, RRType.NS, f"ns{index}.x.", float(index))
        for suffix in names[:5]:
            matched = {r.rrname for r in db.wildcard_left(suffix)}
            expected = {
                r.rrname for r in db if r.rrname.is_subdomain_of(suffix)
            }
            assert matched == expected


class TestPriceModelProperties:
    @given(NAME, st.integers(min_value=0, max_value=3))
    def test_quotes_stable_across_instances(self, name, salt_index):
        salt = str(salt_index)
        a = PriceModel(salt=salt).quote(name)
        b = PriceModel(salt=salt).quote(name)
        assert a == b

    @given(st.lists(NAME, min_size=20, max_size=60, unique=True))
    def test_tier_mixture_present_in_bulk(self, names):
        model = PriceModel()
        tiers = {model.quote(name)[1] for name in names}
        # With dozens of names, at least two pricing tiers appear.
        assert len(tiers) >= 2


class TestRRsetProperties:
    @given(st.lists(NAME, min_size=1, max_size=6, unique=True), st.randoms())
    def test_equality_order_insensitive(self, targets, rng):
        owner = DnsName.parse("x.gov.zz")
        rdatas = [NS(t) for t in targets]
        shuffled = list(rdatas)
        rng.shuffle(shuffled)
        a = RRset(owner, RRType.NS, 300, tuple(rdatas))
        b = RRset(owner, RRType.NS, 300, tuple(shuffled))
        assert a == b and hash(a) == hash(b)


# Messages over small pools, so equal and near-equal pairs are common.
MSG_NAME = st.sampled_from(
    [DnsName.parse(text) for text in ("gov.zz", "a.gov.zz", "ns.a.gov.zz")]
)
MSG_A = st.integers(min_value=1, max_value=3).map(
    lambda value: A(IPv4Address(value))
)


@st.composite
def msg_rrset(draw):
    rdata = draw(st.sampled_from((MSG_NAME.map(NS), MSG_A)))
    return RRset.of(
        draw(MSG_NAME),
        draw(st.lists(rdata, min_size=1, max_size=3)),
        ttl=draw(st.sampled_from((300, 3600))),
    )


MSG_SECTION = st.lists(msg_rrset(), max_size=2).map(tuple)
MESSAGE = st.builds(
    Message,
    question=st.builds(
        Question, MSG_NAME, st.sampled_from((RRType.NS, RRType.A))
    ),
    is_response=st.booleans(),
    rcode=st.sampled_from(sorted(Rcode.ALL)),
    aa=st.booleans(),
    answers=MSG_SECTION,
    authority=MSG_SECTION,
    additional=MSG_SECTION,
)


def rrset_key(rrset):
    """Reference RRset equality: owner, type, TTL and the rdata *set*."""
    return rrset.name, rrset.rrtype, rrset.ttl, frozenset(rrset.rdatas)


def message_key(message):
    """Reference Message equality: question, flags, rcode and the three
    sections in order, each RRset compared by :func:`rrset_key`."""
    return (
        message.question.qname,
        message.question.qtype,
        message.is_response,
        message.rcode,
        message.aa,
        tuple(rrset_key(r) for r in message.answers),
        tuple(rrset_key(r) for r in message.authority),
        tuple(rrset_key(r) for r in message.additional),
    )


def twin(message, rng):
    """An equal message built anew: every RRset's rdatas shuffled, one
    of them repeated."""

    def section(rrsets):
        out = []
        for rrset in rrsets:
            rdatas = list(rrset.rdatas)
            rng.shuffle(rdatas)
            rdatas.append(rng.choice(rdatas))
            out.append(RRset.of(rrset.name, rdatas, ttl=rrset.ttl))
        return tuple(out)

    return Message(
        question=Question(message.question.qname, message.question.qtype),
        is_response=message.is_response,
        rcode=message.rcode,
        aa=message.aa,
        answers=section(message.answers),
        authority=section(message.authority),
        additional=section(message.additional),
    )


class TestMessageProperties:
    """``Message`` compares its packed bytes; these check that against
    field-by-field reference semantics."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equality_hash_and_order_match_reference(self, data):
        a = data.draw(MESSAGE)
        b = data.draw(
            st.one_of(MESSAGE, st.randoms().map(lambda rng: twin(a, rng)))
        )
        assert (a == b) == (message_key(a) == message_key(b))
        if a == b:
            assert hash(a) == hash(b)
        assert [a < b, b < a, a == b].count(True) == 1

    @given(MESSAGE)
    def test_fingerprint_is_packed(self, message):
        assert message.fingerprint == message.packed


# Serving-path kernels against the expressions they replaced.
IPV4 = st.integers(min_value=0, max_value=0xFFFFFFFF)
CIDR = st.builds(
    lambda value, length: IPv4Prefix(
        value & IPv4Prefix.mask_for(length), length
    ),
    IPV4,
    st.integers(min_value=0, max_value=32),
)


class TestServingKernelProperties:
    @given(
        st.lists(IPV4.map(IPv4Address), max_size=6),
        st.lists(CIDR, max_size=4),
        st.lists(IPV4.map(IPv4Address), max_size=8),
    )
    def test_target_set_matches_reference(self, addresses, prefixes, probes):
        if not addresses and not prefixes:
            return
        targets = _TargetSet(list(addresses) + list(prefixes))
        # Random probes rarely land in a long prefix, so also probe each
        # prefix's edges and the addresses just outside them.
        edges = [
            IPv4Address(value)
            for prefix in prefixes
            for value in (
                prefix.network - 1,
                prefix.network,
                prefix.network + prefix.size - 1,
                prefix.network + prefix.size,
            )
            if 0 <= value <= 0xFFFFFFFF
        ]
        for address in list(probes) + list(addresses) + edges:
            expected = address in frozenset(addresses) or any(
                prefix.contains(address) for prefix in prefixes
            )
            assert targets.matches(address) == expected

    @given(st.data())
    def test_health_order_matches_reference(self, data):
        pool = data.draw(
            st.lists(IPV4.map(IPv4Address), min_size=1, max_size=8, unique=True)
        )
        health = UpstreamHealth(SimulatedClock(now=0.0))
        # A few distinct RTTs, silence (the timeout SRTT) and never-seen
        # addresses (the default SRTT) make ties common.
        for address in pool:
            for rtt in data.draw(
                st.lists(st.sampled_from((None, 0.05, 0.25, 3.0)), max_size=3)
            ):
                health.observe(address, rtt)
        candidates = data.draw(st.lists(st.sampled_from(pool), max_size=12))
        assert health.order(candidates) == sorted(
            dict.fromkeys(candidates),
            key=lambda address: (health.srtt(address), address),
        )


# Generated probe results for the streamed dataset digest.  ``iso2`` is
# free text so non-ASCII escaping is exercised; outcome maps key on
# addresses so their sorted serialization is too.
ADDRESS = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address)
OUTCOME = st.sampled_from(
    (
        ServerOutcome.ANSWER,
        ServerOutcome.NODATA,
        ServerOutcome.REFUSED,
        ServerOutcome.SERVFAIL,
        ServerOutcome.TIMEOUT,
    )
)


def probe_results(address):
    """Generated probe results whose servers' addresses, outcome maps
    and retry-round priors all draw from ``address``."""
    server = st.builds(
        ServerProbe,
        hostname=NAME,
        resolvable=st.booleans(),
        addresses=st.lists(address, max_size=3).map(tuple),
        outcomes=st.dictionaries(address, OUTCOME, max_size=3),
        ns_by_address=st.dictionaries(
            address, st.lists(NAME, max_size=2).map(tuple), max_size=2
        ),
        prior_outcomes=st.dictionaries(address, OUTCOME, max_size=2),
    )
    return st.builds(
        ProbeResult,
        domain=NAME,
        iso2=st.text(max_size=3),
        parent_status=st.sampled_from(
            (
                ParentStatus.REFERRAL,
                ParentStatus.ANSWER,
                ParentStatus.EMPTY,
                ParentStatus.NO_RESPONSE,
            )
        ),
        parent_ns=st.lists(NAME, max_size=3).map(tuple),
        child_ns=st.lists(NAME, max_size=3).map(tuple),
        servers=st.lists(server, max_size=3).map(
            lambda servers: {server.hostname: server for server in servers}
        ),
        queries_sent=st.integers(min_value=0, max_value=10_000),
        retried=st.booleans(),
    )


PROBE_RESULT = probe_results(ADDRESS)
# A three-address pool, so priors land on swept addresses and a
# server's outcomes often share one verdict class.
POOLED_RESULT = probe_results(
    st.integers(min_value=1, max_value=3).map(IPv4Address)
)


class TestStreamedDatasetDigest:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(PROBE_RESULT, max_size=6, unique_by=lambda r: r.domain))
    @example([])
    def test_streamed_digest_equals_one_blob(self, results):
        by_domain = {result.domain: result for result in results}
        assert dataset_digest(MeasurementDataset(by_domain)) == (
            one_blob_digest(by_domain)
        )

    @settings(deadline=None)
    @given(PROBE_RESULT)
    def test_single_row_digest_equals_one_blob(self, result):
        by_domain = {result.domain: result}
        assert dataset_digest(MeasurementDataset(by_domain)) == (
            one_blob_digest(by_domain)
        )


class TestRowFidelity:
    """Sharded workers ship canonical rows and the merged dataset's
    digest streams them, so decoding must be exact in both directions."""

    @settings(max_examples=150, deadline=None)
    @given(PROBE_RESULT)
    def test_decoded_row_is_the_result(self, result):
        assert result_from_row(result_row(result)) == result

    @settings(max_examples=150, deadline=None)
    @given(PROBE_RESULT)
    def test_row_of_the_decoded_result_is_the_row(self, result):
        row = result_row(result)
        assert result_row(result_from_row(row)) == row


class TestColumnsMatchResultProperties:
    """The fused column pass against the per-result properties it
    replaces, over generated results (every outcome kind, retried or
    not, any parent status)."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(POOLED_RESULT, max_size=6, unique_by=lambda r: r.domain))
    def test_columns_match_result_properties(self, results):
        by_domain = {result.domain: result for result in results}
        columns = DatasetColumns.build(by_domain)
        for i, result in enumerate(by_domain.values()):
            assert (columns.responsive[i] == 1) == result.responsive
            assert (
                PERSISTENCE_CODES[columns.persistence[i]]
                == result.failure_persistence
            )
            defective = tuple(
                hostname
                for hostname, server in result.servers.items()
                if server.defective
            )
            assert columns.defective_ns[i] == defective
            provisional = bool(defective) and all(
                result.servers[hostname].defect_confidence == "provisional"
                for hostname in defective
            )
            assert (columns.defect_provisional[i] == 1) == (
                result.parent_nonempty and provisional
            )
            if not result.parent_nonempty:
                assert columns.defect_verdict[i] == UNCLASSIFIED


def lowered(labels):
    return tuple(label.lower() for label in labels)


class TestDnsNameProperties:
    """The hash-consed name kernel against plain label-tuple semantics,
    over label tuples of mixed case."""

    @given(MIXED_LABELS, MIXED_LABELS, st.booleans())
    def test_one_instance_per_lowered_label_tuple(self, a, b, respell):
        if respell:
            b = tuple(label.swapcase() for label in a)
        same = lowered(a) == lowered(b)
        assert (DnsName(a) is DnsName(b)) == same
        assert (DnsName(a) == DnsName(b)) == same
        assert (DnsName(a) != DnsName(b)) != same
        assert DnsName(list(a)) is DnsName(a)

    @given(MIXED_LABELS)
    def test_hash_is_the_label_tuple_hash(self, labels):
        name = DnsName(labels)
        assert name.labels == lowered(labels)
        assert hash(name) == hash(name.labels)

    @given(MIXED_LABELS, MIXED_LABELS)
    def test_order_is_reversed_label_order(self, a, b):
        first, second = DnsName(a), DnsName(b)
        reference = tuple(reversed(lowered(a))), tuple(reversed(lowered(b)))
        assert (first < second) == (reference[0] < reference[1])
        assert (first <= second) == (reference[0] <= reference[1])
        assert sorted([first, second]) == sorted(
            [first, second], key=lambda n: tuple(reversed(n.labels))
        )

    @given(MIXED_LABELS)
    def test_round_trips_return_the_interned_instance(self, labels):
        name = DnsName(labels)
        assert DnsName.parse(str(name)) is name
        assert DnsName.parse(str(name).upper()) is name
        assert pickle.loads(pickle.dumps(name)) is name
        assert copy.deepcopy(name) is name
        assert copy.copy(name) is name

    @given(MIXED_LABELS, MIXED_LABELS, MIXED_LABEL)
    def test_derived_names_are_interned(self, a, b, label):
        name, other = DnsName(a), DnsName(b)
        labels = name.labels
        if labels:
            assert name.parent() is DnsName(labels[1:])
        assert name.prepend(label) is DnsName((label,) + a)
        assert name.concat(other) is DnsName(a + b)
        assert list(name.ancestors(include_self=True)) == [
            DnsName(labels[i:]) for i in range(len(labels) + 1)
        ]
        for ancestor, i in zip(name.ancestors(), range(1, len(labels) + 1)):
            assert ancestor is DnsName(labels[i:])
        for level in range(len(labels) + 1):
            assert name.slice_to_level(level) is DnsName(
                labels[len(labels) - level:]
            )

    @given(
        MIXED_LABELS,
        st.sampled_from(["", "a" * 64, "a.b", "a b", "caf\u00e9", "x!"]),
        st.integers(min_value=0, max_value=4),
    )
    def test_an_invalid_label_still_raises(self, labels, bad, position):
        spelled = labels[:position] + (bad,) + labels[position:]
        with pytest.raises(NameError_):
            DnsName(spelled)
        with pytest.raises(NameError_):
            DnsName(list(spelled))
