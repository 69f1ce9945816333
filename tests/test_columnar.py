"""Columnar dataset equivalence and packed wire-kernel semantics.

Two families of pins for the flat-data fast paths:

* The columnar store (`dataset.columns`) is a *derived index* — every
  verdict it holds must equal what the per-object ``classify`` methods
  and ``ProbeResult`` properties compute, and materializing it must
  never perturb the dataset digest.  The matrix below checks full
  campaigns across seeds and scales.
* The packed byte forms on ``Message``/``RRset`` replaced the
  historical frozenset-based equality; their semantics (order-
  insensitive, duplicate-collapsing within an RRset, section-order-
  sensitive across a message) are pinned here so a packing change that
  silently shifts equality shows up as a test failure, not as an
  analysis drift.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.core.consistency import ConsistencyAnalysis
from repro.core.dataset import (
    CONSISTENCY_CODES,
    MeasurementDataset,
    PERSISTENCE_CODES,
    UNCLASSIFIED,
)
from repro.core.delegation import DelegationAnalysis
from repro.core.journal import dataset_digest
from repro.core.study import GovernmentDnsStudy
from repro.dns import A, DnsName, NS
from repro.dns.message import Message, Question, Rcode, make_query
from repro.dns.rdata import RRType
from repro.dns.rrset import RRset
from repro.net import IPv4Address
from repro.worldgen import WorldConfig, WorldGenerator

# The ISSUE-7 acceptance matrix: three seeds, two scales.
MATRIX = [
    (5, 0.02),
    (7, 0.02),
    (11, 0.02),
    (5, 0.05),
    (7, 0.05),
    (11, 0.05),
]


@lru_cache(maxsize=None)
def campaign(seed: int, scale: float) -> MeasurementDataset:
    world = WorldGenerator(WorldConfig(seed=seed, scale=scale)).generate()
    return GovernmentDnsStudy(world).dataset()


# ----------------------------------------------------------------------
# Columnar store == per-object classification
# ----------------------------------------------------------------------
class TestColumnarEquivalence:
    @pytest.mark.parametrize("seed,scale", MATRIX)
    def test_digest_unchanged_by_column_materialization(self, seed, scale):
        dataset = campaign(seed, scale)
        before = dataset_digest(dataset)
        dataset._columns = None
        assert dataset.columns is not None  # force a fresh build
        assert dataset_digest(dataset) == before

    @pytest.mark.parametrize("seed,scale", MATRIX)
    def test_delegation_reports_match_legacy_classify(self, seed, scale):
        dataset = campaign(seed, scale)
        analysis = DelegationAnalysis(dataset)
        legacy = {
            result.domain: analysis.classify(result)
            for result in dataset
            if result.parent_nonempty
        }
        assert analysis.reports() == legacy

    @pytest.mark.parametrize("seed,scale", MATRIX)
    def test_consistency_reports_match_legacy_classify(self, seed, scale):
        dataset = campaign(seed, scale)
        analysis = ConsistencyAnalysis(dataset)
        legacy = {}
        for result in dataset:
            if not result.responsive:
                continue
            report = analysis.classify(result)
            if report is not None:
                legacy[result.domain] = report
        assert analysis.reports() == legacy

    @pytest.mark.parametrize("seed,scale", [(7, 0.02), (7, 0.05)])
    def test_scalar_columns_match_result_properties(self, seed, scale):
        dataset = campaign(seed, scale)
        columns = dataset.columns
        assert columns.domains == tuple(dataset.results)
        for i, result in enumerate(dataset):
            assert columns.iso2[i] == result.iso2
            assert columns.level[i] == result.level
            assert (columns.responsive[i] == 1) == result.responsive
            assert (columns.retried[i] == 1) == result.retried
            assert (
                PERSISTENCE_CODES[columns.persistence[i]]
                == result.failure_persistence
            )

    @pytest.mark.parametrize("seed,scale", [(7, 0.02), (7, 0.05)])
    def test_ns_count_column_matches_result_property(self, seed, scale):
        dataset = campaign(seed, scale)
        columns = dataset.columns
        for i, result in enumerate(dataset):
            if result.parent_ns or result.child_ns:
                assert columns.ns_count[i] == result.ns_count

    def test_population_slices_match_result_properties(self):
        dataset = campaign(7, 0.05)
        with_response = {
            r.domain for r in dataset if r.got_parent_response
        }
        assert {
            r.domain for r in dataset.with_parent_response()
        } == with_response
        nonempty = {r.domain for r in dataset if r.parent_nonempty}
        assert {
            r.domain for r in dataset.with_nonempty_parent()
        } == nonempty
        responsive = {r.domain for r in dataset if r.responsive}
        assert {r.domain for r in dataset.responsive()} == responsive

    def test_unclassified_sentinel_never_collides_with_codes(self):
        assert UNCLASSIFIED > len(CONSISTENCY_CODES)
        assert UNCLASSIFIED > len(PERSISTENCE_CODES)


# ----------------------------------------------------------------------
# Merge: column concatenation, admission order, collision reporting
# ----------------------------------------------------------------------
class TestColumnarMerge:
    def split(self, dataset, stride=2):
        ordered = sorted(dataset.results)
        return [
            MeasurementDataset(
                {d: dataset.results[d] for d in ordered[k::stride]}
            )
            for k in range(stride)
        ]

    def test_merge_digest_and_columns_match_unsharded(self):
        dataset = campaign(7, 0.02)
        merged = MeasurementDataset.merge(self.split(dataset))
        assert dataset_digest(merged) == dataset_digest(dataset)
        assert merged.columns.domains == dataset.columns.domains
        assert (
            merged.columns.defect_verdict
            == dataset.columns.defect_verdict
        )
        assert (
            merged.columns.consistency_verdict
            == dataset.columns.consistency_verdict
        )

    def test_collision_error_names_domain_and_shards(self):
        dataset = campaign(7, 0.02)
        domain = next(iter(sorted(dataset.results)))
        part = MeasurementDataset({domain: dataset.results[domain]})
        with pytest.raises(ValueError) as excinfo:
            MeasurementDataset.merge(
                [part, part], labels=["shard A", "shard B"]
            )
        message = str(excinfo.value)
        assert str(domain) in message
        assert "shard A" in message and "shard B" in message

    def test_collision_error_default_labels_are_shard_indices(self):
        dataset = campaign(7, 0.02)
        domain = next(iter(sorted(dataset.results)))
        part = MeasurementDataset({domain: dataset.results[domain]})
        with pytest.raises(
            ValueError, match=r"shard 0 and shard 1"
        ) as excinfo:
            MeasurementDataset.merge([part, part])
        assert str(domain) in str(excinfo.value)

    def test_merge_rejects_mismatched_label_count(self):
        dataset = campaign(7, 0.02)
        parts = self.split(dataset)
        with pytest.raises(ValueError, match="labels"):
            MeasurementDataset.merge(parts, labels=["only one"])


# ----------------------------------------------------------------------
# Packed wire kernels: the historical equality semantics, pinned
# ----------------------------------------------------------------------
NAME = DnsName.parse("example.gov.aa.")
NS1 = DnsName.parse("ns1.example.gov.aa.")
NS2 = DnsName.parse("ns2.example.gov.aa.")


def ns_set(*hostnames, ttl=3600, name=NAME):
    return RRset(name, RRType.NS, ttl, tuple(NS(h) for h in hostnames))


class TestPackedRRset:
    def test_equality_is_order_insensitive(self):
        assert ns_set(NS1, NS2) == ns_set(NS2, NS1)
        assert hash(ns_set(NS1, NS2)) == hash(ns_set(NS2, NS1))

    def test_equality_collapses_duplicates(self):
        # frozenset semantics: {a, b} == {b, a, a}
        assert ns_set(NS1, NS2) == ns_set(NS2, NS1, NS1)
        assert hash(ns_set(NS1, NS2)) == hash(ns_set(NS2, NS1, NS1))

    def test_name_type_ttl_and_members_are_distinguishing(self):
        base = ns_set(NS1, NS2)
        assert base != ns_set(NS1)
        assert base != ns_set(NS1, NS2, ttl=60)
        assert base != ns_set(NS1, NS2, name=NS1)
        a_set = RRset(
            NAME, RRType.A, 3600, (A(IPv4Address.parse("192.0.2.1")),)
        )
        assert base != a_set

    def test_same_data_ignores_ttl_only(self):
        assert ns_set(NS1, NS2).same_data(ns_set(NS2, NS1, ttl=60))
        assert not ns_set(NS1).same_data(ns_set(NS2))

    def test_ordering_is_total_and_consistent_with_equality(self):
        rrsets = [
            ns_set(NS1),
            ns_set(NS2),
            ns_set(NS1, NS2),
            ns_set(NS2, NS1),
            ns_set(NS1, ttl=60),
        ]
        for left in rrsets:
            for right in rrsets:
                assert (left == right) == (
                    not left < right and not right < left
                )
        ordered = sorted(rrsets)
        assert sorted(reversed(rrsets)) == ordered

    def test_packed_equality_matches_structural_equality(self):
        assert ns_set(NS1, NS2).packed == ns_set(NS2, NS1, NS1).packed
        assert ns_set(NS1).packed != ns_set(NS2).packed


class TestPackedMessage:
    def question(self):
        return Question(NAME, RRType.NS)

    def response(self, **kwargs):
        defaults = dict(
            question=self.question(),
            is_response=True,
            rcode=Rcode.NOERROR,
            aa=True,
            answers=(ns_set(NS1, NS2),),
        )
        defaults.update(kwargs)
        return Message(**defaults)

    def test_equality_ignores_rdata_order_within_rrsets(self):
        left = self.response(answers=(ns_set(NS1, NS2),))
        right = self.response(answers=(ns_set(NS2, NS1),))
        assert left == right
        assert hash(left) == hash(right)
        assert left.fingerprint == right.fingerprint

    def test_equality_respects_flags_rcode_and_sections(self):
        base = self.response()
        assert base != self.response(aa=False)
        assert base != self.response(rcode=Rcode.NXDOMAIN)
        assert base != self.response(answers=(), authority=(ns_set(NS1, NS2),))
        assert base != Message(question=Question(NS1, RRType.NS),
                               is_response=True, aa=True,
                               answers=(ns_set(NS1, NS2),))

    def test_query_equality_and_identity_cache(self):
        assert make_query(NAME, RRType.NS) is make_query(NAME, RRType.NS)
        assert make_query(NAME, RRType.NS) == Message(
            question=Question(NAME, RRType.NS)
        )
        assert make_query(NAME, RRType.NS) != make_query(NAME, RRType.A)

    def test_ordering_is_total_and_consistent_with_equality(self):
        messages = [
            make_query(NAME, RRType.NS),
            make_query(NAME, RRType.A),
            self.response(),
            self.response(rcode=Rcode.REFUSED, aa=False, answers=()),
            self.response(answers=(ns_set(NS2, NS1),)),
        ]
        for left in messages:
            for right in messages:
                assert (left == right) == (
                    not left < right and not right < left
                )
        assert sorted(reversed(messages)) == sorted(messages)

    def test_dedup_through_sets_matches_equality(self):
        # The probe pipeline dedups responses via set membership; the
        # packed hash must make structurally equal messages collapse.
        unique = {
            self.response(answers=(ns_set(NS1, NS2),)),
            self.response(answers=(ns_set(NS2, NS1),)),
            self.response(answers=(ns_set(NS2, NS1, NS1),)),
            self.response(rcode=Rcode.NXDOMAIN),
        }
        assert len(unique) == 2
