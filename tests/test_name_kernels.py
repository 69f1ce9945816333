"""The interned-name and cached-query hot-path kernels.

Campaign profiles put ``DnsName.__hash__``/``__eq__`` and query
construction at the top of the cProfile table (EXPERIMENTS.md), so both
got constant-factor kernels: every distinct name is one interned
object (making equality an identity test and hashing cached) and every
(qname, qtype) query is built once.  These tests pin the *semantics*
those kernels must preserve — observable behaviour identical to the
naive implementations — plus the identity guarantees the fast paths
rely on.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.dns.message import Message, make_query
from repro.dns.name import DnsName, parse_cached
from repro.dns.rdata import RRType


class TestInterning:
    def test_equal_names_share_one_label_tuple(self):
        first = DnsName.parse("www.GOV.au")
        second = DnsName(("www", "gov", "au"))
        assert first == second
        assert first._labels is second._labels

    def test_distinct_names_do_not_compare_equal(self):
        assert DnsName.parse("gov.au") != DnsName.parse("gov.uk")
        assert DnsName.parse("gov.au") != "gov.au."

    def test_derived_names_are_interned_too(self):
        parent = DnsName.parse("www.gov.au").parent()
        assert parent._labels is DnsName.parse("gov.au")._labels

    def test_hash_equals_tuple_hash_contract(self):
        name = DnsName.parse("health.gov.au")
        assert hash(name) == hash(DnsName(("health", "gov", "au")))
        assert len({name, DnsName.parse("HEALTH.gov.AU")}) == 1

    def test_subdomain_identity_fast_path(self):
        name = DnsName.parse("gov.au")
        assert name.is_subdomain_of(DnsName.parse("gov.au"))
        assert not name.is_proper_subdomain_of(DnsName.parse("gov.au"))
        assert DnsName.parse("x.gov.au").is_proper_subdomain_of(name)

    def test_sort_order_matches_reversed_label_reference(self):
        names = [
            DnsName.parse(text)
            for text in (
                "gov.au", "www.gov.au", "gov.uk", "au", "health.gov.au",
                "a.au", "zz.gov.au",
            )
        ]
        reference = sorted(names, key=lambda n: tuple(reversed(n.labels)))
        assert sorted(names) == reference

    def test_wire_form_golden(self):
        assert DnsName.parse("gov.au").wire == b"\x03gov\x02au\x00"
        assert DnsName(()).wire == b"\x00"

    def test_immutability_still_enforced(self):
        name = DnsName.parse("gov.au")
        with pytest.raises(AttributeError):
            name._labels = ("x",)

    def test_validation_unchanged(self):
        with pytest.raises(ValueError):
            DnsName(("a" * 64,))
        with pytest.raises(ValueError):
            DnsName(("",))
        with pytest.raises(ValueError):
            DnsName.parse(".".join("abcdefgh" for _ in range(32)))

    def test_pickle_round_trip_reinterns(self):
        name = DnsName.parse("www.gov.au")
        clone = pickle.loads(pickle.dumps(name))
        assert clone == name
        assert clone._labels is name._labels  # re-interned on load

    def test_deepcopy_preserves_interning(self):
        name = DnsName.parse("www.gov.au")
        clone = copy.deepcopy(name)
        assert clone == name
        assert clone._labels is name._labels

    def test_parse_cached_returns_identical_object(self):
        assert parse_cached("gov.au") is parse_cached("gov.au")
        assert parse_cached("gov.au") == DnsName.parse("gov.au")


class TestCachedQueries:
    def test_same_question_is_one_shared_message(self):
        first = make_query(DnsName.parse("gov.au"), RRType.NS)
        second = make_query(DnsName.parse("GOV.au"), RRType.NS)
        assert first is second

    def test_distinct_questions_are_distinct(self):
        ns = make_query(DnsName.parse("gov.au"), RRType.NS)
        a = make_query(DnsName.parse("gov.au"), RRType.A)
        other = make_query(DnsName.parse("gov.uk"), RRType.NS)
        assert ns is not a and ns is not other

    def test_cached_query_shape(self):
        query = make_query(DnsName.parse("gov.au"), RRType.SOA)
        assert isinstance(query, Message)
        assert query.question.qname == DnsName.parse("gov.au")
        assert query.question.qtype == RRType.SOA
