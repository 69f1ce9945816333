"""Tests for repro.dns.rdata, rrset, and message."""

import pytest

from repro.dns.message import Question, Rcode, make_query, make_response
from repro.dns.name import ROOT, DnsName
from repro.dns.rdata import AAAA, CNAME, MX, NS, PTR, RRType, SOA, TXT, A
from repro.dns.rrset import RRset
from repro.inet.address import IPv4Address

N = DnsName.parse
IP = IPv4Address.parse


class TestRdata:
    def test_types_carry_rrtype(self):
        assert NS(N("ns1.gov.au")).rrtype == RRType.NS
        assert A(IP("1.2.3.4")).rrtype == RRType.A
        assert SOA(N("ns1.x"), N("admin.x")).rrtype == RRType.SOA

    def test_validate_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            RRType.validate("SRV")

    def test_str_forms(self):
        assert str(NS(N("ns1.gov.au"))) == "ns1.gov.au."
        assert str(A(IP("1.2.3.4"))) == "1.2.3.4"
        assert str(MX(10, N("mail.gov.au"))) == "10 mail.gov.au."
        assert str(TXT("hello world")) == '"hello world"'
        assert str(PTR(N("research.example.edu"))) == "research.example.edu."
        assert str(AAAA("2001:db8::1")) == "2001:db8::1"

    def test_soa_str_has_all_fields(self):
        soa = SOA(N("ns1.x"), N("admin.x"), serial=42)
        assert "42" in str(soa)
        assert str(soa).split()[0] == "ns1.x."

    def test_rdata_equality(self):
        assert NS(N("a.b")) == NS(N("A.B"))
        assert NS(N("a.b")) != NS(N("a.c"))


class TestRRset:
    def test_of_infers_type(self):
        rrset = RRset.of(N("gov.au"), [NS(N("ns1.gov.au")), NS(N("ns2.gov.au"))])
        assert rrset.rrtype == RRType.NS
        assert len(rrset) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RRset.of(N("gov.au"), [])

    def test_mixed_types_rejected(self):
        with pytest.raises(ValueError):
            RRset(N("x"), RRType.NS, 300, (NS(N("a.b")), A(IP("1.1.1.1"))))

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            RRset(N("x"), RRType.A, -1, (A(IP("1.1.1.1")),))

    def test_cname_singleton_enforced(self):
        with pytest.raises(ValueError):
            RRset(N("x"), RRType.CNAME, 300, (CNAME(N("a")), CNAME(N("b"))))

    def test_order_insensitive_equality(self):
        a = RRset.of(N("x"), [NS(N("n1.y")), NS(N("n2.y"))], ttl=60)
        b = RRset.of(N("x"), [NS(N("n2.y")), NS(N("n1.y"))], ttl=60)
        assert a == b
        assert hash(a) == hash(b)

    def test_same_data_ignores_ttl(self):
        a = RRset.of(N("x"), [NS(N("n1.y"))], ttl=60)
        b = a.with_ttl(3600)
        assert a != b
        assert a.same_data(b)

    def test_contains_and_iter(self):
        rrset = RRset.of(N("x"), [NS(N("n1.y")), NS(N("n2.y"))])
        assert NS(N("n1.y")) in rrset
        assert [str(r) for r in rrset] == ["n1.y.", "n2.y."]

    def test_str_one_line_per_record(self):
        rrset = RRset.of(N("x"), [NS(N("n1.y")), NS(N("n2.y"))], ttl=60)
        assert len(str(rrset).splitlines()) == 2


class TestMessage:
    def test_query_construction(self):
        query = make_query(N("gov.au"), RRType.NS)
        assert not query.is_response
        assert query.question == Question(N("gov.au"), RRType.NS)

    def test_question_validates_type(self):
        with pytest.raises(ValueError):
            Question(N("gov.au"), "BOGUS")

    def test_response_echoes_question(self):
        query = make_query(N("gov.au"), RRType.NS)
        response = make_response(query, rcode=Rcode.NXDOMAIN)
        assert response.is_response
        assert response.question == query.question

    def test_unknown_rcode_rejected(self):
        query = make_query(N("x"), RRType.A)
        with pytest.raises(ValueError):
            make_response(query, rcode="WEIRD")

    def test_authoritative_answer_predicate(self):
        query = make_query(N("gov.au"), RRType.NS)
        answer = RRset.of(N("gov.au"), [NS(N("ns1.gov.au"))])
        response = make_response(query, aa=True, answers=(answer,))
        assert response.is_authoritative_answer
        assert not response.is_referral

    def test_referral_predicate(self):
        query = make_query(N("x.gov.au"), RRType.NS)
        delegation = RRset.of(N("x.gov.au"), [NS(N("ns1.x.gov.au"))])
        response = make_response(query, authority=(delegation,))
        assert response.is_referral
        assert response.referral_target == N("x.gov.au")
        assert not response.is_upward_referral

    def test_upward_referral_detected(self):
        query = make_query(N("x.gov.au"), RRType.NS)
        root_ns = RRset.of(ROOT, [NS(N("a.root-servers.net"))])
        response = make_response(query, authority=(root_ns,))
        assert response.is_upward_referral

    def test_refused_is_not_referral(self):
        query = make_query(N("x"), RRType.NS)
        response = make_response(query, rcode=Rcode.REFUSED)
        assert not response.is_referral
        assert not response.is_authoritative_answer

    def test_glue_for(self):
        query = make_query(N("x.gov.au"), RRType.NS)
        delegation = RRset.of(N("x.gov.au"), [NS(N("ns1.x.gov.au"))])
        glue = RRset.of(N("ns1.x.gov.au"), [A(IP("1.2.3.4"))])
        response = make_response(
            query, authority=(delegation,), additional=(glue,)
        )
        assert response.glue_for(N("ns1.x.gov.au")) == (glue,)
        assert response.glue_for(N("ns2.x.gov.au")) == ()

    def test_answer_rrset_selects_type(self):
        query = make_query(N("x"), RRType.A)
        cname = RRset.of(N("x"), [CNAME(N("y"))])
        address = RRset.of(N("y"), [A(IP("1.1.1.1"))])
        response = make_response(query, aa=True, answers=(cname, address))
        assert response.answer_rrset(RRType.CNAME) is cname
        assert response.answer_rrset() is address  # defaults to qtype
