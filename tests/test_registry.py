"""Tests for repro.registry: TLD policies, whois, registrar pricing."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.name import DnsName
from repro.inet.clock import date_to_epoch
from repro.registry.registrar import PriceModel, Registrar
from repro.registry.tld import SuffixPolicy, TldPolicy, TldRegistry
from repro.registry.whois import ArchiveIndex, WhoisDatabase, WhoisRecord

N = DnsName.parse


def build_registry():
    tlds = TldRegistry()
    au = TldPolicy(tld=N("au"), operator="auDA", country="AU")
    au.add_suffix(SuffixPolicy(suffix=N("gov.au"), government_reserved=True))
    au.add_suffix(SuffixPolicy(suffix=N("com.au"), government_reserved=False))
    tlds.add(au)
    la = TldPolicy(tld=N("la"), operator="LANIC", country="LA")
    la.add_suffix(
        SuffixPolicy(
            suffix=N("gov.la"), government_reserved=True, documented=False
        )
    )
    tlds.add(la)
    tlds.add(TldPolicy(tld=N("com"), operator="Verisign", country="US"))
    return tlds


class TestTldRegistry:
    def test_duplicate_tld_rejected(self):
        tlds = build_registry()
        with pytest.raises(ValueError):
            tlds.add(TldPolicy(tld=N("au"), operator="x", country="AU"))

    def test_suffix_must_be_under_tld(self):
        policy = TldPolicy(tld=N("au"), operator="x", country="AU")
        with pytest.raises(ValueError):
            policy.add_suffix(SuffixPolicy(suffix=N("gov.uk"), government_reserved=True))

    def test_public_suffixes_include_tlds_and_seconds(self):
        suffixes = build_registry().public_suffixes()
        assert N("au") in suffixes
        assert N("gov.au") in suffixes
        assert N("com") in suffixes

    def test_government_reservation_requires_documentation(self):
        tlds = build_registry()
        assert tlds.is_government_reserved(N("gov.au"))
        # gov.la is reserved but undocumented — a researcher cannot
        # verify it (the paper's laogov case).
        assert not tlds.is_government_reserved(N("gov.la"))
        assert not tlds.is_government_reserved(N("com.au"))
        assert not tlds.is_government_reserved(N("gov.zz"))

    def test_suffix_policy_lookup(self):
        tlds = build_registry()
        assert tlds.suffix_policy(N("gov.au")).government_reserved
        assert tlds.suffix_policy(N("nothere.au")) is None
        assert tlds.suffix_policy(N("au")) is None


class TestWhois:
    def test_lookup_and_expiry(self):
        db = WhoisDatabase()
        record = WhoisRecord(
            domain=N("example.com"),
            registrant="Example Org",
            registrant_is_government=False,
            created_at=date_to_epoch(2010),
            expires_at=date_to_epoch(2020),
        )
        db.add(record)
        assert db.lookup(N("example.com")) is record
        assert db.is_registered(N("example.com"), now=date_to_epoch(2015))
        assert not db.is_registered(N("example.com"), now=date_to_epoch(2021))
        assert not db.is_registered(N("other.com"))

    def test_remove(self):
        db = WhoisDatabase()
        db.add(
            WhoisRecord(N("x.com"), "X", False, 0.0, 1.0)
        )
        db.remove(N("x.com"))
        assert db.lookup(N("x.com")) is None

    def test_archive_keeps_earliest(self):
        archive = ArchiveIndex()
        archive.record_snapshot(N("regjeringen.no"), date_to_epoch(2008))
        archive.record_snapshot(N("regjeringen.no"), date_to_epoch(2005))
        archive.record_snapshot(N("regjeringen.no"), date_to_epoch(2012))
        assert archive.earliest_government_snapshot(
            N("regjeringen.no")
        ) == date_to_epoch(2005)
        assert archive.earliest_government_snapshot(N("x.com")) is None


class TestPriceModel:
    def test_deterministic(self):
        model = PriceModel()
        assert model.quote(N("example.com")) == model.quote(N("example.com"))

    def test_salt_changes_prices(self):
        a = PriceModel(salt="a")
        b = PriceModel(salt="b")
        names = [N(f"host{i}.com") for i in range(50)]
        assert any(a.quote(n) != b.quote(n) for n in names)

    def test_tiers_cover_expected_ranges(self):
        model = PriceModel()
        for index in range(300):
            price, tier = model.quote(N(f"deadhoster{index}.net"))
            if tier == "promo":
                assert 0.01 <= price < 5.0
            elif tier == "standard":
                assert 8.0 <= price <= 18.0
            else:
                assert 50.0 <= price <= 20_000.0

    def test_distribution_median_near_list_price(self):
        model = PriceModel()
        prices = sorted(
            model.quote(N(f"middling-host-{i}.com"))[0] for i in range(1001)
        )
        assert 8.0 <= prices[500] <= 18.0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            PriceModel(promo_fraction=0.6, premium_fraction=0.5)
        with pytest.raises(ValueError):
            PriceModel(premium_min=100, premium_max=50)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_all_prices_in_global_bounds(self, index):
        price, _ = PriceModel().quote(N(f"n{index}.org"))
        assert 0.01 <= price <= 20_000.0


class TestRegistrar:
    def make(self):
        tlds = build_registry()
        whois = WhoisDatabase()
        whois.add(
            WhoisRecord(N("taken.com"), "Owner", False, 0.0, date_to_epoch(2030))
        )
        return Registrar(tlds, whois), whois

    def test_available_domain_quoted(self):
        registrar, _ = self.make()
        quote = registrar.check(N("ns1.freehoster.com"))
        assert quote.available
        assert quote.domain == N("freehoster.com")
        assert quote.price_usd is not None

    def test_registered_domain_unavailable(self):
        registrar, _ = self.make()
        quote = registrar.check(N("ns1.taken.com"))
        assert not quote.available

    def test_expired_domain_available_again(self):
        registrar, whois = self.make()
        whois.add(
            WhoisRecord(N("lapsed.com"), "Old", False, 0.0, date_to_epoch(2015))
        )
        quote = registrar.check(N("lapsed.com"), now=date_to_epoch(2021))
        assert quote.available

    def test_government_suffix_not_registrable(self):
        registrar, _ = self.make()
        quote = registrar.check(N("ns1.defunct.gov.au"))
        assert not quote.available

    def test_open_second_level_registrable(self):
        registrar, _ = self.make()
        quote = registrar.check(N("ns1.shop.com.au"))
        assert quote.available
        assert quote.domain == N("shop.com.au")

    def test_unknown_tld_not_registrable(self):
        registrar, _ = self.make()
        assert not registrar.check(N("ns1.host.zz")).available

    def test_suffix_itself_not_registrable(self):
        registrar, _ = self.make()
        assert registrar.registrable_domain(N("gov.au")) is None
        assert registrar.registrable_domain(N("com")) is None

    def test_register_flow(self):
        registrar, whois = self.make()
        record = registrar.register(
            N("newhost.com"), "Someone", now=date_to_epoch(2021)
        )
        assert whois.is_registered(N("newhost.com"))
        assert record.registrant == "Someone"
        with pytest.raises(ValueError):
            registrar.register(N("newhost.com"), "Else", now=date_to_epoch(2021))

    def test_register_rejects_non_registrable(self):
        registrar, _ = self.make()
        with pytest.raises(ValueError):
            registrar.register(N("gov.au"), "Evil", now=0.0)
