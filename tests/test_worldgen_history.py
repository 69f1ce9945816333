"""Tests for the longitudinal history builder."""

from dataclasses import replace

import pytest

from repro.dns.rdata import RRType
from repro.inet.clock import SECONDS_PER_DAY
from repro.pdns.database import PdnsDatabase
from repro.pdns.filtering import stable_records
from repro.worldgen.config import YEARS, WorldConfig
from repro.worldgen.countries import build_profiles
from repro.worldgen.providers import PROVIDERS
from repro.worldgen.history import HistoryBuilder


@pytest.fixture(scope="module")
def history():
    config = WorldConfig(seed=11, scale=0.01)
    builder = HistoryBuilder(config, build_profiles())
    result = builder.build()
    return config, builder, result


class TestPopulations:
    def test_yearly_totals_track_curve(self, history):
        config, _, result = history
        for index, year in enumerate(YEARS):
            alive = sum(1 for d in result.domains if d.alive_in(year))
            target = config.domains_per_year[index] * config.scale
            assert alive == pytest.approx(target, rel=0.12)

    def test_2020_dip(self, history):
        _, _, result = history
        alive_2019 = sum(1 for d in result.domains if d.alive_in(2019))
        alive_2020 = sum(1 for d in result.domains if d.alive_in(2020))
        assert alive_2020 < alive_2019

    def test_china_drives_the_dip(self, history):
        _, _, result = history
        cn = [d for d in result.domains if d.iso2 == "CN"]
        cn_2019 = sum(1 for d in cn if d.alive_in(2019))
        cn_2020 = sum(1 for d in cn if d.alive_in(2020))
        assert cn_2020 < cn_2019

    def test_every_country_contributes(self, history):
        _, _, result = history
        assert len(result.by_country) == 193

    def test_eras_are_contiguous(self, history):
        _, _, result = history
        for domain in result.domains:
            previous_end = None
            for era in domain.eras:
                assert era.start_year <= era.end_year
                if previous_end is not None:
                    assert era.start_year == previous_end + 1
                previous_end = era.end_year

    def test_era_lookup(self, history):
        _, _, result = history
        domain = next(d for d in result.domains if len(d.eras) > 1)
        for era in domain.eras:
            assert domain.era_in(era.start_year) is era

    def test_single_ns_domains_have_one_hostname(self, history):
        _, _, result = history
        singles = [d for d in result.domains if d.single_ns]
        assert singles
        for domain in singles:
            for era in domain.eras:
                assert era.ns_count == 1

    def test_single_ns_churn_rate(self, history):
        config, _, result = history
        cohort = [
            d for d in result.domains if d.single_ns and d.alive_in(2011)
        ]
        survivors = [d for d in cohort if d.alive_in(2020)]
        # ~16%/yr death compounds to ~21% survival over nine years.
        assert 0.08 < len(survivors) / len(cohort) < 0.40

    def test_disposables_marked_and_plausible(self, history):
        config, _, result = history
        disposable = [d for d in result.domains if d.disposable]
        share = len(disposable) / len(result.domains)
        assert 0.15 < share < 0.32
        for domain in disposable[:20]:
            assert len(domain.name.labels[0]) >= 10


class TestClusters:
    def test_cluster_members_rehomed_under_root(self, history):
        _, _, result = history
        roots = {c.root for c in result.clusters}
        assert roots
        members = [
            d for d in result.domains if d.cluster and d.name not in roots
        ]
        assert members
        for member in members:
            assert member.parent in roots
            assert member.name.is_subdomain_of(member.parent)
            assert member.death_year == 2020

    def test_cluster_roots_alive_with_stale_delegation(self, history):
        _, _, result = history
        roots = {c.root for c in result.clusters}
        root_domains = [d for d in result.domains if d.name in roots]
        assert len(root_domains) == len(roots)
        for domain in root_domains:
            assert domain.death_year is None


class TestTargets:
    def test_targets_exclude_disposables(self, history):
        _, _, result = history
        for domain in result.targets():
            assert not domain.disposable

    def test_targets_seen_in_window(self, history):
        _, _, result = history
        for domain in result.targets():
            assert domain.death_year is None or domain.death_year >= 2020


class TestAdoption:
    def test_restricted_providers_stay_home(self, history):
        _, builder, _ = history
        assert builder.adoption_for("hichina", "CN") is not None
        assert builder.adoption_for("hichina", "US") is None

    def test_country_counts_match_anchors(self, history):
        _, builder, _ = history
        by_2011 = sum(
            1
            for (key, iso2), year in builder._adoption.items()
            if key == "cloudflare" and year <= 2011
        )
        by_2020 = sum(
            1
            for (key, iso2), year in builder._adoption.items()
            if key == "cloudflare" and year <= 2020
        )
        assert by_2011 == 9
        assert by_2020 == 85


class TestPdnsEmission:
    def test_emission_writes_all_eras(self, history):
        config, builder, result = history
        db = PdnsDatabase()
        rows = builder.emit_pdns(result, db)
        assert rows > 0
        assert len(db) > 0
        # Every non-disposable alive domain must appear.
        sample = [d for d in result.domains if d.alive_at_probe][:50]
        for domain in sample:
            assert db.lookup(domain.name, RRType.NS)

    def test_transient_noise_filtered_by_stability(self, history):
        config, builder, result = history
        db = PdnsDatabase()
        builder.emit_pdns(result, db)
        all_rows = list(db)
        stable = stable_records(all_rows)
        assert len(stable) < len(all_rows)
        for row in all_rows:
            if row.rdata.startswith("tmp-ns."):
                assert row.duration < 7 * SECONDS_PER_DAY

    def test_vanity_soa_uses_the_builders_own_providers(self):
        # A catalog whose keys are not in the module-level PROVIDERS:
        # emission must find each vanity era's spec in the builder's
        # own providers (it raised a bare StopIteration before).
        providers = [replace(p, key=p.key + "-x") for p in PROVIDERS]
        builder = HistoryBuilder(
            WorldConfig(seed=11, scale=0.01), build_profiles(), providers=providers
        )
        result = builder.build()
        vanity = [
            (domain, era)
            for domain in result.domains
            for era in domain.eras
            if era.vanity
        ]
        assert vanity
        db = PdnsDatabase()
        builder.emit_pdns(result, db)
        specs = {spec.key: spec for spec in providers}
        for domain, era in vanity:
            mname = specs[era.provider_key].make_ns_set(1)[0].rstrip(".") + "."
            rdatas = [row.rdata for row in db.lookup(domain.name, RRType.SOA)]
            assert any(rdata.startswith(mname + " ") for rdata in rdatas)
