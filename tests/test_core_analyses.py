"""Tests for the §IV analyses: replication, diversity, provider
identification, centralization, delegation, consistency."""

import pytest

from repro.core.centralization import MAJOR_PROVIDERS, CentralizationAnalysis
from repro.core.consistency import ConsistencyClass
from repro.core.delegation import DelegationClass
from repro.core.provider_id import ProviderMatcher, base_domain_of
from repro.core.replication import CountryMapper
from repro.core.seeds import Seed
from repro.core.study import GovernmentDnsStudy
from repro.dns import DnsName, SOA
from repro.dns.rdata import RRType
from repro.inet.clock import SECONDS_PER_DAY, year_bounds
from repro.report import paperkit
from repro.worldgen import WorldConfig, WorldGenerator
from repro.worldgen.faults import Consistency
from repro.worldgen.generator import TargetStatus
from tests.conftest import TEST_SEED
from tests.ns_daily_reference import mode_of_daily_counts

N = DnsName.parse


class TestModeOfDailyCounts:
    def year(self):
        return year_bounds(2020)

    def test_single_stable_record(self):
        start, end = self.year()
        assert mode_of_daily_counts([(start, end - 1)], start, end) == 1

    def test_majority_wins(self):
        start, end = self.year()
        # Two NS all year, a third for only a month.
        intervals = [
            (start, end - 1),
            (start, end - 1),
            (start, start + 30 * SECONDS_PER_DAY),
        ]
        assert mode_of_daily_counts(intervals, start, end) == 2

    def test_ties_break_upward(self):
        start, end = self.year()
        half = start + (end - start) / 2
        intervals = [(start, end - 1), (half, end - 1)]
        # Half the year at 1, half at 2 → prefer 2.
        assert mode_of_daily_counts(intervals, start, end) == 2

    def test_no_active_days(self):
        start, end = self.year()
        before = start - 100 * SECONDS_PER_DAY
        assert mode_of_daily_counts([(before, before + 10)], start, end) == 0

    def test_clipping_to_year(self):
        start, end = self.year()
        intervals = [(start - 1e9, end + 1e9)]
        assert mode_of_daily_counts(intervals, start, end) == 1


class TestCountryMapper:
    def test_longest_suffix_wins(self, study):
        mapper = CountryMapper(study.seeds())
        assert mapper.country_of(N("x.gov.au")) == "AU"
        assert mapper.country_of(N("deep.thing.go.th")) == "TH"
        assert mapper.country_of(N("x.example.com")) is None

    @staticmethod
    def nested_mapper(reverse: bool) -> CountryMapper:
        seeds = [
            Seed("XX", N("gov.xx"), True, "link", True),
            Seed("AG", N("agency.gov.xx"), False, "msq", True),
            Seed("YY", N("gob.yy"), True, "link", True),
        ]
        if reverse:
            seeds.reverse()
        return CountryMapper({seed.iso2: seed for seed in seeds})

    @pytest.mark.parametrize("reverse", [False, True])
    def test_nested_seeds_longest_suffix_wins(self, reverse):
        mapper = self.nested_mapper(reverse)
        for name, iso2, suffix in (
            ("www.unit.agency.gov.xx", "AG", "agency.gov.xx"),
            ("unit.agency.gov.xx", "AG", "agency.gov.xx"),
            ("health.gov.xx", "XX", "gov.xx"),
            ("agencyx.gov.xx", "XX", "gov.xx"),
            ("a.gob.yy", "YY", "gob.yy"),
        ):
            assert mapper.country_of(N(name)) == iso2, name
            assert mapper.seed_suffix_of(N(name)) == N(suffix), name

    @pytest.mark.parametrize("reverse", [False, True])
    def test_name_equal_to_a_seed(self, reverse):
        mapper = self.nested_mapper(reverse)
        assert mapper.country_of(N("agency.gov.xx")) == "AG"
        assert mapper.seed_suffix_of(N("agency.gov.xx")) == N("agency.gov.xx")
        assert mapper.country_of(N("gov.xx")) == "XX"
        assert mapper.seed_suffix_of(N("gov.xx")) == N("gov.xx")

    @pytest.mark.parametrize("reverse", [False, True])
    def test_names_under_no_seed(self, reverse):
        mapper = self.nested_mapper(reverse)
        for name in ("x.example.com", "xx", "gov.yy", "agency.xx", "."):
            assert mapper.country_of(N(name)) is None, name
            assert mapper.seed_suffix_of(N(name)) is None, name


class TestPdnsReplication:
    def test_figure2_growth_and_dip(self, study):
        fig2 = study.pdns_replication().figure2()
        domains_2011, countries_2011 = fig2[2011]
        domains_2019, _ = fig2[2019]
        domains_2020, countries_2020 = fig2[2020]
        assert domains_2019 > domains_2011
        assert domains_2020 < domains_2019  # the China dip
        assert countries_2020 >= 150

    def test_figure3_ns_growth(self, study):
        fig3 = study.pdns_replication().figure3()
        assert fig3[2020] > fig3[2011]

    def test_figure4_heavy_tail(self, study):
        fig4 = study.pdns_replication().figure4()
        counts = sorted(fig4.values(), reverse=True)
        # Top country holds a disproportionate share (Zipf-ish).
        assert counts[0] > 8 * counts[len(counts) // 2]
        assert "CN" in fig4 and fig4["CN"] == max(fig4.values())

    def test_single_ns_share_in_paper_range(self, study):
        rep = study.pdns_replication()
        for year in (2011, 2020):
            states = rep.year_states()[year]
            singles = rep.single_ns_domains(year)
            share = len(singles) / len(states)
            assert 0.015 < share < 0.10, year

    def test_figure6_overlap_decays(self, study):
        fig6 = study.pdns_replication().figure6()
        overlaps = [
            fig6[year].get("overlap_2011")
            for year in sorted(fig6)
            if "overlap_2011" in fig6[year]
        ]
        assert overlaps[0] == pytest.approx(1.0)
        assert overlaps[-1] < 0.45
        # Churn shares are reported for every year after the first.
        assert "new_share" in fig6[2015] and "gone_share" in fig6[2015]

    def test_figure7_private_gap(self, study):
        fig7 = study.pdns_replication().figure7()
        for year in (2012, 2016, 2020):
            single_private, overall_private = fig7[year]
            assert single_private > overall_private
            assert single_private > 0.55
            assert overall_private < 0.45


class TestActiveReplication:
    def test_figure9_shares(self, study):
        active = study.active_replication()
        assert active.share_with_at_least(1) == 1.0
        ge2 = active.share_with_at_least(2)
        assert 0.95 < ge2 < 1.0
        assert active.share_with_at_least(3) < ge2

    def test_figure9_histogram_masses(self, study):
        histogram = study.active_replication().figure9_distribution()
        assert max(histogram, key=histogram.get) == 2
        assert set(histogram) >= {1, 2, 3}

    def test_many_countries_fully_replicated(self, study):
        count = study.active_replication().countries_fully_replicated()
        assert count > 60

    def test_single_ns_hotspots_detected(self, study):
        flagged = study.active_replication().countries_with_single_ns_share_over(0.10)
        assert flagged  # Indonesia/Kyrgyzstan/Mexico-style countries

    def test_figure8_staleness(self, study):
        active = study.active_replication()
        overall = active.figure8_overall()
        assert 0.40 < overall < 0.80  # paper: 60.1%
        by_country = active.figure8_by_country(min_singles=2)
        assert by_country
        assert all(0.0 <= v <= 1.0 for v in by_country.values())


class TestDiversity:
    def test_table1_total_row_shape(self, study):
        rows = study.diversity().table1()
        total = rows[0]
        assert total.label == "Total"
        assert total.domains > 100
        # Paper: 89.8% / 71.5% / 32.9% — monotone and in band.
        assert total.multi_ip_share > total.multi_prefix_share > total.multi_asn_share
        assert 0.80 < total.multi_ip_share < 0.99
        assert 0.55 < total.multi_prefix_share < 0.92
        assert 0.15 < total.multi_asn_share < 0.55

    def test_top_countries_ranked_by_population(self, study):
        rows = study.diversity().table1()
        country_rows = rows[1:]
        sizes = [row.domains for row in country_rows]
        assert sizes == sorted(sizes, reverse=True)
        assert country_rows[0].label == "CN"

    def test_thailand_is_the_low_diversity_outlier(self, study):
        rows = {row.label: row for row in study.diversity().table1()}
        if "TH" in rows:
            assert rows["TH"].multi_ip_share < rows["CN"].multi_ip_share

    def test_single_ip_multi_ns_exists(self, study):
        shared = study.diversity().single_ip_multi_ns()
        assert shared
        th = sum(1 for r in shared if r.iso2 == "TH")
        assert th / len(shared) > 0.25  # concentrated in one d_gov


class TestProviderMatcher:
    def test_aws_regex(self):
        matcher = ProviderMatcher()
        assert matcher.match_hostname(N("ns-512.awsdns-00.com")) == "amazon"
        assert matcher.match_hostname(N("ns-1536.awsdns-63.co.uk")) == "amazon"

    def test_azure_regex(self):
        matcher = ProviderMatcher()
        assert matcher.match_hostname(N("ns1-03.azure-dns.com")) == "azure"

    def test_base_domain_matching(self):
        matcher = ProviderMatcher()
        assert matcher.match_hostname(N("ada-7.ns.cloudflare.com")) == "cloudflare"
        assert matcher.match_hostname(N("ns41.domaincontrol.com")) == "godaddy"
        assert matcher.match_hostname(N("dns17.hichina.com")) == "hichina"

    def test_unknown_is_none(self):
        matcher = ProviderMatcher()
        assert matcher.match_hostname(N("ns1.health.gov.au")) is None
        assert matcher.match_hostname(DnsName(("ns",))) is None

    def test_soa_matching(self):
        matcher = ProviderMatcher()
        soa = SOA(N("ns-100.awsdns-3.net"), N("awsdns-hostmaster.amazon.com"))
        assert matcher.match_soa(soa) == "amazon"

    def test_base_domain_of_two_label_suffix(self):
        assert base_domain_of(N("ns1.hostgator.com.br")) == N("hostgator.com.br")
        assert base_domain_of(N("a")) is None

    def test_single_provider_detection(self):
        matcher = ProviderMatcher()
        pure = (N("ada-1.ns.cloudflare.com"), N("bob-1.ns.cloudflare.com"))
        assert matcher.is_single_provider(pure) == "cloudflare"
        mixed = pure + (N("ns-1.awsdns-2.org"),)
        assert matcher.is_single_provider(mixed) is None
        partial = pure + (N("ns1.mygov.zz"),)
        assert matcher.is_single_provider(partial) is None


class TestCentralization:
    def test_table2_panel_complete(self, study):
        table = study.centralization().table2()
        assert set(table) == set(MAJOR_PROVIDERS)
        for provider, by_year in table.items():
            assert set(by_year) == {2011, 2020}

    def test_cloud_provider_growth(self, study):
        cen = study.centralization()
        for provider in ("amazon", "cloudflare"):
            u11 = cen.usage(provider, 2011)
            u20 = cen.usage(provider, 2020)
            assert u20.domains > u11.domains
            assert u20.domain_share > 0.005

    def test_d1p_subset_of_users(self, study):
        usage = study.centralization().usage("cloudflare", 2020)
        assert usage.single_provider_domains <= usage.domains

    def test_top_providers_ranked_by_reach(self, study):
        rows = study.centralization().top_providers(2020, limit=10)
        assert rows
        reaches = [row.countries for row in rows]
        assert reaches == sorted(reaches, reverse=True)

    def test_reach_grows_over_decade(self, study):
        start, end = study.centralization().max_reach_growth()
        assert end > start

    def test_group_share_bounded(self, study):
        rows = study.centralization().top_providers(2020, limit=5)
        for row in rows:
            assert 0.0 < row.group_share <= 1.0


@pytest.fixture(scope="module")
def malformed_soa_study():
    """A small study whose PDNS carries an unparseable SOA row for every
    domain, so the SOA fallback of Tables II/III counts parse failures;
    the paper tables are rendered once."""
    world = WorldGenerator(WorldConfig(seed=TEST_SEED, scale=0.002)).generate()
    study = GovernmentDnsStudy(world)
    first, _ = year_bounds(2011)
    _, last = year_bounds(2020)
    domains = {
        domain
        for states in study.pdns_replication().year_states().values()
        for domain in states
    }
    for domain in sorted(domains):
        world.pdns.observe_span(
            domain, RRType.SOA, "bad..name. hostmaster.x.", first, last - 1
        )
    paperkit.render_all(study)
    return study


class TestStudyCentralizationCache:
    def test_one_instance_per_study(self, study):
        assert study.centralization() is study.centralization()

    def test_render_counts_soa_failures_once_per_year(self, malformed_soa_study):
        oracle = CentralizationAnalysis(
            malformed_soa_study.pdns_replication(), ProviderMatcher()
        )
        for year in (2011, 2020):  # the years Tables II and III read
            oracle._year_provider_maps(year)
        assert oracle.soa_parse_failures > 0
        assert (
            malformed_soa_study.centralization().soa_parse_failures
            == oracle.soa_parse_failures
        )


class TestDelegationAnalysis:
    def test_prevalence_bands(self, study):
        prevalence = study.delegation().prevalence()
        # Paper: any 29.5%, partial 25.4%, full ~4%.
        assert 0.18 < prevalence["any"] < 0.42
        assert 0.15 < prevalence["partial"] < 0.36
        assert 0.01 < prevalence["full"] < 0.10
        assert prevalence["any"] == pytest.approx(
            prevalence["partial"] + prevalence["full"]
        )

    def test_classification_matches_ground_truth(self, study, world):
        reports = study.delegation().reports()
        checked = 0
        for name, report in reports.items():
            truth = world.truths.get(name)
            if truth is None or truth.plan is None:
                continue
            if truth.status != TargetStatus.ALIVE:
                continue
            if truth.plan.stale:
                assert report.verdict == DelegationClass.FULL, str(name)
            elif truth.plan.broken_count > 0:
                assert report.verdict in (
                    DelegationClass.PARTIAL,
                    DelegationClass.FULL,
                ), str(name)
            checked += 1
        assert checked > 100

    def test_hijack_exposure_matches_truth(self, study, world):
        exposure = study.delegation().hijack_exposure()
        truth_dns = {
            dns for dns, victims in world.dangling_map.items() if victims
        }
        measured_dns = set(exposure.available)
        assert measured_dns == truth_dns

    def test_hijack_quotes_are_purchasable(self, study):
        exposure = study.delegation().hijack_exposure()
        for quote in exposure.available.values():
            assert quote.available and quote.price_usd > 0

    def test_price_stats_ordered(self, study):
        stats = study.delegation().hijack_exposure().price_stats()
        if stats:
            assert stats["min"] <= stats["median"] <= stats["max"]

    def test_figure10_by_country_shares_valid(self, study):
        by_country = study.delegation().figure10_by_country()
        assert by_country
        for iso2, shares in by_country.items():
            assert 0.0 <= shares["any"] <= 1.0
            assert shares["any"] == pytest.approx(
                shares["partial"] + shares["full"]
            )

    def test_figure11_counts(self, study):
        exposure = study.delegation().hijack_exposure()
        by_country = study.delegation().figure11_by_country(exposure)
        total_victims = sum(v for v, _ in by_country.values())
        assert total_victims == len(exposure.victim_domains)


class TestConsistencyAnalysis:
    def test_figure13_sums_to_one(self, study):
        fig13 = study.consistency().figure13()
        assert sum(fig13.values()) == pytest.approx(1.0)
        assert 0.60 < fig13[ConsistencyClass.EQUAL] < 0.90

    def test_verdicts_match_ground_truth(self, study, world):
        reports = study.consistency().reports()
        mapping = {
            Consistency.EQUAL: ConsistencyClass.EQUAL,
            Consistency.P_SUBSET_C: ConsistencyClass.P_SUBSET_C,
            Consistency.C_SUBSET_P: ConsistencyClass.C_SUBSET_P,
            Consistency.OVERLAP_NEITHER: ConsistencyClass.OVERLAP_NEITHER,
            Consistency.DISJOINT: ConsistencyClass.DISJOINT,
            Consistency.DISJOINT_IP_OVERLAP: ConsistencyClass.DISJOINT_IP_OVERLAP,
        }
        agree = disagree = 0
        for name, report in reports.items():
            truth = world.truths.get(name)
            if truth is None or truth.plan is None or truth.plan.stale:
                continue
            if truth.plan.broken_count or truth.plan.single_label:
                continue  # defects perturb the comparison, checked elsewhere
            expected = mapping[truth.plan.consistency]
            if report.verdict == expected:
                agree += 1
            else:
                disagree += 1
        assert agree > 100
        assert disagree / max(agree + disagree, 1) < 0.05

    def test_single_label_cases_found(self, study, world):
        cases = study.consistency().single_label_cases()
        truth_cases = [
            t
            for t in world.truths.values()
            if t.plan is not None
            and t.plan.single_label
            and not t.plan.stale
            and t.status == TargetStatus.ALIVE
        ]
        if truth_cases:
            assert cases

    def test_inconsistency_defect_correlation(self, study):
        share = study.consistency().share_inconsistent_with_partial_defect(
            study.delegation()
        )
        assert 0.10 < share < 0.70  # paper: 40.9%

    def test_dangling_scan_finds_injected_cases(self, study, world):
        found = study.consistency().dangling_scan(study.delegation())
        for dns_domain in world.consistency_dangling:
            assert dns_domain in found
            quote, victims = found[dns_domain]
            assert quote.price_usd >= 300

    def test_figure14_rates_bounded(self, study):
        rates = study.consistency().figure14_by_country()
        assert rates
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())
