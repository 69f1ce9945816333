"""Tests for multi-vantage-point probing (§V-A future work)."""

import pytest

from repro.core.probe import ProbeConfig
from repro.core.vantage import MultiVantageProber
from repro.inet.address import IPv4Address

IP = IPv4Address.parse


@pytest.fixture(scope="module")
def comparison(world, study):
    sources = [IP("192.0.2.53"), IP("198.51.100.10"), IP("203.0.113.77")]
    prober = MultiVantageProber(
        world.network,
        world.root_addresses,
        sources,
        config=ProbeConfig(rate_limit_qps=None),
    )
    # A subsample keeps the three full campaigns fast.
    targets = dict(list(study.targets().items())[:150])
    campaigns = prober.probe_all(targets)
    return prober, campaigns, prober.compare(campaigns)


class TestMultiVantage:
    def test_needs_two_sources(self, world):
        with pytest.raises(ValueError):
            MultiVantageProber(
                world.network, world.root_addresses, [IP("192.0.2.1")]
            )

    def test_every_campaign_covers_all_targets(self, comparison):
        _, campaigns, _ = comparison
        sizes = {len(dataset) for dataset in campaigns.values()}
        assert len(sizes) == 1

    def test_vantage_points_agree_on_quiet_network(self, comparison):
        # Government ADNS in this world do not geo-discriminate, so the
        # paper's single-vantage assumption holds: near-total agreement.
        _, _, result = comparison
        assert result.domains_compared > 0
        assert result.agreement_rate > 0.97

    def test_disagreements_carry_details(self, comparison):
        _, _, result = comparison
        for disagreement in result.disagreements:
            assert disagreement.field_name in (
                "parent_status",
                "responsive",
                "ns_set",
            )
            assert len(disagreement.values) == 3

    def test_flaky_network_creates_disagreement(self):
        # On a lossy network, vantage points genuinely diverge — the
        # counterfactual motivating the paper's retry round.
        from repro.worldgen import WorldConfig, WorldGenerator
        from repro.core.study import GovernmentDnsStudy

        world = WorldGenerator(
            WorldConfig(
                seed=5, scale=0.004, flaky_server_share=0.25, flaky_loss_rate=0.7
            )
        ).generate()
        study = GovernmentDnsStudy(world)
        prober = MultiVantageProber(
            world.network,
            world.root_addresses,
            [IP("192.0.2.53"), IP("198.51.100.10")],
            config=ProbeConfig(rate_limit_qps=None, retry_round=False, retries=0),
        )
        targets = dict(list(study.targets().items())[:120])
        campaigns = prober.probe_all(targets)
        result = prober.compare(campaigns)
        assert result.agreement_rate < 1.0
