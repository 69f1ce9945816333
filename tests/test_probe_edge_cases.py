"""Edge cases for the probe pipeline and resolver, on hand-built worlds."""

from tests.conftest import build_mini_dns
from repro.core.dataset import ParentStatus, ServerOutcome
from repro.core.probe import ActiveProber, ProbeConfig
from repro.dns import (
    A,
    AuthoritativeServer,
    CNAME,
    DnsName,
    NS,
    RRType,
    SOA,
    Zone,
)
from repro.inet.address import IPv4Address

N = DnsName.parse
IP = IPv4Address.parse


def make_prober(env, **config_kwargs):
    config_kwargs.setdefault("rate_limit_qps", None)
    return ActiveProber(
        env["network"],
        [env["root_address"]],
        IP("192.0.2.9"),
        config=ProbeConfig(**config_kwargs),
    )


class TestProbeEdgeCases:
    def test_delegated_child_probes_cleanly(self):
        env = build_mini_dns()
        prober = make_prober(env)
        result = prober.probe_domain(N("health.gov.au"), "AU")
        assert result.parent_status == ParentStatus.REFERRAL
        assert result.responsive
        assert result.parent_ns == (N("ns1.health.gov.au"),)
        assert result.child_ns == (N("ns1.health.gov.au"),)

    def test_cohosted_parent_and_child_yield_answer_status(self):
        # When one server hosts both gov.au and money.gov.au, a query
        # for the child's NS gets an authoritative answer instead of a
        # referral; the probe records ParentStatus.ANSWER.
        env = build_mini_dns()
        gov_server = env["gov_server"]
        money = Zone(N("money.gov.au"))
        money.add_records(N("money.gov.au"), NS(N("ns1.gov.au")))
        money.add_records(
            N("money.gov.au"), SOA(N("ns1.gov.au"), N("h.money.gov.au"))
        )
        gov_server.load_zone(money)
        env["gov_zone"].add_records(N("money.gov.au"), NS(N("ns1.gov.au")))
        prober = make_prober(env)
        result = prober.probe_domain(N("money.gov.au"), "AU")
        assert result.parent_status == ParentStatus.ANSWER
        assert result.responsive

    def test_undelegated_name_is_empty(self):
        env = build_mini_dns()
        prober = make_prober(env)
        result = prober.probe_domain(N("ghost.gov.au"), "AU")
        assert result.parent_status == ParentStatus.EMPTY
        assert not result.responsive

    def test_dead_roots_mean_no_response(self):
        env = build_mini_dns()
        env["network"].set_up(env["root_address"], False)
        prober = make_prober(env)
        result = prober.probe_domain(N("health.gov.au"), "AU")
        assert result.parent_status == ParentStatus.NO_RESPONSE

    def test_dead_tld_means_no_response(self):
        env = build_mini_dns()
        env["network"].set_up(env["au_address"], False)
        prober = make_prober(env)
        result = prober.probe_domain(N("health.gov.au"), "AU")
        assert result.parent_status == ParentStatus.NO_RESPONSE

    def test_single_label_ns_recorded_unresolvable(self):
        env = build_mini_dns()
        from repro.dns.rrset import RRset

        env["gov_zone"].add(
            RRset(
                N("typo.gov.au"),
                RRType.NS,
                3600,
                (NS(DnsName(("ns",))), NS(N("ns1.health.gov.au"))),
            )
        )
        prober = make_prober(env)
        result = prober.probe_domain(N("typo.gov.au"), "AU")
        bare = result.servers[DnsName(("ns",))]
        assert not bare.resolvable
        assert bare.defective

    def test_every_address_of_every_ns_swept(self):
        env = build_mini_dns()
        # Give health.gov.au a second nameserver with two addresses.
        extra_ip1, extra_ip2 = IP("6.0.0.1"), IP("6.0.0.2")
        server = AuthoritativeServer(N("ns2.health.gov.au"))
        server.load_zone(env["health_zone"])
        env["network"].attach(extra_ip1, server)
        env["network"].attach(extra_ip2, server)
        env["health_zone"].add_records(
            N("ns2.health.gov.au"), A(extra_ip1), A(extra_ip2)
        )
        env["gov_zone"].add_records(
            N("health.gov.au"),
            NS(N("ns1.health.gov.au")),
            NS(N("ns2.health.gov.au")),
        )
        env["gov_zone"].add_records(
            N("ns2.health.gov.au"), A(extra_ip1), A(extra_ip2)
        )
        prober = make_prober(env)
        result = prober.probe_domain(N("health.gov.au"), "AU")
        ns2 = result.servers[N("ns2.health.gov.au")]
        assert set(ns2.outcomes) == {extra_ip1, extra_ip2}
        assert all(
            outcome == ServerOutcome.ANSWER for outcome in ns2.outcomes.values()
        )

    def test_rate_limiter_charges_simulated_time(self):
        env = build_mini_dns()
        clock = env["network"].clock
        prober = ActiveProber(
            env["network"],
            [env["root_address"]],
            IP("192.0.2.9"),
            config=ProbeConfig(rate_limit_qps=5.0),
        )
        before = clock.now
        for _ in range(40):
            prober.probe_domain(N("www.gov.au"), "AU")
        # Once past the token bucket's burst, queries at 5 qps must
        # consume seconds of campaign time (politeness is paid in
        # wall-clock).
        assert clock.now - before > 1.0

    def test_child_only_ns_discovered_from_child_answer(self):
        # Parent lists one NS; the child's own data lists a second.
        # The probe must discover and sweep the child-only server.
        env = build_mini_dns()
        extra_ip = IP("6.0.0.9")
        from repro.dns.rrset import RRset

        env["health_zone"].add(
            RRset(
                N("health.gov.au"),
                RRType.NS,
                3600,
                (NS(N("ns1.health.gov.au")), NS(N("ns9.health.gov.au"))),
            )
        )
        env["health_zone"].add_records(N("ns9.health.gov.au"), A(extra_ip))
        server = AuthoritativeServer(N("ns9.health.gov.au"))
        server.load_zone(env["health_zone"])
        env["network"].attach(extra_ip, server)
        prober = make_prober(env)
        result = prober.probe_domain(N("health.gov.au"), "AU")
        assert N("ns9.health.gov.au") in result.child_ns
        assert N("ns9.health.gov.au") not in result.parent_ns
        assert result.servers[N("ns9.health.gov.au")].answered


class TestResolverLoops:
    def test_cname_loop_terminates(self):
        env = build_mini_dns()
        zone = env["gov_zone"]
        zone.add_records(N("a.gov.au"), CNAME(N("b.gov.au")))
        zone.add_records(N("b.gov.au"), CNAME(N("a.gov.au")))
        result = env["resolver"].resolve(N("a.gov.au"), RRType.A)
        assert result.status in ("servfail", "nodata", "nxdomain")

    def test_glueless_circular_delegation_terminates(self):
        env = build_mini_dns()
        gov = env["gov_zone"]
        # a's NS lives in b; b's NS lives in a; neither has glue.
        gov.add_records(N("a.gov.au"), NS(N("ns.b.gov.au")))
        gov.add_records(N("b.gov.au"), NS(N("ns.a.gov.au")))
        result = env["resolver"].resolve(N("www.a.gov.au"), RRType.A)
        assert result.status == "servfail"

    def test_self_referential_delegation_terminates(self):
        env = build_mini_dns()
        gov = env["gov_zone"]
        gov.add_records(N("loop.gov.au"), NS(N("ns.loop.gov.au")))
        # No glue, and the nameserver name lives under the cut itself.
        result = env["resolver"].resolve(N("www.loop.gov.au"), RRType.A)
        assert result.status == "servfail"


class TestStudyDeterminism:
    def test_same_seed_same_headline(self):
        from repro import GovernmentDnsStudy, WorldConfig, WorldGenerator

        def run():
            world = WorldGenerator(WorldConfig(seed=13, scale=0.002)).generate()
            return GovernmentDnsStudy(world).headline()

        assert run() == run()
