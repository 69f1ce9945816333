"""Third-party DNS provider catalog.

Synthetic but calibrated: every provider the paper's Tables II/III name
appears here with its real nameserver naming pattern (that is what the
provider-identification pass in :mod:`repro.core.provider_id` has to
match, regex and SOA tricks included) and with 2011/2020 adoption
anchors taken from the tables.  The world generator interpolates those
anchors into per-year popularity weights, which is how the
orders-of-magnitude rise of Cloudflare/AWS and the decline of the
2000s-era shared hosts emerge in the synthetic PDNS.

``domains_2011``/``domains_2020`` are the paper's domain counts at paper
scale (fractions of ~113.5k/192.6k total); ``countries_2011``/
``countries_2020`` anchor geographic spread (Table III's reach column).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["NsLayout", "ProviderSpec", "PROVIDERS", "provider_by_key"]


class NsLayout:
    """Address-diversity categories for a nameserver set (Table I)."""

    SINGLE_IP = "single_ip"  # all NS resolve to one address
    SINGLE_24 = "single_24"  # >1 address, one /24
    MULTI_24 = "multi_24"  # >1 /24, one ASN
    MULTI_ASN = "multi_asn"  # >1 ASN

    ALL = (SINGLE_IP, SINGLE_24, MULTI_24, MULTI_ASN)


@dataclass(frozen=True)
class ProviderSpec:
    """One managed-DNS / hosting provider."""

    key: str
    display: str
    # Base domains its nameserver hostnames live under.  Several real
    # providers (AWS, Hostgator, Azure) spread NS names over multiple
    # base domains; the paper groups those together explicitly.
    ns_domains: Tuple[str, ...]
    # Hostname templates with {set} (customer-set index) and {i}
    # (server index within the set) placeholders; one template per
    # nameserver in a generated set, cycled as needed.
    templates: Tuple[str, ...]
    set_size: int  # nameservers handed to each customer
    domains_2011: int
    domains_2020: int
    countries_2011: int
    countries_2020: int
    home_country: str = "US"
    asn_count: int = 1
    # ISO2 codes this provider is effectively restricted to (e.g. the
    # Chinese registrar-hosters); empty means global.
    restricted_to: Tuple[str, ...] = ()
    # SOA fields some deployments expose instead of a recognizable NS
    # name (the paper's §IV-B matches MNAME/RNAME too).
    soa_mname_domain: Optional[str] = None
    soa_rname: Optional[str] = None
    growth: str = "exp"  # "exp" | "linear" | "decline"

    def make_ns_set(self, set_index: int) -> Tuple[str, ...]:
        """Deterministic hostname set for customer-set ``set_index``."""
        hostnames = []
        for i, template in zip(
            range(self.set_size), itertools.cycle(self.templates)
        ):
            hostnames.append(template.format(set=set_index, i=i + 1))
        return tuple(hostnames)

    def domains_in(self, year: int) -> float:
        """Interpolated paper-scale adoption for a year in [2011, 2020]."""
        if year <= 2011:
            return float(self.domains_2011)
        if year >= 2020:
            return float(self.domains_2020)
        fraction = (year - 2011) / 9.0
        start, end = self.domains_2011, self.domains_2020
        if self.growth == "exp" and end > start:
            # Order-of-magnitude climbs follow a geometric path.
            base = max(start, 1.0)
            return base * (end / base) ** fraction
        return start + (end - start) * fraction

    def countries_in(self, year: int) -> int:
        if year <= 2011:
            return self.countries_2011
        if year >= 2020:
            return self.countries_2020
        fraction = (year - 2011) / 9.0
        return round(
            self.countries_2011
            + (self.countries_2020 - self.countries_2011) * fraction
        )


def _catalog() -> Tuple[ProviderSpec, ...]:
    return (
        # ---- Table II majors ------------------------------------------
        ProviderSpec(
            key="amazon",
            display="AWS DNS",
            ns_domains=("awsdns-00.com", "awsdns.com", "awsdns.net",
                        "awsdns.org", "awsdns.co.uk"),
            templates=(
                "ns-{set}.awsdns-{i}.com",
                "ns-{set}.awsdns-{i}.net",
                "ns-{set}.awsdns-{i}.org",
                "ns-{set}.awsdns-{i}.co.uk",
            ),
            set_size=4,
            domains_2011=5,
            domains_2020=5193,
            countries_2011=3,
            countries_2020=67,
            asn_count=4,
        ),
        ProviderSpec(
            key="azure",
            display="Azure DNS",
            ns_domains=("azure-dns.com", "azure-dns.net", "azure-dns.org",
                        "azure-dns.info"),
            templates=(
                "ns{i}-{set}.azure-dns.com",
                "ns{i}-{set}.azure-dns.net",
                "ns{i}-{set}.azure-dns.org",
                "ns{i}-{set}.azure-dns.info",
            ),
            set_size=4,
            domains_2011=0,
            domains_2020=1574,
            countries_2011=0,
            countries_2020=37,
            asn_count=2,
        ),
        ProviderSpec(
            key="cloudflare",
            display="Cloudflare",
            ns_domains=("cloudflare.com",),
            templates=(
                "ada-{set}.ns.cloudflare.com",
                "bob-{set}.ns.cloudflare.com",
            ),
            set_size=2,
            domains_2011=12,
            domains_2020=4136,
            countries_2011=9,
            countries_2020=85,
            asn_count=1,
        ),
        ProviderSpec(
            key="dnspod",
            display="DNSPod",
            ns_domains=("dnspod.net",),
            templates=(
                "f1g1ns{i}-{set}.dnspod.net",
            ),
            set_size=2,
            domains_2011=373,
            domains_2020=700,
            countries_2011=1,
            countries_2020=2,
            home_country="CN",
            restricted_to=("CN",),
            growth="linear",
        ),
        ProviderSpec(
            key="dnsmadeeasy",
            display="DNSMadeEasy",
            ns_domains=("dnsmadeeasy.com",),
            templates=("ns{i}{set}.dnsmadeeasy.com",),
            set_size=3,
            domains_2011=89,
            domains_2020=254,
            countries_2011=25,
            countries_2020=34,
            growth="linear",
        ),
        ProviderSpec(
            key="dyn",
            display="Dyn",
            ns_domains=("dynect.net",),
            templates=("ns{i}.p{set}.dynect.net",),
            set_size=4,
            domains_2011=7,
            domains_2020=170,
            countries_2011=3,
            countries_2020=22,
        ),
        ProviderSpec(
            key="godaddy",
            display="GoDaddy",
            ns_domains=("domaincontrol.com",),
            templates=("ns{set}{i}.domaincontrol.com",),
            set_size=2,
            domains_2011=283,
            domains_2020=1582,
            countries_2011=47,
            countries_2020=63,
            growth="linear",
        ),
        ProviderSpec(
            key="ultradns",
            display="UltraDNS",
            ns_domains=("ultradns.net",),
            templates=("udns{i}-{set}.ultradns.net",),
            set_size=2,
            domains_2011=15,
            domains_2020=66,
            countries_2011=7,
            countries_2020=11,
            growth="linear",
        ),
        # ---- Table III shared hosts / registrars ----------------------
        ProviderSpec(
            key="websitewelcome",
            display="WebsiteWelcome (HostGator US)",
            ns_domains=("websitewelcome.com",),
            templates=("ns{set}{i}.websitewelcome.com",),
            set_size=2,
            domains_2011=424,
            domains_2020=745,
            countries_2011=52,
            countries_2020=50,
            growth="linear",
        ),
        ProviderSpec(
            key="zoneedit",
            display="ZoneEdit",
            ns_domains=("zoneedit.com",),
            templates=("ns{i}-{set}.zoneedit.com",),
            set_size=2,
            domains_2011=182,
            domains_2020=110,
            countries_2011=32,
            countries_2020=18,
            growth="decline",
        ),
        ProviderSpec(
            key="dreamhost",
            display="DreamHost",
            ns_domains=("dreamhost.com",),
            templates=("ns{i}-{set}.dreamhost.com",),
            set_size=3,
            domains_2011=243,
            domains_2020=180,
            countries_2011=29,
            countries_2020=22,
            growth="decline",
        ),
        ProviderSpec(
            key="bluehost",
            display="Bluehost",
            ns_domains=("bluehost.com",),
            templates=("ns{i}-{set}.bluehost.com",),
            set_size=2,
            domains_2011=134,
            domains_2020=432,
            countries_2011=29,
            countries_2020=58,
            growth="linear",
        ),
        ProviderSpec(
            key="hostgator",
            display="Hostgator",
            ns_domains=("hostgator.com", "hostgator.com.br"),
            templates=(
                "ns{set}{i}.hostgator.com",
                "ns{set}{i}.hostgator.com.br",
            ),
            set_size=2,
            domains_2011=183,
            domains_2020=1536,
            countries_2011=29,
            countries_2020=55,
        ),
        ProviderSpec(
            key="ixwebhosting",
            display="IX Web Hosting",
            ns_domains=("ixwebhosting.com",),
            templates=("ns{i}-{set}.ixwebhosting.com",),
            set_size=2,
            domains_2011=98,
            domains_2020=25,
            countries_2011=28,
            countries_2020=8,
            growth="decline",
        ),
        ProviderSpec(
            key="hostmonster",
            display="HostMonster",
            ns_domains=("hostmonster.com",),
            templates=("ns{i}-{set}.hostmonster.com",),
            set_size=2,
            domains_2011=103,
            domains_2020=55,
            countries_2011=27,
            countries_2020=14,
            growth="decline",
        ),
        ProviderSpec(
            key="everydns",
            display="EveryDNS",
            ns_domains=("everydns.net",),
            templates=("ns{i}-{set}.everydns.net",),
            set_size=4,
            domains_2011=259,
            domains_2020=0,
            countries_2011=26,
            countries_2020=0,
            growth="decline",
        ),
        ProviderSpec(
            key="pipedns",
            display="PipeDNS",
            ns_domains=("pipedns.com",),
            templates=("ns{i}-{set}.pipedns.com",),
            set_size=3,
            domains_2011=48,
            domains_2020=15,
            countries_2011=24,
            countries_2020=7,
            growth="decline",
        ),
        ProviderSpec(
            key="stabletransit",
            display="StableTransit (Rackspace)",
            ns_domains=("stabletransit.com",),
            templates=("dns{i}-{set}.stabletransit.com",),
            set_size=2,
            domains_2011=57,
            domains_2020=35,
            countries_2011=22,
            countries_2020=12,
            growth="decline",
        ),
        ProviderSpec(
            key="digitalocean",
            display="DigitalOcean",
            ns_domains=("digitalocean.com",),
            templates=("ns{i}-{set}.digitalocean.com",),
            set_size=3,
            domains_2011=0,
            domains_2020=429,
            countries_2011=0,
            countries_2020=45,
        ),
        ProviderSpec(
            key="microsoftonline",
            display="Microsoft Online",
            ns_domains=("microsoftonline.com",),
            templates=("ns{i}-{set}.microsoftonline.com",),
            set_size=2,
            domains_2011=0,
            domains_2020=135,
            countries_2011=0,
            countries_2020=41,
        ),
        ProviderSpec(
            key="wixdns",
            display="Wix",
            ns_domains=("wixdns.net",),
            templates=("ns{i}-{set}.wixdns.net",),
            set_size=2,
            domains_2011=0,
            domains_2020=324,
            countries_2011=0,
            countries_2020=36,
        ),
        ProviderSpec(
            key="cloudns",
            display="ClouDNS",
            ns_domains=("cloudns.net",),
            templates=("pns{set}{i}.cloudns.net",),
            set_size=4,
            domains_2011=0,
            domains_2020=225,
            countries_2011=0,
            countries_2020=36,
        ),
        # ---- Chinese registrar-hosters (dominate gov.cn) --------------
        ProviderSpec(
            key="hichina",
            display="HiChina (Alibaba)",
            ns_domains=("hichina.com",),
            templates=("dns{set}.hichina.com", "dns{set}b.hichina.com"),
            set_size=2,
            domains_2011=1800,
            domains_2020=5200,
            countries_2011=1,
            countries_2020=1,
            home_country="CN",
            restricted_to=("CN",),
            asn_count=2,
        ),
        ProviderSpec(
            key="xincache",
            display="XinNet XinCache",
            ns_domains=("xincache.com",),
            templates=("ns{i}-{set}.xincache.com",),
            set_size=2,
            domains_2011=900,
            domains_2020=2600,
            countries_2011=1,
            countries_2020=1,
            home_country="CN",
            restricted_to=("CN",),
            asn_count=2,
        ),
        ProviderSpec(
            key="dns-diy",
            display="DNS-DIY",
            ns_domains=("dns-diy.com",),
            templates=("vip{i}-{set}.dns-diy.com",),
            set_size=2,
            domains_2011=500,
            domains_2020=1480,
            countries_2011=1,
            countries_2020=1,
            home_country="CN",
            restricted_to=("CN",),
        ),
    )


PROVIDERS: Tuple[ProviderSpec, ...] = _catalog()

_BY_KEY: Dict[str, ProviderSpec] = {p.key: p for p in PROVIDERS}


def provider_by_key(key: str) -> ProviderSpec:
    try:
        return _BY_KEY[key]
    except KeyError:
        raise KeyError(f"unknown provider: {key!r}") from None
