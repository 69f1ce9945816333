"""Provider identification (paper §IV-B method).

Mapping a nameserver hostname to the organization operating it takes
three tricks, all implemented here exactly as the paper describes:

1. **Regex patterns** for providers with generative naming — Amazon's
   ``ns-<n>.awsdns-<m>.<tld>`` spans hundreds of base domains;
2. **Base-domain matching** for everyone else (``*.domaincontrol.com``
   is GoDaddy, with co.uk/com.br-style two-label suffixes handled);
3. **SOA MNAME/RNAME matching** for deployments whose NS names are
   vanity-branded but whose SOA still betrays the operator.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..dns.name import DnsName
from ..dns.rdata import SOA
from ..worldgen.providers import PROVIDERS, ProviderSpec

__all__ = ["ProviderMatcher"]

_AWS_PATTERN = re.compile(
    r"^ns-\d+\.awsdns-\d+\.(com|net|org|co\.uk)$"
)
# Amazon's base domains themselves (awsdns-12.net etc.).
_AWS_BASE_PATTERN = re.compile(r"^awsdns-\d+\.(com|net|org)$")
_AZURE_PATTERN = re.compile(
    r"^ns\d+-\d+\.azure-dns\.(com|net|org|info)$"
)

_TWO_LABEL_SUFFIXES = frozenset({"co.uk", "com.br", "net.br"})


def base_domain_of(hostname: DnsName) -> Optional[DnsName]:
    """Registered-ish base domain of a nameserver hostname."""
    labels = hostname.labels
    if len(labels) < 2:
        return None
    tail2 = ".".join(labels[-2:])
    if tail2 in _TWO_LABEL_SUFFIXES:
        if len(labels) < 3:
            return None
        return DnsName(labels[-3:])
    return DnsName(labels[-2:])


class ProviderMatcher:
    """hostname/SOA → provider key."""

    def __init__(
        self,
        providers: Sequence[ProviderSpec] = PROVIDERS,
        use_patterns: bool = True,
        use_soa: bool = True,
    ) -> None:
        """``use_patterns``/``use_soa`` exist for the §IV-B ablation:
        disabling the generative-name regexes (Amazon/Azure) or the SOA
        fallback shows how much of the identification each trick buys."""
        self._providers = tuple(providers)
        self._use_patterns = use_patterns
        self._use_soa = use_soa
        self._by_base: Dict[str, str] = {}
        for spec in providers:
            for domain in spec.ns_domains:
                self._by_base[domain.lower().rstrip(".")] = spec.key
        self._soa_rnames: Dict[str, str] = {
            spec.soa_rname.lower().rstrip("."): spec.key
            for spec in providers
            if spec.soa_rname
        }
        # hostname → provider key: a study's NS names repeat across
        # domains and years, so each distinct name is matched once.
        self._by_hostname: Dict[DnsName, Optional[str]] = {}

    # ------------------------------------------------------------------
    def match_hostname(self, hostname: DnsName) -> Optional[str]:
        """Provider key for one nameserver hostname, or None."""
        if hostname in self._by_hostname:
            return self._by_hostname[hostname]
        key = self._match_hostname(hostname)
        self._by_hostname[hostname] = key
        return key

    def _match_hostname(self, hostname: DnsName) -> Optional[str]:
        text = str(hostname).rstrip(".")
        if self._use_patterns:
            if _AWS_PATTERN.match(text):
                return "amazon"
            if _AZURE_PATTERN.match(text):
                return "azure"
        base = base_domain_of(hostname)
        if base is None:
            return None
        base_text = str(base).rstrip(".")
        direct = self._by_base.get(base_text)
        if direct is not None:
            return direct
        if self._use_patterns and _AWS_BASE_PATTERN.match(base_text):
            return "amazon"
        return None

    def match_soa(self, soa: SOA) -> Optional[str]:
        """Provider via SOA MNAME (treated as a hostname) or RNAME."""
        if not self._use_soa:
            return None
        provider = self.match_hostname(soa.mname)
        if provider is not None:
            return provider
        rname_text = str(soa.rname).rstrip(".")
        for suffix, key in self._soa_rnames.items():
            if rname_text.endswith(suffix):
                return key
        return None

    # ------------------------------------------------------------------
    def providers_of(
        self,
        hostnames: Iterable[DnsName],
        soa: Optional[SOA] = None,
    ) -> Tuple[str, ...]:
        """Distinct provider keys across a domain's nameserver set."""
        found: Dict[str, None] = {}
        for hostname in hostnames:
            key = self.match_hostname(hostname)
            if key is not None:
                found.setdefault(key, None)
        if not found and soa is not None:
            key = self.match_soa(soa)
            if key is not None:
                found.setdefault(key, None)
        return tuple(found)

    def is_single_provider(
        self, hostnames: Sequence[DnsName]
    ) -> Optional[str]:
        """The provider, when *every* nameserver belongs to exactly one
        catalog provider (the d_1P condition); else None."""
        keys = set()
        for hostname in hostnames:
            key = self.match_hostname(hostname)
            if key is None:
                return None
            keys.add(key)
        if len(keys) == 1:
            return next(iter(keys))
        return None
