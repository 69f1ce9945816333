"""Seed-domain selection (paper §III-A).

Given the UN E-Government Knowledge Base (national-portal links plus
the member-states-questionnaire domains), produce each country's
``d_gov``: the government-reserved suffix when the ccTLD registry's
documentation verifies the reservation, otherwise the registered
domain, with government control confirmed via whois (and datable via
the Web-Archive index).

Reproduces the paper's §III-A decisions:

- portal links that do not resolve fall back to the MSQ domain;
- a portal link whose domain belongs to a third party (the ads case)
  falls back to the MSQ;
- suffixes whose reservation cannot be verified in registry docs
  (``gov.la``-style cases) yield a registered-domain seed;
- a registered domain outside any reserved suffix (``regjeringen.no``)
  is accepted when whois ties it to the government.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..dns.errors import NameError_
from ..dns.name import DnsName
from ..dns.rdata import RRType
from ..dns.resolver import Resolver
from ..registry.tld import TldRegistry
from ..registry.whois import ArchiveIndex, WhoisDatabase

__all__ = ["Seed", "SeedSelector"]


@dataclass(frozen=True)
class Seed:
    """One country's d_gov."""

    iso2: str
    d_gov: DnsName
    is_suffix: bool  # True: reserved suffix; False: registered domain
    source: str  # "link" | "msq" | "registry_fallback"
    government_verified: bool


class SeedSelector:
    """Turns Knowledge-Base rows into verified seeds."""

    def __init__(
        self,
        resolver: Resolver,
        tld_registry: TldRegistry,
        whois: WhoisDatabase,
        archive: Optional[ArchiveIndex] = None,
    ) -> None:
        self._resolver = resolver
        self._tlds = tld_registry
        self._whois = whois
        self._archive = archive

    # ------------------------------------------------------------------
    def _resolves(self, fqdn: DnsName) -> bool:
        return self._resolver.resolve(fqdn, RRType.A).ok

    def _government_owns(self, domain: DnsName) -> bool:
        record = self._whois.lookup(domain)
        return record is not None and record.registrant_is_government

    def _registered_domain(self, fqdn: DnsName) -> Optional[DnsName]:
        try:
            return fqdn.registered_domain(self._tlds.public_suffixes())
        except NameError_:
            return None

    def _enclosing_suffix(self, fqdn: DnsName) -> Optional[DnsName]:
        """Longest public suffix enclosing (but not equal to) the FQDN."""
        suffixes = self._tlds.public_suffixes()
        for candidate in fqdn.ancestors(include_self=False):
            if candidate in suffixes and candidate.level >= 2:
                return candidate
        return None

    def _documented_government_suffix(self, cctld: DnsName) -> Optional[DnsName]:
        policy = self._tlds.get(cctld)
        if policy is None:
            return None
        for suffix_policy in policy.suffixes.values():
            if suffix_policy.government_reserved and suffix_policy.documented:
                return suffix_policy.suffix
        return None

    # ------------------------------------------------------------------
    def select_for(
        self, iso2: str, portal_fqdn: str, msq_fqdn: str
    ) -> Optional[Seed]:
        """Pick the seed for one country, or None when nothing usable
        can be verified."""
        chosen: Optional[DnsName] = None
        source = "link"
        try:
            link_name = DnsName.parse(portal_fqdn)
        except NameError_:
            link_name = None

        if link_name is not None and self._resolves(link_name):
            registered = self._registered_domain(link_name)
            if registered is not None and not self._government_owns(registered):
                suffix = self._enclosing_suffix(link_name)
                if suffix is None or not self._tlds.is_government_reserved(suffix):
                    # The ads case: the link's domain belongs to someone
                    # else entirely; trust the questionnaire instead.
                    link_name = None
            if link_name is not None:
                chosen = link_name

        if chosen is None:
            try:
                msq_name = DnsName.parse(msq_fqdn)
            except NameError_:
                msq_name = None
            if msq_name is not None and self._resolves(msq_name):
                chosen = msq_name
                source = "msq"

        if chosen is None:
            # Neither link nor MSQ works; a researcher would still check
            # the registry's documentation for a reserved suffix.
            if link_name is None and not portal_fqdn:
                return None
            tld_label = (msq_fqdn or portal_fqdn).rstrip(".").rsplit(".", 1)[-1]
            try:
                cctld = DnsName.parse(tld_label)
            except NameError_:
                return None
            suffix = self._documented_government_suffix(cctld)
            if suffix is None:
                return None
            return Seed(
                iso2=iso2,
                d_gov=suffix,
                is_suffix=True,
                source="registry_fallback",
                government_verified=True,
            )

        # Suffix extraction and verification.
        suffix = self._enclosing_suffix(chosen)
        if suffix is not None and self._tlds.is_government_reserved(suffix):
            return Seed(
                iso2=iso2,
                d_gov=suffix,
                is_suffix=True,
                source=source,
                government_verified=True,
            )
        registered = self._registered_domain(chosen)
        if registered is None:
            return None
        verified = self._government_owns(registered)
        if not verified and self._archive is not None:
            verified = (
                self._archive.earliest_government_snapshot(registered)
                is not None
            )
        if not verified:
            return None
        return Seed(
            iso2=iso2,
            d_gov=registered,
            is_suffix=False,
            source=source,
            government_verified=verified,
        )

    def select_all(
        self, knowledge_base: Mapping[str, object]
    ) -> Dict[str, Seed]:
        """Seeds for every Knowledge-Base entry that yields one.

        ``knowledge_base`` maps ISO2 → an object with ``portal_fqdn``
        and ``msq_fqdn`` attributes (duck-typed to avoid a worldgen
        dependency).
        """
        seeds: Dict[str, Seed] = {}
        for iso2, entry in knowledge_base.items():
            seed = self.select_for(
                iso2,
                getattr(entry, "portal_fqdn"),
                getattr(entry, "msq_fqdn"),
            )
            if seed is not None:
                seeds[iso2] = seed
        return seeds
