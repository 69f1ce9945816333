"""ccTLD registry policies — the IANA Root Database stand-in.

The paper's seed-validation step (§III-A) checks, for each country, the
ccTLD registry's documentation to confirm that the extracted suffix
(e.g. ``gov.au``) is reserved for government use; for three countries no
such reservation could be verified and the registered domain was used
instead.  This module models exactly that queryable policy surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Optional, Set

from ..dns.name import DnsName

__all__ = ["SuffixPolicy", "TldPolicy", "TldRegistry"]


@dataclass(frozen=True)
class SuffixPolicy:
    """Registration policy for one public suffix under a ccTLD."""

    suffix: DnsName
    government_reserved: bool
    # Whether the reservation is stated in registry documentation a
    # researcher could find — the paper found three suffixes whose
    # status could not be verified and fell back to registered domains.
    documented: bool = True


@dataclass
class TldPolicy:
    """One ccTLD's registry entry."""

    tld: DnsName
    operator: str
    country: str  # ISO2
    suffixes: Dict[DnsName, SuffixPolicy] = field(default_factory=dict)

    def add_suffix(self, policy: SuffixPolicy) -> None:
        if not policy.suffix.is_proper_subdomain_of(self.tld):
            raise ValueError(f"{policy.suffix} is not under {self.tld}")
        self.suffixes[policy.suffix] = policy


class TldRegistry:
    """The root database: TLD → policy, plus suffix-set helpers."""

    def __init__(self) -> None:
        self._policies: Dict[DnsName, TldPolicy] = {}

    def add(self, policy: TldPolicy) -> None:
        if policy.tld in self._policies:
            raise ValueError(f"TLD {policy.tld} already registered")
        self._policies[policy.tld] = policy

    def get(self, tld: DnsName) -> Optional[TldPolicy]:
        return self._policies.get(tld)

    def __iter__(self) -> Iterator[TldPolicy]:
        return iter(self._policies.values())

    def __len__(self) -> int:
        return len(self._policies)

    def tlds(self) -> FrozenSet[DnsName]:
        return frozenset(self._policies)

    def public_suffixes(self) -> FrozenSet[DnsName]:
        """All suffixes below which names are registered: the TLDs
        themselves plus every second-level suffix with a policy."""
        suffixes: Set[DnsName] = set(self._policies)
        for policy in self._policies.values():
            suffixes.update(policy.suffixes)
        return frozenset(suffixes)

    def suffix_policy(self, suffix: DnsName) -> Optional[SuffixPolicy]:
        """Look up the policy for a (non-TLD) public suffix."""
        if suffix.level < 2:
            return None
        tld_policy = self._policies.get(suffix.slice_to_level(1))
        if tld_policy is None:
            return None
        return tld_policy.suffixes.get(suffix)

    def is_government_reserved(self, suffix: DnsName) -> bool:
        """Can a researcher verify the suffix is reserved for
        government use?  (Reserved *and* documented.)"""
        policy = self.suffix_policy(suffix)
        return (
            policy is not None
            and policy.government_reserved
            and policy.documented
        )
