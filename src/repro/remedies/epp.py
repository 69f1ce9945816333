"""Registrar↔registry provisioning, EPP (RFC 5730) style, with
registry locks.

The paper's §V-B names two institutional defenses:

- **EPP** lets registrars update delegations at the registry in an
  automated way — which is how stale delegations *should* get fixed;
- **registry locks** (the Krebs/CSC recommendation) deliberately break
  that automation for high-value domains: updates require explicit
  human-verified unlock, defeating the registrar-compromise hijacks the
  paper cites (Sea Turtle and friends).

This module models the command surface: sessions, update commands that
edit the parent zone's NS sets, lock/unlock with out-of-band
verification, and an audit log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dns.name import DnsName
from ..dns.rdata import NS, RRType
from ..dns.rrset import RRset
from ..dns.zone import Zone

__all__ = ["EppResult", "EppServer", "EppSession", "RegistryLockError"]


class RegistryLockError(Exception):
    """Update refused because the object is registry-locked."""


@dataclass(frozen=True)
class EppResult:
    """Outcome of one EPP command (code semantics follow RFC 5730)."""

    code: int
    message: str

    @property
    def ok(self) -> bool:
        return 1000 <= self.code < 2000


@dataclass
class _AuditEntry:
    registrar: str
    command: str
    target: str
    ok: bool


class EppServer:
    """The registry side: holds the parent zone, locks, and the log.

    Parameters
    ----------
    verify_unlock:
        Out-of-band verification callback for unlock requests (phone
        call, in-person — whatever the registry's lock product
        requires).  Defaults to rejecting, which is what makes the lock
        meaningful.
    """

    def __init__(
        self,
        parent_zone: Zone,
        authorized_registrars: Sequence[str],
        verify_unlock: Optional[Callable[[DnsName, str], bool]] = None,
    ) -> None:
        self.parent_zone = parent_zone
        self._registrars = set(authorized_registrars)
        self._verify_unlock = (
            verify_unlock if verify_unlock is not None else (lambda d, r: False)
        )
        self._locks: Dict[DnsName, str] = {}  # domain → locking registrar
        self.audit_log: List[_AuditEntry] = []

    # ------------------------------------------------------------------
    def login(self, registrar: str) -> "EppSession":
        if registrar not in self._registrars:
            raise PermissionError(f"unknown registrar: {registrar!r}")
        return EppSession(self, registrar)

    def is_locked(self, domain: DnsName) -> bool:
        return domain in self._locks

    def _log(self, registrar: str, command: str, target: DnsName, ok: bool) -> None:
        self.audit_log.append(
            _AuditEntry(registrar, command, str(target), ok)
        )

    # ------------------------------------------------------------------
    # Command implementations (invoked through sessions)
    # ------------------------------------------------------------------
    def _update_ns(
        self,
        registrar: str,
        domain: DnsName,
        nameservers: Tuple[DnsName, ...],
    ) -> EppResult:
        if self.is_locked(domain):
            self._log(registrar, "update", domain, ok=False)
            return EppResult(2304, "object status prohibits operation (serverUpdateProhibited)")
        if not nameservers:
            self._log(registrar, "update", domain, ok=False)
            return EppResult(2306, "parameter policy error: empty NS set")
        existing = self.parent_zone.get(domain, RRType.NS)
        ttl = existing.ttl if existing is not None else self.parent_zone.default_ttl
        self.parent_zone.add(
            RRset(domain, RRType.NS, ttl, tuple(NS(h) for h in nameservers))
        )
        self._log(registrar, "update", domain, ok=True)
        return EppResult(1000, "command completed successfully")

    def _delete(self, registrar: str, domain: DnsName) -> EppResult:
        if self.is_locked(domain):
            self._log(registrar, "delete", domain, ok=False)
            return EppResult(2304, "object status prohibits operation")
        if self.parent_zone.get(domain, RRType.NS) is None:
            self._log(registrar, "delete", domain, ok=False)
            return EppResult(2303, "object does not exist")
        self.parent_zone.remove(domain, RRType.NS)
        self._log(registrar, "delete", domain, ok=True)
        return EppResult(1000, "command completed successfully")

    def _lock(self, registrar: str, domain: DnsName) -> EppResult:
        self._locks[domain] = registrar
        self._log(registrar, "lock", domain, ok=True)
        return EppResult(1000, "registry lock applied")

    def _unlock(self, registrar: str, domain: DnsName) -> EppResult:
        holder = self._locks.get(domain)
        if holder is None:
            return EppResult(2303, "object is not locked")
        if not self._verify_unlock(domain, registrar):
            self._log(registrar, "unlock", domain, ok=False)
            return EppResult(2308, "out-of-band verification failed")
        del self._locks[domain]
        self._log(registrar, "unlock", domain, ok=True)
        return EppResult(1000, "registry lock removed")


@dataclass
class EppSession:
    """An authenticated registrar session."""

    server: EppServer
    registrar: str

    def update_ns(
        self, domain: DnsName, nameservers: Sequence[DnsName]
    ) -> EppResult:
        """Replace a delegation's NS set — the stale-record fix."""
        return self.server._update_ns(
            self.registrar, domain, tuple(nameservers)
        )

    def delete_delegation(self, domain: DnsName) -> EppResult:
        """Remove a delegation entirely — the zombie-domain fix."""
        return self.server._delete(self.registrar, domain)

    def lock(self, domain: DnsName) -> EppResult:
        """Apply a registry lock (serverUpdateProhibited)."""
        return self.server._lock(self.registrar, domain)

    def unlock(self, domain: DnsName) -> EppResult:
        """Request unlock; subject to out-of-band verification."""
        return self.server._unlock(self.registrar, domain)
