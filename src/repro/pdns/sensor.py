"""Feeding the PDNS database: sensors and zone-file imports.

Farsight's DNSDB is fed by "a global network of sensors and several zone
files"; both input paths exist here.  A :class:`Sensor` observes live
RRsets (e.g., placed below a resolver, seeing cache-miss responses); a
:class:`ZoneFileImporter` bulk-ingests authoritative zone contents, the
way registries share zone files with Farsight.

Privacy note mirrored from the paper's §III-D: observations carry no
client identity — the sensor API accepts only the records themselves.
"""

from __future__ import annotations

from ..dns.rrset import RRset
from ..dns.zone import Zone
from .database import PdnsDatabase

__all__ = ["Sensor", "ZoneFileImporter"]


class Sensor:
    """A passive observation point contributing to a PDNS database."""

    def __init__(self, database: PdnsDatabase, sensor_id: str = "sensor-0") -> None:
        self.database = database
        self.sensor_id = sensor_id
        self.observations = 0

    def observe_rrset(self, rrset: RRset, timestamp: float) -> None:
        """Report every record of an RRset as seen at ``timestamp``."""
        for rdata in rrset.rdatas:
            self.database.observe(
                rrset.name, rrset.rrtype, str(rdata), timestamp
            )
            self.observations += 1


class ZoneFileImporter:
    """Bulk ingestion of zone files into PDNS."""

    def __init__(self, database: PdnsDatabase) -> None:
        self.database = database

    def import_zone(self, zone: Zone, timestamp: float) -> int:
        """Ingest every RRset in a zone snapshot; returns records added."""
        imported = 0
        for rrset in zone.rrsets():
            for rdata in rrset.rdatas:
                self.database.observe(
                    rrset.name, rrset.rrtype, str(rdata), timestamp
                )
                imported += 1
        return imported
