"""DNS substrate: names, records, zones, servers, and resolution.

A from-scratch, RFC-1034/1035-semantics DNS implementation over the
simulated network in :mod:`repro.net`.  It exists so the paper's
measurement pipeline (:mod:`repro.core`) can run against a synthetic
Internet exhibiting the same deployment pathologies the authors measured
on the real one.
"""

from .cache import MAX_RESOLVER_TTL, ResolverCache, ZoneCut, ZoneCutCache
from .errors import (
    DnsError,
    NameError_,
    NoNameservers,
    ResolutionError,
    ResolutionLoop,
    ZoneError,
    ZoneFileError,
)
from .message import Message, Question, Rcode, make_query, make_response
from .name import ROOT, DnsName, parse_cached
from .rdata import AAAA, CNAME, MX, NS, PTR, RRType, SOA, TXT, A, Rdata
from .resolver import Resolution, Resolver
from .rrset import RRset
from .server import AuthoritativeServer, MissBehavior, ParkingServer
from .zone import LookupResult, LookupStatus, Zone
from .zonefile import parse_name_token, parse_zone_file, serialize_zone

__all__ = [
    "MAX_RESOLVER_TTL",
    "ResolverCache",
    "ZoneCut",
    "ZoneCutCache",
    "DnsError",
    "NameError_",
    "NoNameservers",
    "ResolutionError",
    "ResolutionLoop",
    "ZoneError",
    "ZoneFileError",
    "Message",
    "Question",
    "Rcode",
    "make_query",
    "make_response",
    "ROOT",
    "DnsName",
    "parse_cached",
    "AAAA",
    "CNAME",
    "MX",
    "NS",
    "PTR",
    "RRType",
    "SOA",
    "TXT",
    "A",
    "Rdata",
    "Resolution",
    "Resolver",
    "RRset",
    "AuthoritativeServer",
    "MissBehavior",
    "ParkingServer",
    "LookupResult",
    "LookupStatus",
    "Zone",
    "parse_name_token",
    "parse_zone_file",
    "serialize_zone",
]
