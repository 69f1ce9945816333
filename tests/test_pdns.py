"""Tests for repro.pdns: records, database, sensors, filtering."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.name import DnsName
from repro.dns.rdata import NS, RRType, A
from repro.dns.rrset import RRset
from repro.dns.zone import Zone
from repro.inet.address import IPv4Address
from repro.inet.clock import SECONDS_PER_DAY, date_to_epoch
from repro.pdns.database import PdnsDatabase
from repro.pdns.filtering import (
    STABILITY_THRESHOLD_DAYS,
    filter_pre_government,
    stable_records,
)
from repro.pdns.record import PdnsRecord
from repro.pdns.sensor import Sensor, ZoneFileImporter

N = DnsName.parse


def record(name, rdata="ns1.x.", first=0.0, last=0.0, rrtype=RRType.NS):
    return PdnsRecord(
        rrname=N(name), rrtype=rrtype, rdata=rdata, first_seen=first, last_seen=last
    )


class TestPdnsRecord:
    def test_invalid_times_rejected(self):
        with pytest.raises(ValueError):
            record("a.b", first=10.0, last=5.0)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            PdnsRecord(N("a.b"), RRType.NS, "x.", 0.0, 0.0, count=0)

    def test_duration_and_window_overlap(self):
        r = record("a.b", first=100.0, last=500.0)
        assert r.duration == 400.0
        assert r.active_during(0.0, 200.0)
        assert r.active_during(450.0, 600.0)
        assert not r.active_during(501.0, 600.0)
        assert not r.active_during(0.0, 100.0)  # end-exclusive window

    def test_merge_extends_bounds(self):
        r = record("a.b", first=100.0, last=200.0)
        merged = r.merged_with(50.0).merged_with(300.0)
        assert merged.first_seen == 50.0
        assert merged.last_seen == 300.0
        assert merged.count == 3

    def test_rdata_name_parses_ns(self):
        assert record("a.b", rdata="ns1.prov.net.").rdata_name() == N("ns1.prov.net")
        with pytest.raises(ValueError):
            record("a.b", rrtype=RRType.TXT, rdata="hello").rdata_name()


class TestDatabase:
    def test_observe_merges(self):
        db = PdnsDatabase()
        db.observe(N("a.gov.x"), RRType.NS, "ns1.y.", 100.0)
        db.observe(N("a.gov.x"), RRType.NS, "ns1.y.", 900.0)
        rows = db.lookup(N("a.gov.x"))
        assert len(rows) == 1
        assert rows[0].first_seen == 100.0
        assert rows[0].last_seen == 900.0
        assert rows[0].count == 2

    def test_distinct_rdata_distinct_rows(self):
        db = PdnsDatabase()
        db.observe(N("a.gov.x"), RRType.NS, "ns1.y.", 0.0)
        db.observe(N("a.gov.x"), RRType.NS, "ns2.y.", 0.0)
        assert len(db.lookup(N("a.gov.x"))) == 2

    def test_lookup_type_filter(self):
        db = PdnsDatabase()
        db.observe(N("a.gov.x"), RRType.NS, "ns1.y.", 0.0)
        db.observe(N("a.gov.x"), RRType.A, "1.1.1.1", 0.0)
        assert len(db.lookup(N("a.gov.x"), RRType.NS)) == 1

    def test_observe_span(self):
        db = PdnsDatabase()
        db.observe_span(N("a.gov.x"), RRType.NS, "ns1.y.", 100.0, 5000.0, count=7)
        row = db.lookup(N("a.gov.x"))[0]
        assert (row.first_seen, row.last_seen, row.count) == (100.0, 5000.0, 7)
        db.observe_span(N("a.gov.x"), RRType.NS, "ns1.y.", 50.0, 6000.0)
        row = db.lookup(N("a.gov.x"))[0]
        assert (row.first_seen, row.last_seen, row.count) == (50.0, 6000.0, 8)

    def test_wildcard_left_matches_subtree(self):
        db = PdnsDatabase()
        db.observe(N("gov.x"), RRType.NS, "ns1.y.", 0.0)
        db.observe(N("a.gov.x"), RRType.NS, "ns1.y.", 0.0)
        db.observe(N("b.a.gov.x"), RRType.NS, "ns1.y.", 0.0)
        db.observe(N("gov.xy"), RRType.NS, "ns1.y.", 0.0)  # NOT under gov.x
        db.observe(N("xgov.x"), RRType.NS, "ns1.y.", 0.0)  # NOT under gov.x
        names = {str(r.rrname) for r in db.wildcard_left(N("gov.x"))}
        assert names == {"gov.x.", "a.gov.x.", "b.a.gov.x."}

    def test_wildcard_excluding_apex(self):
        db = PdnsDatabase()
        db.observe(N("gov.x"), RRType.NS, "ns1.y.", 0.0)
        db.observe(N("a.gov.x"), RRType.NS, "ns1.y.", 0.0)
        rows = db.wildcard_left(N("gov.x"), include_apex=False)
        assert {str(r.rrname) for r in rows} == {"a.gov.x."}

    def test_wildcard_time_fencing(self):
        db = PdnsDatabase()
        db.observe_span(N("old.gov.x"), RRType.NS, "n.", 0.0, 100.0)
        db.observe_span(N("new.gov.x"), RRType.NS, "n.", 500.0, 900.0)
        rows = db.wildcard_left(N("gov.x"), seen_after=200.0)
        assert {str(r.rrname) for r in rows} == {"new.gov.x."}
        rows = db.wildcard_left(N("gov.x"), seen_before=200.0)
        assert {str(r.rrname) for r in rows} == {"old.gov.x."}

    def test_names_under_dedupes(self):
        db = PdnsDatabase()
        db.observe(N("a.gov.x"), RRType.NS, "ns1.y.", 0.0)
        db.observe(N("a.gov.x"), RRType.NS, "ns2.y.", 0.0)
        assert len(db.names_under(N("gov.x"))) == 1

    def test_interleaved_insert_and_search(self):
        db = PdnsDatabase()
        db.observe(N("a.gov.x"), RRType.NS, "n.", 0.0)
        assert len(db.wildcard_left(N("gov.x"))) == 1
        db.observe(N("z.gov.x"), RRType.NS, "n.", 0.0)
        assert len(db.wildcard_left(N("gov.x"))) == 2

    @given(
        st.lists(
            st.sampled_from(
                ["gov.x", "a.gov.x", "b.gov.x", "c.b.gov.x", "gov.y", "a.gov.y"]
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_wildcard_agrees_with_linear_scan(self, names):
        db = PdnsDatabase()
        for index, name in enumerate(names):
            db.observe(N(name), RRType.NS, f"ns{index}.z.", float(index))
        suffix = N("gov.x")
        expected = {
            record.key
            for record in db
            if record.rrname.is_subdomain_of(suffix)
        }
        actual = {record.key for record in db.wildcard_left(suffix)}
        assert actual == expected


class TestSensors:
    def test_sensor_observes_rrsets(self):
        db = PdnsDatabase()
        sensor = Sensor(db)
        rrset = RRset.of(
            N("a.gov.x"), [NS(N("ns1.y")), NS(N("ns2.y"))], ttl=300
        )
        sensor.observe_rrset(rrset, 100.0)
        assert sensor.observations == 2
        assert len(db.lookup(N("a.gov.x"))) == 2

    def test_zone_importer(self):
        db = PdnsDatabase()
        zone = Zone(N("gov.x"))
        zone.add_records(N("gov.x"), NS(N("ns1.gov.x")))
        zone.add_records(N("ns1.gov.x"), A(IPv4Address.parse("1.1.1.1")))
        imported = ZoneFileImporter(db).import_zone(zone, 50.0)
        assert imported == 2
        assert len(db) == 2


class TestFiltering:
    def test_threshold_constant_is_seven_days(self):
        assert STABILITY_THRESHOLD_DAYS == 7

    def test_stable_records_drop_transients(self):
        stable = record("a.b", first=0.0, last=8 * SECONDS_PER_DAY)
        transient = record("c.d", first=0.0, last=2 * SECONDS_PER_DAY)
        kept = stable_records([stable, transient])
        assert kept == (stable,)

    def test_exact_threshold_kept(self):
        boundary = record("a.b", first=0.0, last=7 * SECONDS_PER_DAY)
        assert stable_records([boundary]) == (boundary,)

    def test_pre_government_filter(self):
        control = date_to_epoch(2015)
        before = record("a.b", first=date_to_epoch(2010), last=date_to_epoch(2012))
        straddle = record("a.b", rdata="n2.", first=date_to_epoch(2013), last=date_to_epoch(2018))
        after = record("a.b", rdata="n3.", first=date_to_epoch(2016), last=date_to_epoch(2019))
        kept = filter_pre_government([before, straddle, after], control)
        assert len(kept) == 2
        clamped = [r for r in kept if r.rdata == "n2."][0]
        assert clamped.first_seen == control

    def test_no_control_start_keeps_everything(self):
        rows = (record("a.b"), record("c.d"))
        assert filter_pre_government(rows, None) == rows
