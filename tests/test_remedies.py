"""Tests for the remediation toolbox: CSYNC, EPP, sweeps."""

import pytest

from repro.dns import DnsName, NS, RRType, SOA, A, Zone
from repro.inet.address import IPv4Address
from repro.remedies.csync import CsyncProcessor, CsyncRecord
from repro.remedies.epp import EppServer

N = DnsName.parse
IP = IPv4Address.parse


def make_parent_and_child(child_ns=("ns1.kid.gov.zz", "ns2.kid.gov.zz")):
    parent = Zone(N("gov.zz"))
    parent.add_records(N("gov.zz"), NS(N("ns1.gov.zz")))
    parent.add_records(N("gov.zz"), SOA(N("ns1.gov.zz"), N("h.gov.zz")))
    parent.add_records(N("kid.gov.zz"), NS(N("old-ns.gov.zz")))
    child = Zone(N("kid.gov.zz"))
    child.add_records(N("kid.gov.zz"), *(NS(N(h)) for h in child_ns))
    child.add_records(
        N("kid.gov.zz"), SOA(N(child_ns[0]), N("h.kid.gov.zz"), serial=7)
    )
    return parent, child


class TestCsync:
    def test_no_directive_no_change(self):
        parent, child = make_parent_and_child()
        outcome = CsyncProcessor().sync_delegation(parent, child)
        assert not outcome.applied
        assert "no CSYNC" in outcome.reason

    def test_immediate_directive_applies(self):
        parent, child = make_parent_and_child()
        processor = CsyncProcessor()
        processor.publish(CsyncRecord(N("kid.gov.zz"), 7, immediate=True))
        outcome = processor.sync_delegation(parent, child)
        assert outcome.applied
        served = {
            r.nsdname for r in parent.get(N("kid.gov.zz"), RRType.NS).rdatas
        }
        assert served == {N("ns1.kid.gov.zz"), N("ns2.kid.gov.zz")}

    def test_non_immediate_requires_confirmation(self):
        parent, child = make_parent_and_child()
        refused = CsyncProcessor()  # default confirm: refuse
        refused.publish(CsyncRecord(N("kid.gov.zz"), 7, immediate=False))
        assert not refused.sync_delegation(parent, child).applied

        confirmed = CsyncProcessor(confirm=lambda zone: True)
        confirmed.publish(CsyncRecord(N("kid.gov.zz"), 7, immediate=False))
        assert confirmed.sync_delegation(parent, child).applied

    def test_stale_serial_rejected(self):
        parent, child = make_parent_and_child()
        processor = CsyncProcessor()
        processor.publish(CsyncRecord(N("kid.gov.zz"), 7, immediate=True))
        assert processor.sync_delegation(parent, child).applied
        # Re-publish with an older serial: replay must be refused.
        processor.publish(CsyncRecord(N("kid.gov.zz"), 6, immediate=True))
        parent.add_records(N("kid.gov.zz"), NS(N("rogue.gov.zz")))
        outcome = processor.sync_delegation(parent, child)
        assert not outcome.applied
        assert "stale serial" in outcome.reason

    def test_single_label_child_data_refused(self):
        parent, child = make_parent_and_child()
        from repro.dns.rrset import RRset

        child.add(
            RRset(
                N("kid.gov.zz"),
                RRType.NS,
                3600,
                (NS(DnsName(("ns",))), NS(N("ns1.kid.gov.zz"))),
            )
        )
        processor = CsyncProcessor()
        processor.publish(CsyncRecord(N("kid.gov.zz"), 9, immediate=True))
        outcome = processor.sync_delegation(parent, child)
        assert not outcome.applied
        assert "single-label" in outcome.reason

    def test_already_consistent_is_noop(self):
        parent, child = make_parent_and_child()
        processor = CsyncProcessor()
        processor.publish(CsyncRecord(N("kid.gov.zz"), 7, immediate=True))
        processor.sync_delegation(parent, child)
        # Newer serial, same data.
        processor.publish(CsyncRecord(N("kid.gov.zz"), 8, immediate=True))
        outcome = processor.sync_delegation(parent, child)
        assert not outcome.applied
        assert outcome.reason == "already consistent"

    def test_sweep_covers_all_delegations(self):
        parent, child = make_parent_and_child()
        processor = CsyncProcessor()
        processor.publish(CsyncRecord(N("kid.gov.zz"), 7, immediate=True))
        outcomes = processor.sweep(parent, {N("kid.gov.zz"): child})
        assert len(outcomes) == 1 and outcomes[0].applied

    def test_sync_carries_glue_for_in_bailiwick_ns(self):
        # Replacing the parent's NS set with in-bailiwick child names
        # must ship their A records too, or the delegation becomes
        # unresolvable (the chicken-and-egg glue problem).
        parent, child = make_parent_and_child()
        child.add_records(N("ns1.kid.gov.zz"), A(IP("10.0.0.1")))
        child.add_records(N("ns2.kid.gov.zz"), A(IP("10.0.0.2")))
        processor = CsyncProcessor()
        processor.publish(CsyncRecord(N("kid.gov.zz"), 7, immediate=True))
        assert processor.sync_delegation(parent, child).applied
        assert parent.get(N("ns1.kid.gov.zz"), RRType.A) is not None
        assert parent.get(N("ns2.kid.gov.zz"), RRType.A) is not None


class TestEpp:
    def make_server(self):
        parent, _ = make_parent_and_child()
        return EppServer(
            parent,
            authorized_registrars=("good-registrar",),
            verify_unlock=lambda domain, registrar: registrar == "good-registrar",
        )

    def test_unknown_registrar_rejected(self):
        server = self.make_server()
        with pytest.raises(PermissionError):
            server.login("evil-registrar")

    def test_update_ns(self):
        server = self.make_server()
        session = server.login("good-registrar")
        result = session.update_ns(
            N("kid.gov.zz"), [N("new1.gov.zz"), N("new2.gov.zz")]
        )
        assert result.ok
        served = {
            r.nsdname
            for r in server.parent_zone.get(N("kid.gov.zz"), RRType.NS).rdatas
        }
        assert served == {N("new1.gov.zz"), N("new2.gov.zz")}

    def test_empty_ns_set_rejected(self):
        session = self.make_server().login("good-registrar")
        assert not session.update_ns(N("kid.gov.zz"), []).ok

    def test_delete_delegation(self):
        server = self.make_server()
        session = server.login("good-registrar")
        assert session.delete_delegation(N("kid.gov.zz")).ok
        assert server.parent_zone.get(N("kid.gov.zz"), RRType.NS) is None
        # Deleting again: object does not exist.
        assert session.delete_delegation(N("kid.gov.zz")).code == 2303

    def test_lock_blocks_updates(self):
        server = self.make_server()
        session = server.login("good-registrar")
        assert session.lock(N("kid.gov.zz")).ok
        assert not session.update_ns(N("kid.gov.zz"), [N("x.gov.zz")]).ok
        assert not session.delete_delegation(N("kid.gov.zz")).ok
        # Original delegation untouched.
        assert server.parent_zone.get(N("kid.gov.zz"), RRType.NS) is not None

    def test_unlock_requires_verification(self):
        parent, _ = make_parent_and_child()
        server = EppServer(
            parent,
            authorized_registrars=("r1",),
            verify_unlock=lambda domain, registrar: False,
        )
        session = server.login("r1")
        session.lock(N("kid.gov.zz"))
        assert not session.unlock(N("kid.gov.zz")).ok
        assert server.is_locked(N("kid.gov.zz"))

    def test_unlock_with_verification(self):
        server = self.make_server()
        session = server.login("good-registrar")
        session.lock(N("kid.gov.zz"))
        assert session.unlock(N("kid.gov.zz")).ok
        assert session.update_ns(N("kid.gov.zz"), [N("x.gov.zz")]).ok

    def test_audit_log_records_everything(self):
        server = self.make_server()
        session = server.login("good-registrar")
        session.lock(N("kid.gov.zz"))
        session.update_ns(N("kid.gov.zz"), [N("x.gov.zz")])  # refused
        assert len(server.audit_log) == 2
        assert server.audit_log[0].ok
        assert not server.audit_log[1].ok


class TestSweeper:
    @pytest.fixture(scope="class")
    def swept(self, study):
        # Sweeping mutates zones; the session-scoped study fixture must
        # stay pristine for other tests, so run on a fresh world.
        from repro.core.study import GovernmentDnsStudy
        from repro.remedies.sweeper import RemediationSweeper
        from repro.worldgen import WorldConfig, WorldGenerator

        world = WorldGenerator(WorldConfig(seed=21, scale=0.004)).generate()
        fresh_study = GovernmentDnsStudy(world)
        before = fresh_study.headline()
        sweeper = RemediationSweeper(fresh_study)
        report = sweeper.sweep()
        # Re-measure with a fresh campaign over the repaired world.
        after_study = GovernmentDnsStudy(world)
        after = after_study.headline()
        return before, report, after

    def test_sweep_changes_something(self, swept):
        _, report, _ = swept
        assert report.total_changes > 0
        assert report.zombies_deleted
        assert report.delegations_updated

    def test_defects_drop_after_sweep(self, swept):
        # Parent-side tooling (EPP/CSYNC) cannot reach broken records
        # that also live in the *child's* NS set — those need the zone
        # operator.  So full defects collapse (zombies deleted) and the
        # overall rate drops, but does not reach zero: registry-side
        # cleanup alone is insufficient, which is itself a finding.
        before, _, after = swept
        assert after["defective_full"] < before["defective_full"] * 0.3
        assert after["defective_any"] < before["defective_any"] * 0.8

    def test_consistency_improves_after_sweep(self, swept):
        before, _, after = swept
        assert after["consistent_share"] >= before["consistent_share"]

    def test_zombies_gone_from_parent_zones(self, swept):
        before, _, after = swept
        # Deleted delegations now answer "empty" instead of referring
        # to dead servers: non-empty count drops.
        assert after["parent_nonempty"] < before["parent_nonempty"]
