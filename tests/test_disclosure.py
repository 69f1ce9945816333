"""Tests for the responsible-disclosure package builder."""

import io

import pytest

from repro.cli import main
from repro.report.disclosure import (
    SEVERITY,
    build_disclosures,
    render_package,
)


@pytest.fixture(scope="module")
def packages(study):
    return build_disclosures(study)


class TestBuildDisclosures:
    def test_only_countries_with_findings(self, packages):
        assert packages
        for package in packages.values():
            assert package.findings

    def test_hijack_victims_covered(self, study, packages):
        exposure = study.delegation().hijack_exposure()
        for victim in exposure.victim_domains:
            iso2 = exposure.victim_country.get(victim)
            if iso2 is None:
                continue
            package = packages[iso2]
            assert any(
                f.domain == victim and f.kind == "hijackable_ns_domain"
                for f in package.findings
            )

    def test_defects_covered(self, study, packages):
        reports = study.delegation().reports()
        exposure = study.delegation().hijack_exposure()
        hijacked = set(exposure.victim_domains)
        sampled = 0
        for report in reports.values():
            if not report.any_defect or report.domain in hijacked:
                continue
            package = packages.get(report.iso2)
            assert package is not None
            assert any(f.domain == report.domain for f in package.findings)
            sampled += 1
            if sampled > 50:
                break
        assert sampled > 0

    def test_severity_ordering_in_render(self, packages):
        package = max(packages.values(), key=lambda p: len(p.findings))
        grouped = list(package.by_kind())
        severities = [SEVERITY.get(kind, 99) for kind in grouped]
        assert severities == sorted(severities)

    def test_domains_attributed_to_right_country(self, study, packages):
        mapper_seeds = study.seeds()
        for iso2, package in packages.items():
            d_gov = mapper_seeds[iso2].d_gov
            for finding in package.findings[:10]:
                assert finding.domain.is_subdomain_of(d_gov)

    def test_every_finding_has_advice(self, packages):
        for package in packages.values():
            for finding in package.findings:
                assert finding.advice


class TestRenderPackage:
    def test_render_names_the_suffix(self, packages):
        package = next(iter(packages.values()))
        text = render_package(package)
        assert str(package.d_gov) in text
        assert "Recommended action" in text

    def test_large_groups_truncated(self, packages):
        package = max(packages.values(), key=lambda p: len(p.findings))
        text = render_package(package)
        # Render stays bounded even for the worst operator.
        assert len(text.splitlines()) < 400


class TestDiscloseCli:
    def test_listing(self):
        out = io.StringIO()
        code = main(["--scale", "0.002", "--seed", "11", "disclose"], out=out)
        assert code == 0
        assert "operators to notify" in out.getvalue()

    def test_unknown_country(self):
        out = io.StringIO()
        code = main(
            ["--scale", "0.002", "--seed", "11", "disclose", "zz"], out=out
        )
        assert code == 1
