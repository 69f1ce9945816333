"""One-call regeneration of every paper artifact.

``render_all`` produces the text form of every table and figure the
paper's §IV reports, keyed by artifact id (``fig02`` … ``tab3``);
``export_all`` writes them to a directory as ``.txt`` plus
machine-readable ``.csv`` — the bundle a downstream user wants when
they say "give me the paper's numbers for my own plots".
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from .export import write_csv
from .figures import Distribution, Series, cdf_points, render_bars, render_series
from .tables import format_percent, render_table

__all__ = ["ARTIFACTS", "render_all", "export_all"]

ARTIFACTS: Tuple[str, ...] = (
    "fig02", "fig03", "fig04", "fig06", "fig07", "fig08", "fig09",
    "tab1", "tab2", "tab3", "fig10", "fig11", "fig12", "fig13", "fig14",
)


def _fig02(study) -> Tuple[str, List[List[object]], List[str]]:
    fig2 = study.pdns_replication().figure2()
    text = render_series(
        [
            Series.from_mapping("domains", {y: c[0] for y, c in fig2.items()}),
            Series.from_mapping("countries", {y: c[1] for y, c in fig2.items()}),
        ],
        title="Figure 2 — domains & countries in PDNS per year",
    )
    rows = [[year, counts[0], counts[1]] for year, counts in sorted(fig2.items())]
    return text, rows, ["year", "domains", "countries"]


def _fig03(study):
    fig3 = study.pdns_replication().figure3()
    text = render_series(
        [Series.from_mapping("nameservers", fig3)],
        title="Figure 3 — nameserver hostnames in PDNS per year",
    )
    return text, [[y, n] for y, n in sorted(fig3.items())], ["year", "nameservers"]


def _fig04(study):
    fig4 = study.pdns_replication().figure4()
    text = render_bars(
        Distribution.from_mapping("domains", fig4).top(20),
        title="Figure 4 — domains per country, PDNS 2020 (top 20)",
        value_format="{:.0f}",
    )
    rows = sorted(fig4.items(), key=lambda kv: -kv[1])
    return text, [[iso2, count] for iso2, count in rows], ["iso2", "domains"]


def _fig06(study):
    fig6 = study.pdns_replication().figure6()
    series = []
    for key, label in (
        ("overlap_2011", "2011 cohort"),
        ("new_share", "new"),
        ("gone_share", "gone"),
    ):
        series.append(
            Series.from_mapping(
                label,
                {y: row[key] * 100 for y, row in fig6.items() if key in row},
            )
        )
    text = render_series(series, title="Figure 6 — d_1NS churn (%)", y_format="{:.1f}")
    rows = [
        [
            year,
            row.get("overlap_2011", ""),
            row.get("new_share", ""),
            row.get("gone_share", ""),
        ]
        for year, row in sorted(fig6.items())
    ]
    return text, rows, ["year", "overlap_2011", "new_share", "gone_share"]


def _fig07(study):
    fig7 = study.pdns_replication().figure7()
    text = render_series(
        [
            Series.from_mapping("d_1NS private %", {y: s * 100 for y, (s, _) in fig7.items()}),
            Series.from_mapping("all private %", {y: o * 100 for y, (_, o) in fig7.items()}),
        ],
        title="Figure 7 — private deployment share per year",
        y_format="{:.1f}",
    )
    rows = [[y, s, o] for y, (s, o) in sorted(fig7.items())]
    return text, rows, ["year", "single_ns_private", "overall_private"]


def _fig08(study):
    analysis = study.active_replication()
    overall = analysis.figure8_overall()
    by_country = analysis.figure8_by_country(min_singles=3)
    text = render_bars(
        Distribution.from_mapping(
            "stale %", {k: v * 100 for k, v in by_country.items()}
        ).top(20),
        title=f"Figure 8 — stale d_1NS per country (overall {overall*100:.1f}%)",
    )
    rows = sorted(by_country.items(), key=lambda kv: -kv[1])
    return text, [[iso2, rate] for iso2, rate in rows], ["iso2", "stale_share"]


def _fig09(study):
    analysis = study.active_replication()
    histogram = analysis.figure9_distribution()
    cdf = cdf_points(histogram)
    text = render_series(
        [Series("CDF %", tuple((x, y * 100) for x, y in cdf))],
        title="Figure 9 — CDF of #nameservers per domain",
        y_format="{:.1f}",
    )
    return (
        text,
        [[count, histogram[count]] for count in sorted(histogram)],
        ["ns_count", "domains"],
    )


def _tab1(study):
    rows = study.diversity().table1()
    text = render_table(
        ["", "Domains", "|IP|>1", "|/24|>1", "|ASN|>1"],
        [
            [
                r.label,
                r.domains,
                format_percent(r.multi_ip_share),
                format_percent(r.multi_prefix_share),
                format_percent(r.multi_asn_share),
            ]
            for r in rows
        ],
        title="Table I — nameserver address diversity",
    )
    csv_rows = [
        [r.label, r.domains, r.multi_ip_share, r.multi_prefix_share, r.multi_asn_share]
        for r in rows
    ]
    return text, csv_rows, ["label", "domains", "multi_ip", "multi_24", "multi_asn"]


def _tab2(study):
    table = study.centralization().table2()
    body = []
    csv_rows = []
    for provider in sorted(table):
        u11, u20 = table[provider][2011], table[provider][2020]
        body.append(
            [provider, u11.domains, u11.single_provider_domains, u11.groups,
             u20.domains, u20.single_provider_domains, u20.groups]
        )
        csv_rows.append(
            [provider, u11.domains, u11.domain_share, u11.groups,
             u20.domains, u20.domain_share, u20.groups]
        )
    text = render_table(
        ["Provider", "2011 dom", "2011 d1P", "2011 grp",
         "2020 dom", "2020 d1P", "2020 grp"],
        body,
        title="Table II — major provider usage",
    )
    return text, csv_rows, [
        "provider", "domains_2011", "share_2011", "groups_2011",
        "domains_2020", "share_2020", "groups_2020",
    ]


def _tab3(study):
    analysis = study.centralization()
    sections = []
    csv_rows = []
    for year in (2011, 2020):
        rows = analysis.top_providers(year, limit=10)
        sections.append(
            render_table(
                ["Provider", "Domains", "Share", "Groups", "Countries"],
                [
                    [r.provider, r.domains, format_percent(r.domain_share),
                     r.groups, r.countries]
                    for r in rows
                ],
                title=f"Table III — top providers by reach, {year}",
            )
        )
        csv_rows.extend(
            [year, r.provider, r.domains, r.domain_share, r.groups, r.countries]
            for r in rows
        )
    return (
        "\n\n".join(sections),
        csv_rows,
        ["year", "provider", "domains", "share", "groups", "countries"],
    )


def _fig10(study):
    delegation = study.delegation()
    prevalence = delegation.prevalence()
    by_country = delegation.figure10_by_country()
    text = render_bars(
        Distribution.from_mapping(
            "any-defect %",
            {
                iso2: row["any"] * 100
                for iso2, row in by_country.items()
                if row["domains"] >= 10
            },
        ).top(20),
        title=(
            "Figure 10 — defective delegations "
            f"(any {prevalence['any']*100:.1f}%, partial "
            f"{prevalence['partial']*100:.1f}%, full {prevalence['full']*100:.1f}%)"
        ),
    )
    rows = [
        [iso2, int(row["domains"]), row["any"], row["partial"], row["full"]]
        for iso2, row in sorted(by_country.items())
    ]
    return text, rows, ["iso2", "domains", "any", "partial", "full"]


def _fig11(study):
    delegation = study.delegation()
    exposure = delegation.hijack_exposure()
    by_country = delegation.figure11_by_country(exposure)
    text = render_bars(
        Distribution.from_mapping(
            "victims", {k: float(v) for k, (v, _) in by_country.items()}
        ).top(20),
        title=(
            f"Figure 11 — hijack exposure: {len(exposure.available)} d_ns, "
            f"{len(exposure.victim_domains)} domains, "
            f"{len(exposure.countries)} countries"
        ),
        value_format="{:.0f}",
    )
    rows = [
        [iso2, victims, dns_count]
        for iso2, (victims, dns_count) in sorted(by_country.items())
    ]
    return text, rows, ["iso2", "victims", "available_dns"]


def _fig12(study):
    exposure = study.delegation().hijack_exposure()
    prices = exposure.prices()
    stats = exposure.price_stats()
    header = (
        f"Figure 12 — d_ns registration costs (min ${stats.get('min', 0):.2f}, "
        f"median ${stats.get('median', 0):.2f}, max ${stats.get('max', 0):.2f})"
        if stats
        else "Figure 12 — d_ns registration costs (no exposure found)"
    )
    buckets = (
        ("<$1", lambda p: p < 1),
        ("$1-$20", lambda p: 1 <= p < 20),
        ("$20-$300", lambda p: 20 <= p < 300),
        (">=$300", lambda p: p >= 300),
    )
    body = [[label, sum(1 for p in prices if test(p))] for label, test in buckets]
    text = header + "\n" + render_table(["Band", "d_ns"], body)
    rows = [
        [str(domain), quote.price_usd, quote.tier]
        for domain, quote in sorted(
            exposure.available.items(), key=lambda kv: kv[1].price_usd or 0
        )
    ]
    return text, rows, ["dns_domain", "price_usd", "tier"]


def _fig13(study):
    fig13 = study.consistency().figure13()
    text = render_table(
        ["Class", "Share"],
        [[verdict, format_percent(share)] for verdict, share in fig13.items()],
        title="Figure 13 — parent/child consistency",
    )
    return (
        text,
        [[verdict, share] for verdict, share in fig13.items()],
        ["class", "share"],
    )


def _fig14(study):
    rates = study.consistency().figure14_by_country()
    text = render_bars(
        Distribution.from_mapping(
            "disagreement %", {k: v * 100 for k, v in rates.items()}
        ).top(20),
        title="Figure 14 — P≠C rate per d_gov (top 20)",
    )
    rows = sorted(rates.items(), key=lambda kv: -kv[1])
    return text, [[iso2, rate] for iso2, rate in rows], ["iso2", "disagreement"]


_BUILDERS = {
    "fig02": _fig02, "fig03": _fig03, "fig04": _fig04, "fig06": _fig06,
    "fig07": _fig07, "fig08": _fig08, "fig09": _fig09,
    "tab1": _tab1, "tab2": _tab2, "tab3": _tab3,
    "fig10": _fig10, "fig11": _fig11, "fig12": _fig12, "fig13": _fig13,
    "fig14": _fig14,
}


def render_all(study) -> Dict[str, str]:
    """artifact id → rendered text, for every §IV table and figure."""
    return {
        artifact: _BUILDERS[artifact](study)[0] for artifact in ARTIFACTS
    }


def export_all(study, outdir: str) -> Dict[str, Tuple[str, str]]:
    """Write ``<id>.txt`` and ``<id>.csv`` per artifact into ``outdir``.

    Returns {artifact id → (txt path, csv path)}.
    """
    os.makedirs(outdir, exist_ok=True)
    written: Dict[str, Tuple[str, str]] = {}
    for artifact in ARTIFACTS:
        text, rows, headers = _BUILDERS[artifact](study)
        txt_path = os.path.join(outdir, f"{artifact}.txt")
        csv_path = os.path.join(outdir, f"{artifact}.csv")
        with open(txt_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        write_csv(csv_path, headers, rows)
        written[artifact] = (txt_path, csv_path)
    return written
