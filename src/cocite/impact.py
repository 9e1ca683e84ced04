"""Hit designation by citation percentile and categorical hit-rate tests."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .classify import CATEGORIES, PubSummary
from .corpus import Publication, write_rows

HIT_PERCENTILES = (1, 2, 5, 10)

# Goodness-of-fit tests need every expected cell at least this large.
MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class HitConfig:
    hit_percentile: int = 10

    def __post_init__(self):
        if self.hit_percentile not in HIT_PERCENTILES:
            raise ValueError(
                f"hit_percentile must be one of {HIT_PERCENTILES}, got {self.hit_percentile!r}"
            )


def designate_hits(pubs: Sequence[Publication], cfg: HitConfig) -> set[str]:
    """Publications at or above the (100 - p)th citation percentile.

    Ties at the cutoff are all included, so the hit fraction can slightly
    exceed p percent.
    """
    if not pubs:
        raise ValueError("cannot designate hits on an empty corpus")
    counts = np.asarray([p.citations_8yr for p in pubs], dtype=np.int64)
    cutoff = np.percentile(counts, 100.0 - cfg.hit_percentile)
    return {p.pub_id for p, c in zip(pubs, counts.tolist()) if c >= cutoff}


def chi2_sf(statistic: float, df: int) -> float:
    """Chi-square survival function via the regularized upper incomplete gamma."""
    # Imported here so that only the commands that run a chi-square test load scipy.
    from scipy.special import gammaincc

    return float(gammaincc(df / 2.0, statistic / 2.0))


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    p_value: float
    valid: bool
    direction: dict[str, str]


def chi_square_gof(observed: Mapping[str, int], sizes: Mapping[str, int]) -> ChiSquareResult:
    """Goodness of fit against hits distributed in proportion to cell sizes."""
    cells = list(observed)
    total_obs = sum(observed.values())
    total_size = sum(sizes.values())
    stat = 0.0
    direction: dict[str, str] = {}
    valid = True
    for c in cells:
        expected = total_obs * sizes[c] / total_size if total_size else 0.0
        if expected < MIN_EXPECTED:
            valid = False
        if expected > 0.0:
            stat += (observed[c] - expected) ** 2 / expected
        if observed[c] > expected:
            direction[c] = "over"
        elif observed[c] < expected:
            direction[c] = "under"
        else:
            direction[c] = "equal"
    df = len(cells) - 1
    return ChiSquareResult(stat, df, chi2_sf(stat, df), valid, direction)


@dataclass(frozen=True)
class CategoryRow:
    category: str
    n_articles: int
    n_hits: int
    hit_rate: float


@dataclass(frozen=True)
class HitReport:
    categories: tuple[CategoryRow, ...]
    chi2_4cat: ChiSquareResult
    chi2_novelty: ChiSquareResult
    chi2_conventionality: ChiSquareResult
    total_articles: int
    total_hits: int


def hit_report(summaries: Sequence[PubSummary], hits: set[str]) -> HitReport:
    """Hit rates per category plus the three goodness-of-fit tests."""
    n_articles = {c: 0 for c in CATEGORIES}
    n_hits = {c: 0 for c in CATEGORIES}
    for s in summaries:
        if s.category is None:
            raise ValueError(f"publication {s.pub_id!r} has no category assigned")
        n_articles[s.category] += 1
        if s.pub_id in hits:
            n_hits[s.category] += 1
    rows = tuple(
        CategoryRow(
            c,
            n_articles[c],
            n_hits[c],
            n_hits[c] / n_articles[c] if n_articles[c] else 0.0,
        )
        for c in CATEGORIES
    )
    novelty_obs = {
        "LN": n_hits["LNLC"] + n_hits["LNHC"],
        "HN": n_hits["HNLC"] + n_hits["HNHC"],
    }
    novelty_sizes = {
        "LN": n_articles["LNLC"] + n_articles["LNHC"],
        "HN": n_articles["HNLC"] + n_articles["HNHC"],
    }
    conv_obs = {
        "LC": n_hits["LNLC"] + n_hits["HNLC"],
        "HC": n_hits["LNHC"] + n_hits["HNHC"],
    }
    conv_sizes = {
        "LC": n_articles["LNLC"] + n_articles["HNLC"],
        "HC": n_articles["LNHC"] + n_articles["HNHC"],
    }
    return HitReport(
        categories=rows,
        chi2_4cat=chi_square_gof(n_hits, n_articles),
        chi2_novelty=chi_square_gof(novelty_obs, novelty_sizes),
        chi2_conventionality=chi_square_gof(conv_obs, conv_sizes),
        total_articles=sum(n_articles.values()),
        total_hits=sum(n_hits.values()),
    )


def write_hit_report_csv(report: HitReport, path: str | Path) -> None:
    write_rows(path, ("category", "n_articles", "n_hits", "hit_rate"),
               ((r.category, r.n_articles, r.n_hits, r.hit_rate) for r in report.categories))


def write_hit_tests_json(report: HitReport, path: str | Path) -> None:
    payload = {
        "four_category": asdict(report.chi2_4cat),
        "novelty": asdict(report.chi2_novelty),
        "conventionality": asdict(report.chi2_conventionality),
        "total_articles": report.total_articles,
        "total_hits": report.total_hits,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_hit_grid(report: HitReport) -> str:
    """Two-by-two text grid of hit rates (novelty rows, conventionality columns)."""
    by_cat = {row.category: row for row in report.categories}
    lines = [f"{'':>4} {'LC':>18} {'HC':>18}"]
    for nov in ("HN", "LN"):
        cells = []
        for conv in ("LC", "HC"):
            row = by_cat[nov + conv]
            cells.append(f"{row.hit_rate:.4f} ({row.n_hits}/{row.n_articles})")
        lines.append(f"{nov:>4} {cells[0]:>18} {cells[1]:>18}")
    return "\n".join(lines)
