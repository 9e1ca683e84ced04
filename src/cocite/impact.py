"""Hit designation by citation percentile and categorical hit-rate tests."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .classify import CATEGORIES, PubTable
from .corpus import Corpus, Publication, write_columns

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


def hit_rows(citations_8yr: np.ndarray, cfg: HitConfig) -> np.ndarray:
    """Rows at or above the (100 - p)th percentile of the citation counts.

    Ties at the cutoff are all included, so the hit fraction can slightly
    exceed p percent.
    """
    if not len(citations_8yr):
        raise ValueError("cannot designate hits on an empty corpus")
    cutoff = np.percentile(citations_8yr, 100.0 - cfg.hit_percentile)
    return np.flatnonzero(citations_8yr >= cutoff)


def corpus_hits(corpus: Corpus, cfg: HitConfig) -> set[str]:
    """Ids of the corpus's ``hit_rows``."""
    return {corpus.pub_ids[i] for i in hit_rows(corpus.citations_8yr, cfg).tolist()}


def designate_hits(pubs: Sequence[Publication], cfg: HitConfig) -> set[str]:
    """Ids of the ``hit_rows`` of a sequence of publications."""
    counts = np.fromiter((p.citations_8yr for p in pubs), np.int64, len(pubs))
    return {pubs[i].pub_id for i in hit_rows(counts, cfg).tolist()}


# The regularized upper incomplete gamma Q(a, x) below is a port of Cephes
# `igamc` (`igam.c`, `unity.c`), the code behind `scipy.special.gammaincc`,
# without its asymptotic branch for a > 20. It uses the same libm calls in
# the same order, so for the df whose gamma constants are pinned it returns
# scipy's bits.
MACHEP = 1.11022302462515654042e-16
MAXLOG = 7.09782712893383996843e2
MAXITER = 2000
BIG = 4.503599627370496e15
BIGINV = 2.22044604925031308085e-16
LANCZOS_G = 6.024680040776729583740234375

# Cephes' (lgam(a), lgam1p(a), lanczos_sum_expg_scaled(a)) at a = df/2 for
# the df that `hit_report` tests. `math.lgamma` differs in the last ulp.
CEPHES_GAMMA_CONSTANTS = {
    1: (0.5723649429247, -0.12078223763524884, 1.772453850905516),
    3: (-0.12078223763524526, 0.2846828704729192, 0.3429358395493544),
}

# Numerator and denominator of Cephes' rational expm1 on [-0.5, 0.5].
_EXPM1_P = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2,
            9.9999999999999999991025e-1)
_EXPM1_Q = (3.0019850513866445504159e-6, 2.5244834034968410419224e-3,
            2.2726554820815502876593e-1, 2.0000000000000000000897e0)


def _gamma_constants(df: int) -> tuple[float, float, float]:
    pinned = CEPHES_GAMMA_CONSTANTS.get(df)
    if pinned is not None:
        return pinned
    a = df / 2.0
    lgam = math.lgamma(a)
    lanczos = math.exp(lgam + a - 0.5 - (a - 0.5) * math.log(a + LANCZOS_G - 0.5))
    return lgam, math.lgamma(a + 1.0), lanczos


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _cephes_expm1(x: float) -> float:
    # Not math.expm1: libm rounds differently from Cephes in the last ulp.
    # Only _igamc_series calls it, at df 1 and 2, where |x| < 0.3.
    xx = x * x
    r = x * _polevl(xx, _EXPM1_P)
    r = r / (_polevl(xx, _EXPM1_Q) - r)
    return r + r


def _log1pmx(x: float) -> float:
    """log(1 + x) - x."""
    # Only _igam_fac calls it, with a >= 142.9, where |x| < 0.43.
    xfac = x
    res = 0.0
    for n in range(2, MAXITER):
        xfac *= -x
        term = xfac / n
        res += term
        if abs(term) < MACHEP * abs(res):
            break
    return res


def _igam_fac(a: float, x: float, lgam: float, lanczos: float) -> float:
    """x**a * exp(-x) / gamma(a)."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - lgam
        return 0.0 if ax < -MAXLOG else math.exp(ax)
    fac = a + LANCZOS_G - 0.5
    res = math.sqrt(fac / math.e) / lanczos
    if a < 200.0 and x < 200.0:
        return res * (math.exp(a - x) * math.pow(x / fac, a))
    num = x - a - LANCZOS_G + 0.5
    return res * math.exp(a * _log1pmx(num / fac) + x * (0.5 - LANCZOS_G) / fac)


def _igam_series(a: float, x: float, lgam: float, lanczos: float) -> float:
    """Lower regularized gamma P(a, x) by its power series (DLMF 8.11.4)."""
    ax = _igam_fac(a, x, lgam, lanczos)
    if ax == 0.0:
        return 0.0
    r = a
    c = 1.0
    ans = 1.0
    for _ in range(MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= MACHEP * ans:
            break
    return ans * ax / a


def _igamc_series(a: float, x: float, lgam: float, lgam1p: float) -> float:
    """Q(a, x) for small x, avoiding cancellation (DLMF 8.7.3)."""
    fac = 1.0
    total = 0.0
    for n in range(1, MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= MACHEP * abs(total):
            break
    logx = math.log(x)
    term = -_cephes_expm1(a * logx - lgam1p)
    return term - math.exp(a * logx - lgam) * total


def _igamc_continued_fraction(a: float, x: float, lgam: float, lanczos: float) -> float:
    """Q(a, x) for large x by its continued fraction (DLMF 8.9.2)."""
    ax = _igam_fac(a, x, lgam, lanczos)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2 = 1.0
    qkm2 = x
    pkm1 = x + 1.0
    qkm1 = z * x
    ans = pkm1 / qkm1
    for _ in range(MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1 = pkm1, pk
        qkm2, qkm1 = qkm1, qk
        if abs(pk) > BIG:
            pkm2 *= BIGINV
            pkm1 *= BIGINV
            qkm2 *= BIGINV
            qkm1 *= BIGINV
        if t <= MACHEP:
            break
    return ans * ax


def chi2_sf(statistic: float, df: int) -> float:
    """Chi-square survival function, Q(df/2, statistic/2).

    For df 1 and 3 it equals `scipy.special.gammaincc(df / 2, statistic / 2)`
    bit for bit. Other df take their gamma constants from `math.lgamma`,
    which keeps them within about 1e-13 relative error up to df 200 and
    1e-12 up to df 5000.
    """
    a = df / 2.0
    x = statistic / 2.0
    if not (x >= 0.0 and a >= 0.0):
        return math.nan
    if a == 0.0:
        return 0.0 if x > 0.0 else math.nan
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    lgam, lgam1p, lanczos = _gamma_constants(df)
    if x > 1.1:
        if x < a:
            return 1.0 - _igam_series(a, x, lgam, lanczos)
        return _igamc_continued_fraction(a, x, lgam, lanczos)
    # Below x = 1.1 the lower series serves while a is large against x.
    if x <= 0.5:
        via_lower = -0.4 / math.log(x) < a
    else:
        via_lower = x * 1.1 < a
    if via_lower:
        return 1.0 - _igam_series(a, x, lgam, lanczos)
    return _igamc_series(a, x, lgam, lgam1p)


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


def hit_report(table: PubTable, hits: set[str]) -> HitReport:
    """Hit rates per category plus the three goodness-of-fit tests."""
    unlabeled = np.flatnonzero(table.category < 0)
    if len(unlabeled):
        raise ValueError(f"publication {table.pub_ids[unlabeled[0]]!r} has no category assigned")
    is_hit = np.fromiter(map(hits.__contains__, table.pub_ids), bool, len(table))
    # counts[novelty, conventionality, hit]: a category code is 2 * HN + HC.
    counts = np.bincount(2 * table.category + is_hit, minlength=8).reshape(2, 2, 2)
    n_articles, n_hits = counts.sum(axis=2), counts[..., 1]

    def gof(cells, observed, sizes):
        return chi_square_gof(dict(zip(cells, observed.ravel().tolist())),
                              dict(zip(cells, sizes.ravel().tolist())))

    rows = tuple(
        CategoryRow(c, n, h, h / n if n else 0.0)
        for c, n, h in zip(CATEGORIES, n_articles.ravel().tolist(), n_hits.ravel().tolist())
    )
    return HitReport(
        categories=rows,
        chi2_4cat=gof(CATEGORIES, n_hits, n_articles),
        chi2_novelty=gof(("LN", "HN"), n_hits.sum(axis=1), n_articles.sum(axis=1)),
        chi2_conventionality=gof(("LC", "HC"), n_hits.sum(axis=0), n_articles.sum(axis=0)),
        total_articles=len(table),
        total_hits=int(n_hits.sum()),
    )


def write_hit_report_csv(report: HitReport, path: str | Path) -> None:
    write_columns(path, ("category", "n_articles", "n_hits", "hit_rate"),
                  zip(*((r.category, r.n_articles, r.n_hits, r.hit_rate)
                        for r in report.categories)))


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
