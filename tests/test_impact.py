import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc, gammaln
from scipy.special._ufuncs import _lanczos_sum_expg_scaled, _lgam1p

import cocite
from cocite import CATEGORIES, HitConfig, designate_hits, hit_report
from cocite.corpus import Publication
from cocite.impact import CEPHES_GAMMA_CONSTANTS, chi2_sf, chi_square_gof


def pub(pid, cites):
    return Publication(pid, 1995, "J", ("r1", "r2"), cites)


def chi2_sf_quadrature(x, df):
    """Independent oracle: integrate the chi-square density over [x, inf)."""

    def pdf(t):
        return t ** (df / 2 - 1) * math.exp(-t / 2) / (2 ** (df / 2) * math.gamma(df / 2))

    value, _ = quad(pdf, x, np.inf)
    return value


def sort_based_hits(counts, pct):
    """Independent oracle: take the top ceil(p% * N) by count, ties included."""
    n = len(counts)
    k = math.ceil(n * pct / 100)
    cutoff = sorted(counts, reverse=True)[k - 1]
    return {i for i, c in enumerate(counts) if c >= cutoff}


def test_exact_deciles():
    pubs = [pub(f"p{i}", i) for i in range(100)]
    hits = designate_hits(pubs, HitConfig(10))
    assert hits == {f"p{i}" for i in range(90, 100)}


def test_all_tied_counts_are_all_hits():
    pubs = [pub(f"p{i}", 7) for i in range(50)]
    assert designate_hits(pubs, HitConfig(10)) == {f"p{i}" for i in range(50)}


@pytest.mark.parametrize("pct", [1, 2, 5, 10])
def test_heavy_tail_matches_sort_oracle(pct):
    rng = np.random.default_rng(41)
    counts = np.floor(rng.lognormal(1.0, 1.5, size=1000)).astype(int).tolist()
    pubs = [pub(f"p{i}", c) for i, c in enumerate(counts)]
    hits = designate_hits(pubs, HitConfig(pct))
    oracle = {f"p{i}" for i in sort_based_hits(counts, pct)}
    assert hits == oracle


def test_empty_corpus_is_an_error():
    with pytest.raises(ValueError, match="empty"):
        designate_hits([], HitConfig(10))


def test_hit_config_validation():
    with pytest.raises(ValueError, match="hit_percentile"):
        HitConfig(3)


def test_chi_square_textbook_case():
    observed = {"LNLC": 10, "LNHC": 20, "HNLC": 30, "HNHC": 40}
    sizes = {c: 250 for c in observed}
    result = chi_square_gof(observed, sizes)
    assert result.statistic == pytest.approx(20.0)
    assert result.df == 3
    assert result.p_value == pytest.approx(1.70e-4, abs=1e-6)
    assert result.p_value == pytest.approx(chi2_sf_quadrature(20.0, 3), abs=1e-10)
    assert result.valid
    assert result.direction == {"LNLC": "under", "LNHC": "under",
                                "HNLC": "over", "HNHC": "over"}


def test_chi_square_null_case():
    observed = {"a": 5, "b": 10, "c": 15}
    sizes = {"a": 100, "b": 200, "c": 300}
    result = chi_square_gof(observed, sizes)
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert all(v == "equal" for v in result.direction.values())


def test_chi_square_invalid_when_expected_below_five():
    observed = {"a": 4, "b": 28}
    sizes = {"a": 10, "b": 90}
    result = chi_square_gof(observed, sizes)
    # expected(a) = 32 * 0.1 = 3.2
    assert not result.valid


def test_chi_square_scale_invariance():
    observed = {"a": 12, "b": 20, "c": 8}
    sizes = {"a": 50, "b": 100, "c": 70}
    scaled = {k: 13 * v for k, v in sizes.items()}
    assert chi_square_gof(observed, sizes).statistic == pytest.approx(
        chi_square_gof(observed, scaled).statistic
    )


def test_sf_matches_quadrature_oracle_across_df():
    for x, df in [(0.0, 3), (1.5, 1), (7.0, 2), (20.0, 3), (3.3, 6)]:
        assert chi2_sf(x, df) == pytest.approx(chi2_sf_quadrature(x, df), rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("df", [1, 3])
def test_sf_equals_scipy_gammaincc_bit_for_bit(df):
    a = df / 2
    rng = np.random.default_rng(100 + df)
    x = np.concatenate([
        [0.0],
        rng.uniform(0.0, 0.449, 10_000),        # 1 - power series (df 1: -0.4/log(x) < a)
        rng.uniform(0.449, 1.1, 10_000),        # complement series with Cephes' expm1
        rng.uniform(0.6 * a, 1.4 * a, 10_000),  # Lanczos form of x**a e**-x / gamma(a)
        rng.uniform(1.1, 50.0, 10_000),         # continued fraction
        np.exp(rng.uniform(-700.0, 7.0, 10_000)),
    ])
    stats = 2.0 * x
    expected = gammaincc(a, x)
    got = np.array([chi2_sf(s, df) for s in stats.tolist()])
    mismatched = stats[got != expected]
    assert mismatched.size == 0, mismatched[:5]


def test_pinned_gamma_constants_are_scipy_bits():
    for df, (lgam, lgam1p, lanczos) in CEPHES_GAMMA_CONSTANTS.items():
        a = df / 2
        assert lgam == float(gammaln(a))
        assert lgam1p == float(_lgam1p(a))
        assert lanczos == float(_lanczos_sum_expg_scaled(a))


@pytest.mark.parametrize("df", [2, 5, 6, 49, 200, 1000, 5000])
def test_sf_tracks_scipy_at_unpinned_df(df):
    a = df / 2
    x = np.concatenate([np.linspace(0.0, 3.0 * a + 10.0, 2001)[1:],
                        np.exp(np.linspace(-30.0, 0.0, 200))])
    got = np.array([chi2_sf(s, df) for s in (2.0 * x).tolist()])
    np.testing.assert_allclose(got, gammaincc(a, x), rtol=1e-12, atol=0.0)


def test_sf_domain_edges_follow_scipy():
    for stat in (-1.0, math.nan, math.inf, 0.0, 5.0):
        for df in (0, 1, 3):
            np.testing.assert_equal(chi2_sf(stat, df), float(gammaincc(df / 2, stat / 2)))


def test_hit_report_bookkeeping(make_pub_table):
    cats = ["LNLC"] * 40 + ["LNHC"] * 30 + ["HNLC"] * 20 + ["HNHC"] * 10
    summaries = make_pub_table((f"p{i}", 0.0, 0.0, 0.0, 1, c) for i, c in enumerate(cats))
    hits = set(summaries.pub_ids[:12])  # 12 hits, all in LNLC
    report = hit_report(summaries, hits)
    assert report.total_articles == 100
    assert report.total_hits == 12
    assert sum(r.n_hits for r in report.categories) == 12
    by_cat = {r.category: r for r in report.categories}
    assert by_cat["LNLC"].hit_rate == pytest.approx(12 / 40)
    assert by_cat["HNHC"].hit_rate == 0.0
    assert by_cat["LNLC"].n_articles == 40
    # Per-dimension pooling.
    assert report.chi2_novelty.direction == {"LN": "over", "HN": "under"}
    assert report.chi2_conventionality.direction == {"LC": "over", "HC": "under"}
    assert report.chi2_novelty.df == 1


def test_hit_report_requires_categories(make_pub_table):
    with pytest.raises(ValueError, match="no category"):
        hit_report(make_pub_table([("p0", 0.0, 0.0, 0.0, 1)]), set())


def test_hit_report_matches_per_publication_counts(make_pub_table):
    """Independent oracle: each cell and margin counted one publication at a time."""
    rng = np.random.default_rng(23)
    cats = [CATEGORIES[i] for i in rng.integers(0, 4, 300).tolist()]
    table = make_pub_table((f"p{i}", 0.0, 0.0, 0.0, 1, c) for i, c in enumerate(cats))
    hits = {f"p{i}" for i in rng.choice(400, 80, replace=False).tolist()}
    report = hit_report(table, hits)

    def tally(key):
        # Cells in the order CATEGORIES first names them, the order the sums run.
        articles = {key(c): 0 for c in CATEGORIES}
        hit_counts = dict(articles)
        for i, c in enumerate(cats):
            articles[key(c)] += 1
            hit_counts[key(c)] += f"p{i}" in hits
        return hit_counts, articles

    observed, sizes = tally(lambda c: c)
    assert [(r.category, r.n_articles, r.n_hits) for r in report.categories] == [
        (c, sizes[c], observed[c]) for c in CATEGORIES]
    assert report.chi2_4cat == chi_square_gof(observed, sizes)
    assert report.chi2_novelty == chi_square_gof(*tally(lambda c: c[:2]))
    assert report.chi2_conventionality == chi_square_gof(*tally(lambda c: c[2:]))
    assert (report.total_articles, report.total_hits) == (300, sum(observed.values()))


def test_importing_cocite_leaves_scipy_unloaded(tmp_path):
    """Neither the import nor a `pipeline` and `hits` run loads scipy."""
    src = str(Path(cocite.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = """
import sys
from pathlib import Path
import cocite, cocite.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
print(scipy_modules())
out = Path(sys.argv[1])
corpus = []
for flag, name in (("--pubs", "publications"), ("--refs", "references"), ("--cites", "citations")):
    corpus += [flag, str(out / "synth" / "D00" / f"{name}.tsv")]
assert cocite.cli.main(["synth", "--disciplines", "2", "--pubs-per-discipline", "40",
                        "--ref-pool", "140", "--seed", "7", "--out", str(out / "synth")]) == 0
assert cocite.cli.main(["pipeline", *corpus, "--sims", "10", "--workers", "1",
                        "--out", str(out / "pipeline")]) == 0
assert cocite.cli.main(["hits", *corpus,
                        "--classification", str(out / "pipeline" / "classification.csv"),
                        "--out", str(out / "hits")]) == 0
print(scipy_modules())
"""
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")
    for name in ("pipeline", "hits"):
        assert (tmp_path / name / "hit_tests.json").exists()
