import csv
from itertools import combinations

import numpy as np
import pytest

from cocite import (
    ClassifyConfig,
    SimConfig,
    classify_corpus,
    corpus_summaries,
    observed_frequencies,
    run_simulations,
    zscores,
)
from cocite.classify import (
    CATEGORIES,
    CLASSIFICATION_COLUMNS,
    read_summaries_csv,
    write_summaries_csv,
)
from cocite.corpus import Corpus, Publication, ReferenceRecord
from cocite.pairs import JournalPair, PairStats, PairTable
from cocite.synth import SynthConfig, generate


def ps(a, b, z):
    return PairStats(JournalPair.of(a, b), 0, 0.0, 1.0 if z is not None else 0.0, z)


def stats_map(entries):
    return PairTable.from_rows(ps(a, b, z) for a, b, z in entries)


def summarize_one(corpus, stats):
    """(z_median, z_p10, z_p1, n_defined_pairs) of a one-publication corpus."""
    table, excluded = corpus_summaries(corpus, stats)
    assert (table.pub_ids, excluded) == (["p1"], 0)
    return (table.z_median[0], table.z_p10[0], table.z_p1[0],
            int(table.n_defined_pairs[0]))


def test_percentiles_interpolate_linearly(make_corpus):
    # Four references give six pairs; one pair is undefined, leaving the
    # z multiset [-3, -1, 0, 2, 5].
    corpus = make_corpus(
        pubs=[("p1", "J", ["a", "b", "c", "d"], 0)],
        refs={
            "a": (1990, "A", "s"), "b": (1990, "B", "s"),
            "c": (1990, "C", "s"), "d": (1990, "D", "s"),
        },
    )
    stats = stats_map([
        ("A", "B", -3.0), ("A", "C", -1.0), ("A", "D", 0.0),
        ("B", "C", 2.0), ("B", "D", 5.0), ("C", "D", None),
    ])
    z_median, z_p10, z_p1, n_defined = summarize_one(corpus, stats)
    assert n_defined == 5
    assert z_median == 0.0
    assert z_p10 == -2.2
    assert z_p1 == pytest.approx(-3 + 0.04 * 2, abs=1e-12)


def test_single_defined_pair(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J", ["a", "b"], 0)],
        refs={"a": (1990, "A", "s"), "b": (1990, "B", "s")},
    )
    assert summarize_one(corpus, stats_map([("A", "B", 4.0)]))[:3] == (4.0, 4.0, 4.0)


def test_constant_multiset(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J", ["a", "b", "c", "d"], 0)],
        refs={
            "a": (1990, "A", "s"), "b": (1990, "B", "s"),
            "c": (1990, "C", "s"), "d": (1990, "D", "s"),
        },
    )
    stats = stats_map([
        ("A", "B", 1.0), ("A", "C", 1.0), ("A", "D", None),
        ("B", "C", None), ("B", "D", 1.0), ("C", "D", 1.0),
    ])
    assert summarize_one(corpus, stats) == (1.0, 1.0, 1.0, 4)


def test_duplicate_pairs_count_with_multiplicity(make_corpus):
    # Journals [A, A, B] produce pairs (A,A), (A,B), (A,B): the (A,B) z
    # enters twice, pulling the median to 3.
    corpus = make_corpus(
        pubs=[("p1", "J", ["a1", "a2", "b"], 0)],
        refs={"a1": (1990, "A", "s"), "a2": (1990, "A", "s"), "b": (1990, "B", "s")},
    )
    stats = stats_map([("A", "A", 0.0), ("A", "B", 3.0)])
    z_median, _, _, n_defined = summarize_one(corpus, stats)
    assert n_defined == 3
    assert z_median == 3.0


def test_pub_with_no_defined_pairs_raises(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J", ["a", "b"], 0)],
        refs={"a": (1990, "A", "s"), "b": (1990, "B", "s")},
    )
    # The publication gets no row, so there is nothing to classify.
    table, excluded = corpus_summaries(corpus, stats_map([("A", "B", None)]))
    assert (len(table), excluded) == (0, 1)
    with pytest.raises(ValueError, match="no publication summaries"):
        classify_corpus(table)


def test_corpus_summaries_counts_excluded(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J", ["a", "b"], 0), ("p2", "J", ["c", "d"], 0)],
        refs={
            "a": (1990, "A", "s"), "b": (1990, "B", "s"),
            "c": (1990, "C", "s"), "d": (1990, "D", "s"),
        },
    )
    stats = stats_map([("A", "B", 1.5), ("C", "D", None)])
    table, excluded = corpus_summaries(corpus, stats)
    assert table.pub_ids == ["p1"]
    assert excluded == 1


def test_corpus_summaries_excludes_a_publication_with_one_reference(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J", ["a", "b"], 0), ("p2", "J", ["c"], 0)],
        refs={"a": (1990, "A", "s"), "b": (1990, "B", "s"), "c": (1990, "C", "s")},
    )
    table, excluded = corpus_summaries(corpus, stats_map([("A", "B", 1.5)]))
    assert table.pub_ids == ["p1"]
    assert excluded == 1


def per_publication_summaries(corpus, stats):
    """Independent oracle: each publication's pairs, looked up and summarized one by one."""
    by_pair = {row.pair: row for row in stats}
    out, excluded = [], 0
    for pub in corpus.publications:
        journals = [corpus.references[r].journal_id for r in pub.refs]
        zs = []
        for x, y in combinations(journals, 2):
            got = by_pair.get(JournalPair.of(x, y))
            if got is not None and got.z is not None:
                zs.append(got.z)
        if not zs:
            excluded += 1
            continue
        med, p10, p1 = np.percentile(np.asarray(zs), [50.0, 10.0, 1.0])
        out.append((pub.pub_id, repr(float(med)), repr(float(p10)), repr(float(p1)), len(zs)))
    return out, excluded


def test_corpus_summaries_match_per_publication_oracle():
    pool = generate(SynthConfig(n_disciplines=3, pubs_per_discipline=60,
                                ref_pool_per_discipline=120, seed=41)).pool
    first = pool.publications[0]
    loner = Publication("p-one-ref", pool.slice_year, "J", first.refs[:1], 0)
    corpus = Corpus.from_records(pool.slice_year, [*pool.publications, loner], pool.references)
    assert len({len(p.refs) for p in corpus.publications}) >= 5

    # Every pair of the first publication is undefined or absent, so it has
    # no defined pair; the others get a mix of undefined, absent, tied and
    # distinct z-scores.
    first_journals = [corpus.references[r].journal_id for r in first.refs]
    first_pairs = {JournalPair.of(x, y) for x, y in combinations(first_journals, 2)}
    journals = sorted(corpus.journals())
    rng = np.random.default_rng(7)
    entries = []
    for i, a in enumerate(journals):
        for b in journals[i:]:
            pair = JournalPair(a, b)
            roll = rng.random()
            if pair in first_pairs or roll < 0.2:
                if roll < 0.5:
                    entries.append((a, b, None))
            elif roll < 0.4:
                entries.append((a, b, float(rng.integers(-2, 3))))
            else:
                entries.append((a, b, float(rng.normal(0.0, 2.0))))
    stats = stats_map(entries)
    n_pairs = len(journals) * (len(journals) + 1) // 2
    assert any(z is None for _, _, z in entries) and len(entries) < n_pairs

    table, excluded = corpus_summaries(corpus, stats)
    expected, expected_excluded = per_publication_summaries(corpus, stats)
    got = [(pub_id, repr(med), repr(p10), repr(p1), n) for pub_id, med, p10, p1, n in zip(
        table.pub_ids, table.z_median.tolist(), table.z_p10.tolist(), table.z_p1.tolist(),
        table.n_defined_pairs.tolist())]
    assert got == expected
    assert excluded == expected_excluded >= 2


def summary(pub_id, median, p10=1.0, p1=1.0):
    return (pub_id, median, p10, p1, 4)


def test_threshold_is_strictly_exceeded(make_pub_table):
    labeled, threshold = classify_corpus(
        make_pub_table([summary("p1", 1.0), summary("p2", 2.0), summary("p3", 3.0)])
    )
    assert threshold == 2.0
    assert labeled.labels() == ["LNLC", "LNLC", "LNHC"]


def test_novelty_boundary_is_strict(make_pub_table):
    labeled, _ = classify_corpus(make_pub_table(
        [summary("p1", 1.0, p10=0.0), summary("p2", 2.0, p10=-0.25), summary("p3", 3.0, p10=0.5)]
    ))
    assert [c[:2] for c in labeled.labels()] == ["LN", "HN", "LN"]


def medians_table(make_pub_table, medians):
    return make_pub_table([summary(f"p{i}", float(m)) for i, m in enumerate(medians)])


def test_tie_free_odd_corpus_has_exactly_k_high_conventionality(make_pub_table):
    rng = np.random.default_rng(7)
    for _ in range(25):
        k = int(rng.integers(1, 40))
        medians = rng.normal(size=2 * k + 1)
        assert len(np.unique(medians)) == len(medians)
        labeled, _ = classify_corpus(medians_table(make_pub_table, medians))
        assert sum(1 for c in labeled.labels() if c.endswith("HC")) == k


def test_hc_fraction_bounds_with_tie_free_medians(make_pub_table):
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 120))
        medians = rng.normal(size=n)
        labeled, _ = classify_corpus(medians_table(make_pub_table, medians))
        frac = sum(1 for c in labeled.labels() if c.endswith("HC")) / n
        assert 0.5 - 1.0 / n <= frac <= 0.5


def test_first_percentile_never_exceeds_tenth():
    rng = np.random.default_rng(3)
    for _ in range(200):
        zs = rng.normal(rng.uniform(-1, 3), 1.0, size=int(rng.integers(1, 60)))
        p1, p10 = np.percentile(zs, [1.0, 10.0])
        assert p1 <= p10


def test_switching_percentile_10_to_1_never_drops_novelty(make_pub_table):
    # p1 <= p10, so a publication that is HN at the 10th percentile stays
    # HN at the 1st; lowering the percentile can only add novelty.
    rng = np.random.default_rng(19)
    rows = []
    for i in range(500):
        zs = rng.normal(rng.uniform(-1, 3), 1.0, size=int(rng.integers(3, 60)))
        med, p10, p1 = np.percentile(zs, [50.0, 10.0, 1.0])
        rows.append((f"p{i}", float(med), float(p10), float(p1), len(zs)))
    summaries = make_pub_table(rows)
    at10, _ = classify_corpus(summaries, ClassifyConfig(10))
    at1, _ = classify_corpus(summaries, ClassifyConfig(1))
    for c10, c1 in zip(at10.labels(), at1.labels()):
        if c10.startswith("HN"):
            assert c1.startswith("HN")


def test_classify_config_rejects_other_percentiles():
    with pytest.raises(ValueError, match="novelty_percentile"):
        ClassifyConfig(5)


def test_classify_requires_summaries(make_pub_table):
    with pytest.raises(ValueError, match="no publication summaries"):
        classify_corpus(make_pub_table([]))


def _relabel(corpus: Corpus, mapping) -> Corpus:
    return Corpus.from_records(
        slice_year=corpus.slice_year,
        publications=[
            Publication(p.pub_id, p.year, mapping.get(p.journal_id, p.journal_id),
                        p.refs, p.citations_8yr)
            for p in corpus.publications
        ],
        references={
            rid: ReferenceRecord(rid, r.year, mapping[r.journal_id], r.subject)
            for rid, r in corpus.references.items()
        },
    )


def test_consistent_journal_relabeling_keeps_categories():
    result = generate(SynthConfig(n_disciplines=2, pubs_per_discipline=40,
                                  ref_pool_per_discipline=160, seed=29))
    corpus = result.by_discipline["D00"]
    mapping = {j: f"X-{j[::-1]}" for j in result.pool.journals()}

    def categories(c):
        sims = run_simulations(c, None, SimConfig(n_simulations=40, master_seed=13))
        stats = zscores(observed_frequencies(c), sims)
        summaries, _ = corpus_summaries(c, stats)
        labeled, _ = classify_corpus(summaries)
        return dict(zip(labeled.pub_ids, labeled.labels()))

    assert categories(corpus) == categories(_relabel(corpus, mapping))


def table_rows(table):
    return list(zip(table.pub_ids, table.z_median.tolist(), table.z_p10.tolist(),
                    table.z_p1.tolist(), table.n_defined_pairs.tolist(), table.labels()))


def test_summaries_csv_round_trips(tmp_path, make_pub_table):
    summaries = make_pub_table([
        ('p,"1"', 0.1 + 0.2, -1 / 3, -2.5e-17, 4, "HNLC"),
        ("p2", 1.0, 0.0, -0.0, 1),
    ])
    path = tmp_path / "classification.csv"
    write_summaries_csv(summaries, path)
    assert table_rows(read_summaries_csv(path)) == table_rows(summaries)


def test_summaries_csv_formats_each_z_as_csv_formats_its_float(tmp_path, make_pub_table):
    # Repeated values, both zeros, infinities and NaNs of two payloads are
    # written as csv writes the floats themselves.
    nan_payload = np.array([0x7FF8_0000_0000_0001], np.int64).view(np.float64)[0]
    values = [0.1 + 0.2, -0.0, 0.0, float("inf"), -float("inf"), float("nan"), nan_payload,
              -1 / 3, 1e-300, 2.5e17]
    rows = [(f"p{i}", values[i % 10], values[(3 * i) % 10], values[(7 * i + 1) % 10], i,
             CATEGORIES[i % 4]) for i in range(25)]
    path = tmp_path / "classification.csv"
    write_summaries_csv(make_pub_table(rows), path)
    want = tmp_path / "want.csv"
    with open(want, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CLASSIFICATION_COLUMNS)
        w.writerows((p, float(a), float(b), float(c), label, n) for p, a, b, c, n, label in rows)
    assert path.read_bytes() == want.read_bytes()
