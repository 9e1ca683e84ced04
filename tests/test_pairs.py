from collections import Counter

import pytest

from cocite import JournalPair, indexing, observed_frequencies
from cocite.corpus import Corpus
from cocite.synth import SynthConfig, generate


def brute_force_table(corpus):
    """Independent O(n^2) double-loop pair counter."""
    counts = Counter()
    for pub in corpus.publications:
        journals = [corpus.references[r].journal_id for r in pub.refs]
        for i in range(len(journals)):
            for j in range(i + 1, len(journals)):
                a, b = sorted((journals[i], journals[j]))
                counts[(a, b)] += 1
    return counts


def refuse_expansion(*args, **kwargs):
    raise AssertionError("journal pairs were expanded")


def test_pair_canonical_order():
    assert JournalPair.of("J-B", "J-A") == JournalPair.of("J-A", "J-B") == ("J-A", "J-B")
    assert JournalPair.of("J-A", "J-A") == ("J-A", "J-A")


def test_observed_frequencies_three_journals(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J-X", ["a", "b", "c"], 0)],
        refs={"a": (1990, "A", "s"), "b": (1990, "B", "s"), "c": (1990, "C", "s")},
    )
    table = observed_frequencies(corpus)
    assert sorted(table.counts.elements()) == [("A", "B"), ("A", "C"), ("B", "C")]


def test_observed_frequencies_self_pair_multiset(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J-X", ["a1", "a2", "b"], 0)],
        refs={"a1": (1990, "A", "s"), "a2": (1990, "A", "s"), "b": (1990, "B", "s")},
    )
    table = observed_frequencies(corpus)
    assert table.counts == Counter({("A", "A"): 1, ("A", "B"): 2})


def test_observed_frequencies_total_is_n_choose_2(make_corpus):
    refs = {f"r{i}": (1990, f"J{i % 7}", "s") for i in range(40)}
    corpus = make_corpus(pubs=[("p1", "J-X", list(refs), 0)], refs=refs)
    assert observed_frequencies(corpus).total_pairs == 780


def test_observed_frequencies_unknown_reference_names_it(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J-X", ["a", "zz"], 0)],
        refs={"a": (1990, "A", "s")},
    )
    with pytest.raises(ValueError, match="zz"):
        observed_frequencies(corpus)


def test_observed_frequencies_refuses_a_publication_with_one_reference(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J-X", ["a", "b"], 0), ("p2", "J-X", ["c"], 0)],
        refs={"a": (1990, "A", "s"), "b": (1990, "B", "s"), "c": (1990, "C", "s")},
    )
    with pytest.raises(ValueError, match="'p2' has fewer than two references"):
        observed_frequencies(corpus)


def test_observed_frequencies_two_pubs(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J-X", ["a", "b"], 0), ("p2", "J-X", ["a2", "b2"], 0)],
        refs={
            "a": (1990, "A", "s"), "b": (1990, "B", "s"),
            "a2": (1991, "A", "s"), "b2": (1991, "B", "s"),
        },
    )
    table = observed_frequencies(corpus)
    assert table.counts == Counter({("A", "B"): 2})
    assert table.total_pairs == 2


def test_observed_frequencies_empty(make_corpus):
    table = observed_frequencies(make_corpus(pubs=[], refs={}))
    assert len(table) == 0
    assert table.total_pairs == 0


def test_observed_matches_brute_force_oracle():
    result = generate(SynthConfig(n_disciplines=3, pubs_per_discipline=34,
                                  ref_pool_per_discipline=150, seed=13))
    corpus = result.pool
    assert len(corpus.publications) >= 100
    table = observed_frequencies(corpus)
    assert table.counts == brute_force_table(corpus)
    expected_total = sum(
        len(p.refs) * (len(p.refs) - 1) // 2 for p in corpus.publications
    )
    assert table.total_pairs == expected_total


def test_observed_sparse_counting_matches_brute_force_oracle(monkeypatch):
    # A dense limit of 0 sends every journal set down the sorted np.unique branch.
    monkeypatch.setattr(indexing, "DENSE_PAIR_LIMIT", 0)
    result = generate(SynthConfig(n_disciplines=3, pubs_per_discipline=34,
                                  ref_pool_per_discipline=150, seed=13))
    corpus = result.pool
    assert observed_frequencies(corpus).counts == brute_force_table(corpus)


def test_observed_journal_product_at_the_dense_limit_matches_brute_force_oracle(
        monkeypatch):
    result = generate(SynthConfig(n_disciplines=3, pubs_per_discipline=34,
                                  ref_pool_per_discipline=150, seed=13))
    corpus = result.pool
    n_journals = len({rec.journal_id for rec in corpus.references.values()})
    # A limit of exactly J*J cells still takes C^T C of the publication x
    # journal counts, without expanding a pair.
    monkeypatch.setattr(indexing, "DENSE_PAIR_LIMIT", n_journals * n_journals)
    monkeypatch.setattr(indexing.CorpusIndex, "bucket_pair_keys", refuse_expansion)
    assert observed_frequencies(corpus).counts == brute_force_table(corpus)


def test_observed_dense_key_counting_matches_brute_force_oracle(monkeypatch):
    # Few references over many journals: the publication x journal counts
    # would have more cells than there are pairs, so the pair keys are counted.
    result = generate(SynthConfig(n_disciplines=3, journals_per_discipline=10,
                                  pubs_per_discipline=30, ref_pool_per_discipline=150,
                                  refs_mean=2.5, seed=17))
    corpus = result.pool
    idx = indexing.CorpusIndex(corpus)
    assert idx.n_journals ** 2 <= indexing.DENSE_PAIR_LIMIT
    assert len(idx.c_pub_ids) * idx.n_journals >= idx.n_pairs > 0
    calls = []
    expand = indexing.CorpusIndex.bucket_pair_keys

    def spy(self, *args, **kwargs):
        calls.append(args)
        return expand(self, *args, **kwargs)

    monkeypatch.setattr(indexing.CorpusIndex, "bucket_pair_keys", spy)
    assert observed_frequencies(corpus).counts == brute_force_table(corpus)
    assert calls


def test_table_invariant_under_reordering():
    result = generate(SynthConfig(n_disciplines=2, pubs_per_discipline=25,
                                  ref_pool_per_discipline=100, seed=8))
    corpus = result.pool
    reordered = Corpus(
        slice_year=corpus.slice_year,
        publications=[
            type(p)(p.pub_id, p.year, p.journal_id, tuple(reversed(p.refs)), p.citations_8yr)
            for p in reversed(corpus.publications)
        ],
        references=corpus.references,
    )
    assert observed_frequencies(corpus).counts == observed_frequencies(reordered).counts
