import math
from collections import Counter

import numpy as np
import pytest

from cocite import JournalPair, PairStats, PairTable, indexing, observed_frequencies
from cocite.corpus import Corpus
from cocite.diverge import kl_divergence
from cocite.pairs import PairRowError, merge_keys, rekey
from cocite.simulate import sign_change_report, zscores
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


def counts_of(table):
    """The table's rows as {(journal_a, journal_b): f_obs}."""
    return {ps.pair: ps.f_obs for ps in table}


def refuse_expansion(*args, **kwargs):
    raise AssertionError("journal pairs were expanded")


def test_pair_canonical_order():
    assert JournalPair.of("J-B", "J-A") == JournalPair.of("J-A", "J-B") == ("J-A", "J-B")
    assert JournalPair.of("J-A", "J-A") == ("J-A", "J-A")


def row(a, b, f_obs=1, z=None):
    return PairStats(JournalPair(a, b), f_obs, 2.0, 0.0 if z is None else 1.0, z)


def test_table_rows_come_back_in_key_order():
    rows = [row("B", "C", 1, -2.0), row("A", "A", 0), row("A", "C", 4, 0.0)]
    table = PairTable.from_rows(rows)
    assert table.journal_ids == ["A", "B", "C"]
    # Key lo * 3 + hi over the journal ranks.
    assert table.keys.tolist() == [0, 2, 5]
    assert table.z[1:].tolist() == [0.0, -2.0]
    assert list(table) == [rows[1], rows[2], rows[0]]
    assert table.total_pairs == 5


def test_table_refuses_reversed_and_repeated_pairs():
    with pytest.raises(PairRowError, match="journal_a <= journal_b") as exc:
        PairTable.from_rows([row("A", "B"), row("C", "B")])
    assert exc.value.row == 1
    with pytest.raises(PairRowError, match="given twice") as exc:
        PairTable.from_rows([row("A", "B"), row("B", "B"), row("A", "B"), row("B", "B")])
    assert exc.value.row == 2


def test_rekey_keeps_the_pairs_of_shared_journals_in_key_order():
    table = PairTable.from_rows([row("A", "B"), row("A", "D"), row("B", "D"), row("D", "D")])
    rows, keys = rekey(table, ["A", "C", "D", "E"])
    assert rows.tolist() == [1, 3]
    assert keys.tolist() == [0 * 4 + 2, 2 * 4 + 2]
    rows, keys = rekey(table, table.journal_ids)
    assert rows.tolist() == [0, 1, 2, 3] and keys is table.keys


def test_observed_frequencies_three_journals(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J-X", ["a", "b", "c"], 0)],
        refs={"a": (1990, "A", "s"), "b": (1990, "B", "s"), "c": (1990, "C", "s")},
    )
    table = observed_frequencies(corpus)
    assert counts_of(table) == {("A", "B"): 1, ("A", "C"): 1, ("B", "C"): 1}


def test_observed_frequencies_self_pair_multiset(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J-X", ["a1", "a2", "b"], 0)],
        refs={"a1": (1990, "A", "s"), "a2": (1990, "A", "s"), "b": (1990, "B", "s")},
    )
    table = observed_frequencies(corpus)
    assert counts_of(table) == {("A", "A"): 1, ("A", "B"): 2}


def test_observed_frequencies_total_is_n_choose_2(make_corpus):
    refs = {f"r{i}": (1990, f"J{i % 7}", "s") for i in range(40)}
    corpus = make_corpus(pubs=[("p1", "J-X", list(refs), 0)], refs=refs)
    assert observed_frequencies(corpus).total_pairs == 780


def test_observed_frequencies_unknown_reference_names_it(make_corpus):
    # Every citation of a corpus resolves to a reference record, so a
    # reference without one is refused when the corpus is built.
    with pytest.raises(ValueError, match="zz"):
        observed_frequencies(make_corpus(
            pubs=[("p1", "J-X", ["a", "zz"], 0)],
            refs={"a": (1990, "A", "s")},
        ))


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
    assert counts_of(table) == {("A", "B"): 2}
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
    assert counts_of(table) == brute_force_table(corpus)
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
    assert counts_of(observed_frequencies(corpus)) == brute_force_table(corpus)


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
    assert counts_of(observed_frequencies(corpus)) == brute_force_table(corpus)


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
    assert counts_of(observed_frequencies(corpus)) == brute_force_table(corpus)
    assert calls


def test_table_invariant_under_reordering():
    result = generate(SynthConfig(n_disciplines=2, pubs_per_discipline=25,
                                  ref_pool_per_discipline=100, seed=8))
    corpus = result.pool
    reordered = Corpus.from_records(
        slice_year=corpus.slice_year,
        publications=[
            type(p)(p.pub_id, p.year, p.journal_id, tuple(reversed(p.refs)), p.citations_8yr)
            for p in reversed(corpus.publications)
        ],
        references=corpus.references,
    )
    assert counts_of(observed_frequencies(corpus)) == counts_of(observed_frequencies(reordered))


def random_table(rng, journals):
    """A table over a random two thirds of the pairs of ``journals``; about one
    z in five is undefined."""
    pairs = [(a, b) for i, a in enumerate(journals) for b in journals[i:]]
    rows = []
    for k in sorted(rng.choice(len(pairs), len(pairs) * 2 // 3, replace=False).tolist()):
        sigma = 0.0 if rng.random() < 0.2 else float(rng.random() * 3)
        z = float(rng.normal()) if sigma else None
        rows.append(PairStats(JournalPair(*pairs[k]), int(rng.integers(0, 9)),
                              float(rng.random() * 8), sigma, z))
    return PairTable.from_rows(rows)


def dict_kld(obs, sim, journal_filter, epsilon):
    """D(obs || sim) in bits over the union of both row sets, from dicts."""
    support = sorted((set(obs) | set(sim)) if journal_filter is None else {
        pair for pair in set(obs) | set(sim) if set(pair) <= set(journal_filter)})
    p = [obs[pair].f_obs + epsilon if pair in obs else epsilon for pair in support]
    q = [sim[pair].f_exp + epsilon if pair in sim else epsilon for pair in support]
    return sum(pn / sum(p) * math.log2((pn / sum(p)) / (qn / sum(q))) for pn, qn in zip(p, q))


def test_joins_match_a_dict_join():
    journals = [f"J{j:02d}" for j in range(12)]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        # The two journal lists overlap in J03..J08 only.
        table_a, table_b = random_table(rng, journals[:9]), random_table(rng, journals[3:])
        a, b = ({ps.pair: ps for ps in table} for table in (table_a, table_b))
        expected = {}
        for pair in sorted(set(a) | set(b)):
            f_obs = a[pair].f_obs if pair in a else 0
            f_exp, sigma = (b[pair].f_exp, b[pair].sigma) if pair in b else (0.0, 0.0)
            expected[pair] = (f_obs, f_exp, sigma, (f_obs - f_exp) / sigma if sigma else None)
        stats = zscores(table_a, table_b)
        assert {ps.pair: (ps.f_obs, ps.f_exp, ps.sigma, ps.z) for ps in stats} == expected
        assert [ps.pair for ps in stats] == list(expected)

        signed = [(a[pair].z, b[pair].z) for pair in set(a) & set(b)
                  if a[pair].z is not None and b[pair].z is not None]
        changed = sum(za * zb < 0 for za, zb in signed)
        assert sign_change_report(table_a, table_b) == (changed / len(signed) if signed else 0.0)

        # J99 is in neither table; J02..J09 keep pairs from both.
        for journal_filter in (None, ["J99", *journals[2:10]]):
            got = kl_divergence(table_a, table_b, journal_filter, 0.01).kld
            assert got == pytest.approx(dict_kld(a, b, journal_filter, 0.01), abs=1e-12)

    # The key merge under every join, on runs that share keys and empty runs.
    empty = np.zeros(0, np.int64)
    runs = [np.unique(rng.integers(0, 40, n)) for n in (25, 0, 30, 1, 12)]
    for case in (runs, runs[::-1], [empty, empty], [runs[0], empty, runs[0]]):
        merged = merge_keys(case)
        assert merged.dtype == np.int64
        assert merged.tolist() == np.unique(np.concatenate(case)).tolist()
    assert merge_keys([]).tolist() == []
