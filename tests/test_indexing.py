"""The analyzed-slot read-back kernel against naive oracles.

A repcs simulation shuffles each year group's slice of a group-major
token vector in place and reads back only the analyzed slots, in corpus
order: publication by publication, each publication's slots in reference
order. It deletes duplicates either by comparing same-year slot pairs or
by sorting the tokens keyed by publication. The oracles here and the
``repcs_oracle`` fixture walk publications and their reference lists in
Python instead, also in corpus order, and draw each group's permutation
with ``permutation(n)``; the tests compare the two position by position,
with no position map between them.
"""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from cocite import build_groups, repcs_shuffle
from cocite.indexing import PAIRS_PER_SORTED_SLOT, CorpusIndex
from cocite.shuffle import _permuted_tokens
from cocite.synth import SynthConfig, generate


def refuse(*args, **kwargs):
    raise AssertionError("the other duplicate-deletion path ran")


def brute_force_pairs(references, refs_per_pub, deleted):
    counts = Counter()
    for row, refs in enumerate(refs_per_pub):
        if row not in deleted:
            journals = [references[r].journal_id for r in refs]
            for x, y in combinations(journals, 2):
                counts[tuple(sorted((x, y)))] += 1
    return counts


@pytest.fixture(scope="module", params=[1, 20], ids=["1-ref-year", "20-ref-years"])
def world(request):
    # Small reference pools make duplicates common under shuffling. One
    # reference year gives about 3.5 same-year pairs per slot (sorting
    # wins), twenty give about 0.2 (pair checks win).
    n_ref_years = request.param
    return n_ref_years, generate(SynthConfig(
        n_disciplines=3, pubs_per_discipline=60, ref_pool_per_discipline=60,
        n_ref_years=n_ref_years, seed=23))


@pytest.mark.parametrize("background", ["local", "global"])
def test_read_back_kernel_matches_naive_oracle(monkeypatch, repcs_oracle, world, background):
    n_ref_years, result = world
    corpus = result.by_discipline["D01"] if background == "global" else result.pool
    pool = result.pool if background == "global" else None
    idx = build_groups(corpus, pool)
    assert idx.local == (background == "local")

    sorting = n_ref_years == 1
    slot_years = [[corpus.references[r].year for r in p.refs] for p in corpus.publications]
    n_pairs = sum(c * (c - 1) // 2 for years in slot_years for c in Counter(years).values())
    assert (n_pairs > PAIRS_PER_SORTED_SLOT * len(idx.c_tokens)) == sorting
    assert (idx.same_year_pairs is None) == sorting
    other_side = "_duplicates_by_pairs" if sorting else "_duplicates_by_sorting"
    monkeypatch.setattr(CorpusIndex, other_side, refuse)

    any_deleted = False
    for s in range(6):
        refs = repcs_oracle(corpus, pool, 5, s)
        tokens = _permuted_tokens(idx, 5, s)
        assert [idx.ref_ids[t] for t in tokens.tolist()] == [r for rr in refs for r in rr]

        deleted = idx.duplicate_pub_rows(tokens)
        expected = [row for row, rr in enumerate(refs) if len(set(rr)) != len(rr)]
        assert deleted.dtype == np.int64
        assert deleted.tolist() == expected
        any_deleted |= bool(expected)

        keys, counts = idx.pair_key_counts(tokens, exclude_rows=deleted)
        got = {(idx.journal_ids[k // idx.n_journals], idx.journal_ids[k % idx.n_journals]): c
               for k, c in zip(keys.tolist(), counts.tolist())}
        assert got == brute_force_pairs(idx.pool.references, refs, set(expected))

        # The shuffle outcome holds the same read-back vector and deletions.
        outcome = repcs_shuffle(idx, 5, sim_index=s)
        assert np.array_equal(outcome._assignment, tokens)
        assert np.array_equal(outcome.deleted_rows, deleted)
        assert outcome.deleted_pubs == [idx.c_pub_ids[r] for r in expected]
        wrapped = idx.pair_key_counts(outcome._assignment, exclude_rows=outcome.deleted_rows)
        assert np.array_equal(wrapped[0], keys) and np.array_equal(wrapped[1], counts)
        fixed = sum(r == o for rr, p in zip(refs, corpus.publications) for r, o in zip(rr, p.refs))
        assert idx.fixed_points(tokens) == outcome.fixed_points == fixed
    assert any_deleted


@pytest.mark.parametrize("background", ["local", "global"])
def test_unshuffled_read_back_is_the_corpus_citation_list(world, background):
    _, result = world
    corpus = result.by_discipline["D01"] if background == "global" else result.pool
    idx = build_groups(corpus, result.pool if background == "global" else None)
    cited = [(p.pub_id, r) for p in corpus.publications for r in p.refs]
    assert [idx.ref_ids[t] for t in idx.c_tokens.tolist()] == [r for _, r in cited]
    assert [idx.c_pub_ids[r] for r in idx.c_slot_pub.tolist()] == [pid for pid, _ in cited]
    pool_rows = idx.read_back(idx.pool_slot_pub).tolist()
    assert [idx.pool.pub_ids[r] for r in pool_rows] == [pid for pid, _ in cited]


@pytest.mark.parametrize("background", ["local", "global"])
def test_pair_check_sees_a_reference_cited_twice(make_corpus, repcs_oracle, background):
    # p1 cites "a" twice before any shuffle; the same-year pair of its two
    # slots holds equal tokens, so the unshuffled corpus already deletes it.
    # Only p2 cites 1980 and 1970 references: the 1980 group is read back
    # whole, from pool slots that a global pool shifts by p0's three, and
    # "f" is the only 1970 slot, a group no permutation touches.
    refs = {"a": (1990, "JA", "s"), "b": (1991, "JB", "s"), "c": (1990, "JC", "s"),
            "d": (1980, "JD", "s"), "e": (1980, "JE", "s"), "f": (1970, "JF", "s")}
    pubs = [("p1", "J", ["a", "b", "a"], 0), ("p2", "J", ["b", "c", "d", "e", "f"], 0)]
    corpus = make_corpus(pubs=pubs, refs=refs)
    pool = make_corpus(pubs=[("p0", "J", ["c", "a", "b"], 0)] + pubs, refs=refs)
    pool = pool if background == "global" else None
    idx = build_groups(corpus, pool)
    # Corpus positions (0, 2) and (5, 6), as the arrays a and b.
    assert [a.tolist() for a in idx.same_year_pairs] == [[0, 5], [2, 6]]
    assert idx.duplicate_pub_rows(idx.c_tokens).tolist() == [0]
    assert idx._duplicates_by_sorting(idx.c_tokens).tolist() == [0]
    for s in range(4):
        tokens = _permuted_tokens(idx, 2, s)
        expected = [r for rr in repcs_oracle(corpus, pool, 2, s) for r in rr]
        assert [idx.ref_ids[t] for t in tokens.tolist()] == expected
        assert np.array_equal(tokens, repcs_shuffle(idx, 2, sim_index=s)._assignment)
        assert tokens[7] == idx.c_tokens[7]


def test_global_index_refuses_a_publication_listed_twice(make_corpus):
    refs = {"a": (1990, "JA", "s"), "b": (1991, "JB", "s")}
    pubs = [("p1", "J", ["a", "b"], 0), ("p2", "J", ["b", "a"], 0)]
    pool = make_corpus(pubs=pubs, refs=refs)
    with pytest.raises(ValueError, match="more than once"):
        CorpusIndex(make_corpus(pubs=[pubs[0], pubs[1], pubs[0]], refs=refs), pool)


LAZY = ("_buckets", "_pub_key", "same_year_pairs")


def built(idx):
    return [name for name in LAZY if name in vars(idx)]


def test_read_back_data_is_built_on_first_use(monkeypatch):
    import concurrent.futures

    import cocite.indexing as indexing
    import cocite.simulate as simulate

    result = generate(SynthConfig(n_disciplines=2, pubs_per_discipline=20,
                                  ref_pool_per_discipline=50, seed=4))
    plan = build_groups(result.pool)
    assert built(plan.index) == []
    _permuted_tokens(plan, 1, 0)
    assert built(plan.index) == []
    repcs_shuffle(plan, 1).corpus
    assert built(plan.index) == ["same_year_pairs"]

    # simulate_plan runs the pair-count and dedupe kernels once in the parent
    # before forking, which builds what they read and nothing else, so the
    # workers share one copy. Sorting duplicates reads no bucket matrices.
    fork_pool = concurrent.futures.ProcessPoolExecutor
    cases = [(background, algorithm, product, sorting)
             for background in ("local", "global")
             for product in (True, False)
             for algorithm, sorting in (("repcs", False), ("repcs", True), ("umsj", False))]
    for background, algorithm, product, sorting in cases:
        with monkeypatch.context() as m:
            if not product:
                m.setattr(indexing, "DENSE_PAIR_LIMIT", 0)
            if sorting:
                m.setattr(indexing, "PAIRS_PER_SORTED_SLOT", -1)
            if background == "local":
                plan = build_groups(result.pool)
            else:
                plan = build_groups(result.by_discipline["D01"], result.pool)
            assert plan.index.counts_by_product() == product
            want = {"_pub_key" if product else "_buckets", "same_year_pairs"}
            want = [name for name in LAZY if name in want]
            at_fork = []

            def spy(*args, **kwargs):
                at_fork.append(built(plan.index))
                return fork_pool(*args, **kwargs)

            m.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
            simulate.simulate_plan(plan, simulate.SimConfig(
                n_simulations=4, background=background, algorithm=algorithm, workers=2))
            assert at_fork == [want]
            assert built(plan.index) == want
            if algorithm == "repcs":
                assert (plan.index.same_year_pairs is None) == sorting


def test_sorting_dedupe_is_exact_for_any_vector():
    # Random tokens from the whole reference universe move across years and
    # repeat within publications and across them; only a repeat within one
    # publication deletes it.
    result = generate(SynthConfig(n_disciplines=3, pubs_per_discipline=60,
                                  ref_pool_per_discipline=60, n_ref_years=5, seed=29))
    idx = CorpusIndex(result.pool)
    rng = np.random.default_rng(31)
    ptr = idx.c_pub_ptr.tolist()
    for n_tokens in (len(idx.ref_ids), 60):
        tokens = rng.integers(0, n_tokens, len(idx.c_tokens))
        in_order = tokens.tolist()
        per_pub = [in_order[lo:hi] for lo, hi in zip(ptr[:-1], ptr[1:])]
        expected = [row for row, t in enumerate(per_pub) if len(set(t)) != len(t)]
        assert 0 < len(expected) < len(per_pub)
        kept = [t for row, t in enumerate(per_pub) if row not in expected]
        assert len(set().union(*kept)) < sum(map(len, kept))
        assert not np.array_equal(idx.ref_year[tokens], idx.ref_year[idx.c_tokens])
        deleted = idx._duplicates_by_sorting(tokens)
        assert deleted.dtype == np.int64
        assert deleted.tolist() == expected
    assert "_buckets" not in vars(idx)
