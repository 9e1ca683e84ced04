from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from cocite import (
    build_groups,
    composition_fold,
    preservation_report,
    repcs_shuffle,
    umsj_shuffle,
)
from cocite.impact import chi2_sf
from cocite.synth import SynthConfig, generate

YEARED_REFS = {
    "r80a": (1980, "J-A", "s"), "r80b": (1980, "J-B", "s"), "r80c": (1980, "J-C", "s"),
    "r82a": (1982, "J-A", "s"), "r82b": (1982, "J-B", "s"),
}


@pytest.fixture
def yeared_corpus(make_corpus):
    return make_corpus(
        pubs=[
            ("p1", "J-X", ["r80a", "r80b", "r82a"], 0),
            ("p2", "J-X", ["r80c", "r82b"], 0),
        ],
        refs=YEARED_REFS,
    )


def test_groups_partition_by_reference_year(yeared_corpus):
    idx = build_groups(yeared_corpus)
    ptr = idx.group_ptr.tolist()
    assert list(zip(idx.group_years, ptr[:-1], ptr[1:])) == [(1980, 0, 3), (1982, 3, 5)]
    # Group-major slots, each group's in pool-slot order: p1's 1980 slots,
    # p2's 1980 slot, then p1's and p2's 1982 slots.
    assert [idx.ref_ids[t] for t in idx.pool_tokens.tolist()] == [
        "r80a", "r80b", "r80c", "r82a", "r82b"]
    assert idx.pool_slot_pub.tolist() == [0, 0, 1, 0, 1]
    assert np.array_equal(idx.c_tokens, idx.pool_tokens)
    assert np.array_equal(idx.c_slot_pub, idx.pool_slot_pub)


def test_local_groups_partition_citation_multiset(yeared_corpus):
    idx = build_groups(yeared_corpus)
    tokens = Counter()
    for lo, hi in zip(idx.group_ptr[:-1], idx.group_ptr[1:]):
        tokens.update(idx.ref_ids[t] for t in idx.pool_tokens[lo:hi].tolist())
    cited = Counter(rid for p in yeared_corpus.publications for rid in p.refs)
    assert tokens == cited


def test_global_pool_token_can_enter_groups(make_corpus):
    refs = dict(YEARED_REFS)
    refs["extra80"] = (1980, "J-Z", "s")
    pool = make_corpus(
        pubs=[
            ("p1", "J-X", ["r80a", "r80b", "r82a"], 0),
            ("p2", "J-X", ["r80c", "r82b"], 0),
            ("q1", "J-X", ["extra80", "r80a"], 0),
        ],
        refs=refs,
        background_tag="global",
    )
    corpus = make_corpus(
        pubs=[
            ("p1", "J-X", ["r80a", "r80b", "r82a"], 0),
            ("p2", "J-X", ["r80c", "r82b"], 0),
        ],
        refs=YEARED_REFS,
    )
    idx = build_groups(corpus, pool)
    assert idx.background == "global"
    g = idx.group_years.index(1980)
    group_1980 = idx.pool_tokens[idx.group_ptr[g]:idx.group_ptr[g + 1]]
    assert "extra80" in [idx.ref_ids[t] for t in group_1980.tolist()]
    # Some seed hands the pool-only token to an analyzed publication.
    seen = False
    for seed in range(40):
        shuffled = repcs_shuffle(idx, seed).corpus
        if any("extra80" in p.refs for p in shuffled.publications):
            seen = True
            break
    assert seen


def test_pool_must_contain_corpus_publications(make_corpus, yeared_corpus):
    pool = make_corpus(
        pubs=[("other", "J-X", ["r80a", "r80b"], 0)],
        refs=YEARED_REFS,
        background_tag="global",
    )
    with pytest.raises(ValueError, match="not in the substitution pool"):
        build_groups(yeared_corpus, pool)
    # The same ids citing the same references in another order.
    reordered = make_corpus(
        pubs=[("p1", "J-X", ["r80a", "r82a", "r80b"], 0), ("p2", "J-X", ["r80c", "r82b"], 0)],
        refs=YEARED_REFS,
        background_tag="global",
    )
    with pytest.raises(ValueError, match="'p1' cites different references in the pool"):
        build_groups(yeared_corpus, reordered)


def test_single_slot_group_is_fixed_point(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J-X", ["r80a", "r82a"], 0)],
        refs=YEARED_REFS,
    )
    idx = build_groups(corpus)
    outcome = repcs_shuffle(idx, 123)
    assert outcome.corpus.publications[0].refs == ("r80a", "r82a")
    assert outcome.fixed_points == 2
    assert outcome.deleted_pubs == []


def test_repcs_permutations_are_uniform(make_corpus):
    refs = {
        "x1": (2000, "A", "s"), "x2": (2000, "B", "s"), "x3": (2000, "C", "s"),
        "y1": (1999, "D", "s"), "y2": (1999, "E", "s"), "y3": (1999, "F", "s"),
    }
    corpus = make_corpus(
        pubs=[
            ("p1", "J", ["x1", "y1"], 0),
            ("p2", "J", ["x2", "y2"], 0),
            ("p3", "J", ["x3", "y3"], 0),
        ],
        refs=refs,
    )
    idx = build_groups(corpus)
    counts = Counter()
    trials = 10_000
    for seed in range(trials):
        shuffled = repcs_shuffle(idx, seed).corpus
        counts[tuple(p.refs[1] for p in shuffled.publications)] += 1
    assert set(counts) == set(permutations(["y1", "y2", "y3"]))
    expected = trials / 6
    for perm in counts:
        assert abs(counts[perm] / trials - 1 / 6) < 0.02
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2_sf(stat, 5) > 0.001


def test_duplicate_accumulation_deletes_publication(make_corpus):
    refs = {
        "A": (2000, "JA", "s"), "B": (2000, "JB", "s"), "C": (2000, "JC", "s"),
    }
    corpus = make_corpus(
        pubs=[("p1", "J", ["A", "B"], 0), ("p2", "J", ["C", "A"], 0)],
        refs=refs,
    )
    idx = build_groups(corpus)
    hit = None
    for seed in range(200):
        outcome = repcs_shuffle(idx, seed)
        if outcome.deleted_pubs:
            hit = outcome
            break
    assert hit is not None, "no seed produced a duplicate in 200 tries"
    surviving = {p.pub_id for p in hit.corpus.publications}
    assert surviving == {"p1", "p2"} - set(hit.deleted_pubs)
    for p in hit.corpus.publications:
        assert len(set(p.refs)) == len(p.refs)
    report = preservation_report(corpus, hit)
    assert report.publication_delta == len(hit.deleted_pubs)
    assert report.all_preserved


def test_umsj_applies_single_admissible_swap(make_corpus):
    refs = {
        "A": (2000, "JA", "s"), "B": (2000, "JB", "s"),
        "C": (1999, "JC", "s"), "D": (1999, "JD", "s"),
    }
    corpus = make_corpus(
        pubs=[("p1", "J", ["A", "C"], 0), ("p2", "J", ["B", "D"], 0)],
        refs=refs,
    )
    outcome = umsj_shuffle(build_groups(corpus), 1)
    by_id = {p.pub_id: p for p in outcome.corpus.publications}
    assert by_id["p1"].refs == ("B", "D")
    assert by_id["p2"].refs == ("A", "C")
    assert outcome.deleted_pubs == []
    # The second slot of each group can only swap back; it exhausts retries.
    assert outcome.retry_exhausted == 2


def test_umsj_all_swaps_rejected_leaves_corpus_unchanged(make_corpus):
    # Both publications cite the same two references, so each group's two
    # tokens are identical and every swap would restore an original.
    refs = {"A": (2000, "JA", "s"), "E": (1999, "JE", "s")}
    corpus = make_corpus(
        pubs=[("p1", "J", ["A", "E"], 0), ("p2", "J", ["A", "E"], 0)],
        refs=refs,
    )
    outcome = umsj_shuffle(build_groups(corpus), 7, max_retries=10)
    by_id = {p.pub_id: p for p in outcome.corpus.publications}
    assert by_id["p1"].refs == ("A", "E")
    assert by_id["p2"].refs == ("A", "E")
    assert outcome.retry_exhausted == 4
    assert outcome.fixed_points == 4


def test_umsj_never_creates_duplicates(make_corpus):
    # Shared references across publications make duplicate-creating swaps
    # available in every group; all of them must be rejected.
    refs = {
        "A": (2000, "JA", "s"), "B": (2000, "JB", "s"), "C": (2000, "JC", "s"),
    }
    corpus = make_corpus(
        pubs=[("p1", "J", ["A", "B"], 0), ("p2", "J", ["A", "C"], 0)],
        refs=refs,
    )
    idx = build_groups(corpus)
    for seed in range(50):
        outcome = umsj_shuffle(idx, seed)
        assert outcome.deleted_pubs == []
        for p in outcome.corpus.publications:
            assert len(set(p.refs)) == len(p.refs)
        report = preservation_report(corpus, outcome)
        assert report.all_preserved


def test_both_algorithms_preserve_group_token_multisets():
    result = generate(SynthConfig(n_disciplines=2, pubs_per_discipline=600,
                                  ref_pool_per_discipline=1000, seed=31))
    corpus = result.pool
    assert corpus.n_citations() >= 9000
    idx = build_groups(corpus)
    # Each reference year's slots, numbered in pool order (a local index's
    # corpus order), and their references.
    cited = [r for p in corpus.publications for r in p.refs]
    groups: dict[int, list[int]] = {}
    for slot, r in enumerate(cited):
        groups.setdefault(corpus.references[r].year, []).append(slot)
    assert sorted(groups) == idx.group_years
    assert [len(groups[y]) for y in idx.group_years] == np.diff(idx.group_ptr).tolist()
    for outcome in (repcs_shuffle(idx, 5), umsj_shuffle(idx, 5)):
        shuffled = outcome._assignment[idx.corpus_order]
        for slots in groups.values():
            before = sorted(cited[s] for s in slots)
            after = sorted(idx.ref_ids[t] for t in shuffled[slots].tolist())
            assert before == after


def test_preservation_sweep_small():
    result = generate(SynthConfig(n_disciplines=2, pubs_per_discipline=500,
                                  ref_pool_per_discipline=900, seed=17))
    corpus = result.pool
    assert len(corpus.publications) == 1000
    idx = build_groups(corpus)
    for seed in range(100):
        outcome = repcs_shuffle(idx, seed)
        report = preservation_report(corpus, outcome)
        assert report.all_preserved
        assert report.pubs_with_refcount_delta == 0
        assert report.pubs_with_year_histogram_delta == 0


def test_global_outcomes_read_back_the_analyzed_slots(repcs_oracle):
    # Small reference pools make duplicates, and so deletions, common; the
    # pool holds three times the analyzed discipline's slots.
    result = generate(SynthConfig(n_disciplines=3, pubs_per_discipline=60,
                                  ref_pool_per_discipline=60, seed=23))
    corpus, pool = result.by_discipline["D01"], result.pool
    idx = build_groups(corpus, pool)
    subject = {rid: rec.subject for rid, rec in pool.references.items()}
    before = Counter(subject[r] for p in corpus.publications for r in p.refs)
    any_deleted = False
    for s in range(6):
        refs = repcs_oracle(corpus, pool, 5, s)
        deleted = [row for row, rr in enumerate(refs) if len(set(rr)) != len(rr)]
        any_deleted |= bool(deleted)
        outcome = repcs_shuffle(idx, 5, sim_index=s)
        assert len(outcome._assignment) == len(idx.c_tokens)
        assert outcome._deleted_rows.tolist() == deleted
        assert outcome.deleted_pubs == [corpus.publications[r].pub_id for r in deleted]
        survivors = [(p.pub_id, tuple(rr)) for row, (p, rr)
                     in enumerate(zip(corpus.publications, refs)) if row not in deleted]
        assert [(p.pub_id, p.refs) for p in outcome.corpus.publications] == survivors
        assert set(outcome.corpus.references) == {r for _, rr in survivors for r in rr}
        assert outcome.fixed_points == sum(
            r == o for rr, p in zip(refs, corpus.publications) for r, o in zip(rr, p.refs))
        for include_deleted in (True, False):
            after = Counter(subject[r] for row, rr in enumerate(refs)
                            if include_deleted or row not in deleted for r in rr)
            rows = composition_fold(corpus, outcome, include_deleted=include_deleted)
            assert [(row.subject, row.o, row.s) for row in rows] == [
                (label, before[label], after[label]) for label in sorted(set(subject.values()))]
        report = preservation_report(corpus, outcome)
        assert report.all_preserved
        assert report.deleted_count == len(deleted)
    assert any_deleted
    for s in range(3):
        outcome = umsj_shuffle(idx, 5, sim_index=s)
        assert len(outcome._assignment) == len(idx.c_tokens)
        assert preservation_report(corpus, outcome).all_preserved


def test_shuffle_determinism():
    result = generate(SynthConfig(n_disciplines=2, pubs_per_discipline=60,
                                  ref_pool_per_discipline=200, seed=9))
    idx = build_groups(result.pool)
    a = repcs_shuffle(idx, 11, sim_index=3)
    b = repcs_shuffle(idx, 11, sim_index=3)
    c = repcs_shuffle(idx, 11, sim_index=4)
    assert np.array_equal(a._assignment, b._assignment)
    assert a.corpus == b.corpus
    assert not np.array_equal(a._assignment, c._assignment)


def test_pool_slice_year_must_match(make_corpus, yeared_corpus):
    pool = make_corpus(
        pubs=[("p1", "J-X", ["r80a", "r80b", "r82a"], 0),
              ("p2", "J-X", ["r80c", "r82b"], 0)],
        refs=YEARED_REFS,
        slice_year=1996,
    )
    with pytest.raises(ValueError, match="slice year"):
        build_groups(yeared_corpus, pool)
