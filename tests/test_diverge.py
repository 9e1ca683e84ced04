import pytest

from cocite import (
    SimConfig,
    build_groups,
    composition_fold,
    kl_divergence,
    observed_frequencies,
    repcs_shuffle,
    run_simulations,
)
from cocite.diverge import _fold
from cocite.pairs import JournalPair, PairStats, PairTable
from cocite.synth import SynthConfig, generate


def table_of(counts):
    """An observed table: {(a, b): f_obs}."""
    return PairTable.from_rows(PairStats(JournalPair.of(*k), v, None, None, None)
                               for k, v in counts.items())


def sims_of(means, sigma=0.0):
    """A simulated table: {(a, b): f_exp}, every sigma ``sigma``."""
    return PairTable.from_rows(PairStats(JournalPair.of(*k), 0, m, sigma, None)
                               for k, m in means.items())


def test_divergence_of_identical_distributions_is_zero():
    counts = {("A", "B"): 5, ("A", "C"): 2, ("C", "C"): 9}
    result = kl_divergence(table_of(counts), sims_of(counts), None, 1e-12)
    assert result.kld == 0.0
    assert result.n_support == 3


def test_two_bin_hand_example():
    obs = table_of({("A", "A"): 1, ("A", "B"): 1})
    sim = sims_of({("A", "A"): 0.5, ("A", "B"): 1.5})
    result = kl_divergence(obs, sim, None, 1e-12)
    assert result.kld == pytest.approx(0.20752, abs=1e-4)


def test_divergence_reads_only_the_simulated_mean():
    obs = table_of({("A", "A"): 1, ("A", "B"): 1})
    sim = sims_of({("A", "A"): 0.5, ("A", "B"): 1.5}, sigma=0.2)
    assert kl_divergence(obs, sim, None, 1e-12).kld == pytest.approx(0.20752, abs=1e-4)


def test_journal_filter_restricts_support():
    obs = table_of({("A", "B"): 5, ("A", "Z"): 50})
    sim = sims_of({("A", "B"): 5.0, ("A", "Z"): 1.0})
    result = kl_divergence(obs, sim, {"A", "B"}, 1e-12)
    assert result.n_support == 1
    assert result.kld == 0.0


def test_tables_over_different_journal_lists_meet_on_their_union():
    # Key 1 is (A, B) over [A, B] but (A, C) over [A, C]; joining raw keys
    # would pair them.
    obs = table_of({("A", "B"): 3, ("A", "A"): 1})
    sim = sims_of({("A", "C"): 3.0, ("A", "A"): 1.0})
    result = kl_divergence(obs, sim, None, 1e-12)
    assert result.n_support == 3
    assert result.kld > 1.0
    assert kl_divergence(obs, sim, {"A"}, 1e-12).kld == 0.0


def test_empty_filtered_support_is_an_error():
    obs = table_of({("A", "B"): 5})
    with pytest.raises(ValueError, match="filter"):
        kl_divergence(obs, sims_of({}), {"Q"}, 1e-12)


def test_epsilon_must_be_positive():
    with pytest.raises(ValueError, match="epsilon"):
        kl_divergence(table_of({("A", "B"): 1}), sims_of({}), None, 0.0)


def test_fold_rules():
    assert _fold(7, 7) == 1
    assert _fold(0, 0) == 1
    assert _fold(1, 1496) == 1496
    assert _fold(1496, 1) == 1496
    assert _fold(0, 12) == 12
    assert _fold(12, 0) == 12
    assert _fold(3, 2) == 2  # 1.5 rounds to the even neighbour
    assert _fold(10, 3) == 3


def test_local_shuffle_keeps_every_subject_fold_at_one():
    result = generate(SynthConfig(n_disciplines=3, pubs_per_discipline=150,
                                  ref_pool_per_discipline=500, seed=37))
    corpus = result.pool
    idx = build_groups(corpus)
    for seed in (0, 1, 2):
        outcome = repcs_shuffle(idx, seed)
        rows = composition_fold(corpus, outcome)
        assert len(rows) == 3
        for row in rows:
            assert row.o == row.s
            assert row.fold == 1


def test_global_shuffle_distorts_minority_composition():
    result = generate(SynthConfig(
        n_disciplines=3,
        pubs_per_discipline=[660, 330, 10],
        ref_pool_per_discipline=[900, 500, 60],
        p_intra=0.9,
        seed=43,
    ))
    minority = result.by_discipline["D02"]
    idx = build_groups(minority, result.pool)
    outcome = repcs_shuffle(idx, 3)
    rows = composition_fold(minority, outcome)
    assert max(row.fold for row in rows) >= 5


def test_requested_subject_labels_are_reported():
    result = generate(SynthConfig(n_disciplines=2, pubs_per_discipline=30,
                                  ref_pool_per_discipline=120, seed=3))
    corpus = result.pool
    outcome = repcs_shuffle(build_groups(corpus), 0)
    rows = composition_fold(corpus, outcome, subjects=["D00", "D01", "Dxx"])
    assert [r.subject for r in rows] == ["D00", "D01", "Dxx"]
    assert rows[-1] == type(rows[-1])("Dxx", 0, 0, 1)


def test_survivors_only_composition_drops_deleted_citations():
    result = generate(SynthConfig(n_disciplines=2, pubs_per_discipline=200,
                                  ref_pool_per_discipline=300, skew=1.0, seed=5))
    corpus = result.pool
    idx = build_groups(corpus)
    outcome = None
    for seed in range(50):
        candidate = repcs_shuffle(idx, seed)
        if candidate.deleted_pubs:
            outcome = candidate
            break
    assert outcome is not None
    full = composition_fold(corpus, outcome, include_deleted=True)
    survivors = composition_fold(corpus, outcome, include_deleted=False)
    assert sum(r.s for r in full) == corpus.n_citations()
    dropped = sum(
        len(p.refs) for p in corpus.publications if p.pub_id in set(outcome.deleted_pubs)
    )
    assert sum(r.s for r in survivors) == corpus.n_citations() - dropped


def test_intra_biased_corpus_prefers_local_background():
    result = generate(SynthConfig(n_disciplines=3, pubs_per_discipline=250,
                                  ref_pool_per_discipline=600, p_intra=0.85, seed=51))
    corpus = result.by_discipline["D00"]
    obs = observed_frequencies(corpus)
    journals = corpus.journals()
    local = run_simulations(corpus, None, SimConfig(n_simulations=40, master_seed=2))
    glob = run_simulations(corpus, result.pool,
                           SimConfig(n_simulations=40, master_seed=2, background="global"))
    kl_local = kl_divergence(obs, local, journals, corpus_tag="D00", background="local")
    kl_global = kl_divergence(obs, glob, journals, corpus_tag="D00", background="global")
    assert kl_local.kld < kl_global.kld
