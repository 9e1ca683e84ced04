import math
from collections import Counter

import pytest

from cocite import (
    SimConfig,
    build_groups,
    observed_frequencies,
    repcs_shuffle,
    run_simulations,
    sign_change_report,
    zscores,
)
from cocite.pairs import JournalPair, JournalPairTable
from cocite.simulate import PairStats, benchmark_algorithms, pair_mean_sigma
from cocite.synth import SynthConfig, generate


def table_of(counts):
    return JournalPairTable(Counter({JournalPair.of(*k): v for k, v in counts.items()}))


def test_mean_sigma_two_point():
    # Frequencies 4 and 6 over two simulations.
    assert pair_mean_sigma(10, 52, 2) == (5.0, 1.0)


def test_mean_sigma_with_zero_filled_absences():
    # Present once with frequency 8, absent in the other three simulations.
    mean, sigma = pair_mean_sigma(8, 64, 4)
    assert mean == 2.0
    assert sigma == pytest.approx(math.sqrt(12), abs=1e-12)


def test_degenerate_corpus_has_zero_sigma(make_corpus):
    # Single-slot groups permute trivially, so every simulation is identical.
    corpus = make_corpus(
        pubs=[("p1", "J", ["a", "b"], 0)],
        refs={"a": (1990, "JA", "s"), "b": (1991, "JB", "s")},
    )
    sims = run_simulations(corpus, None, SimConfig(n_simulations=10, master_seed=1))
    assert len(sims) == 1
    mean, sigma = sims[JournalPair.of("JA", "JB")]
    assert (mean, sigma) == (1.0, 0.0)


def test_zscore_formula():
    stats = zscores(table_of({("A", "B"): 12}), {JournalPair.of("A", "B"): (9.5, 2.5)})
    assert stats[0].z == pytest.approx(1.0)
    stats = zscores(table_of({("A", "B"): 7}), {JournalPair.of("A", "B"): (7.0, 2.0)})
    assert stats[0].z == 0.0


def test_zscore_sigma_zero_is_undefined():
    stats = zscores(table_of({("A", "B"): 3}), {JournalPair.of("A", "B"): (3.0, 0.0)})
    assert stats[0].z is None
    # Union support includes pairs only seen in simulations.
    stats = zscores(table_of({}), {JournalPair.of("C", "D"): (2.0, 1.0)})
    assert stats[0].f_obs == 0
    assert stats[0].z == pytest.approx(-2.0)


def test_simconfig_validation():
    with pytest.raises(ValueError, match="n_simulations"):
        run_simulations(None, None, SimConfig(n_simulations=1))
    with pytest.raises(ValueError, match="algorithm"):
        SimConfig(algorithm="nope").validate()
    with pytest.raises(ValueError, match="background"):
        SimConfig(background="nope").validate()
    with pytest.raises(ValueError, match="pool"):
        run_simulations(None, None, SimConfig(n_simulations=2, background="global"))


@pytest.fixture(scope="module")
def small_world():
    result = generate(SynthConfig(n_disciplines=2, pubs_per_discipline=60,
                                  ref_pool_per_discipline=220, p_intra=0.85, seed=23))
    return result


def test_worker_count_does_not_change_results(small_world):
    corpus = small_world.by_discipline["D00"]
    runs = [
        run_simulations(corpus, None, SimConfig(n_simulations=30, master_seed=3, workers=w))
        for w in (1, 2, 3)
    ]
    assert dict(runs[0]) == dict(runs[1]) == dict(runs[2])


def test_simulations_are_deterministic_given_seed(small_world):
    corpus = small_world.by_discipline["D00"]
    cfg = SimConfig(n_simulations=20, master_seed=5)
    assert dict(run_simulations(corpus, None, cfg)) == dict(run_simulations(corpus, None, cfg))
    other = run_simulations(corpus, None, SimConfig(n_simulations=20, master_seed=6))
    assert dict(other) != dict(run_simulations(corpus, None, cfg))


def test_per_sim_totals_match_shuffle_outcomes(small_world):
    corpus = small_world.by_discipline["D00"]
    cfg = SimConfig(n_simulations=8, master_seed=2)
    sims = run_simulations(corpus, None, cfg)
    plan = build_groups(corpus)
    n_by_pub = {p.pub_id: len(p.refs) for p in corpus.publications}
    for s in range(cfg.n_simulations):
        outcome = repcs_shuffle(plan, cfg.master_seed, sim_index=s)
        expected = sum(
            n_by_pub[pid] * (n_by_pub[pid] - 1) // 2
            for pid in n_by_pub
            if pid not in set(outcome.deleted_pubs)
        )
        assert sims.per_sim_total_pairs[s] == expected
        assert sims.per_sim_deleted[s] == len(outcome.deleted_pubs)


def test_global_background_requires_superset(small_world):
    corpus = small_world.by_discipline["D00"]
    cfg = SimConfig(n_simulations=5, master_seed=1, background="global")
    sims = run_simulations(corpus, small_world.pool, cfg)
    assert len(sims) >= 1
    foreign = [pair for pair in sims if pair.a.startswith("J01") and pair.b.startswith("J01")]
    assert foreign, "global shuffling should produce pairs outside the local journal set"


def test_sign_change_identical_inputs_is_zero():
    stats = [
        PairStats(JournalPair.of("A", "B"), 3, 2.0, 1.0, 1.0),
        PairStats(JournalPair.of("A", "C"), 1, 2.0, 1.0, -1.0),
    ]
    assert sign_change_report(stats, stats) == 0.0


def test_sign_change_hand_count():
    def ps(a, b, z):
        return PairStats(JournalPair.of(a, b), 0, 0.0, 1.0, z)

    left = [ps("A", "B", 1.0), ps("A", "C", -2.0), ps("A", "D", 0.5), ps("A", "E", 0.0)]
    right = [ps("A", "B", -1.0), ps("A", "C", 3.0), ps("A", "D", 0.5), ps("A", "E", -4.0)]
    # Four pairs defined in both; two flip sign; the zero has no sign.
    assert sign_change_report(left, right) == 0.5


def test_background_moves_signs_more_than_algorithm(small_world):
    corpus = small_world.by_discipline["D00"]
    obs = observed_frequencies(corpus)
    n = 60
    local_repcs = zscores(obs, run_simulations(
        corpus, None, SimConfig(n_simulations=n, master_seed=7)))
    global_repcs = zscores(obs, run_simulations(
        corpus, small_world.pool,
        SimConfig(n_simulations=n, master_seed=7, background="global")))
    local_umsj = zscores(obs, run_simulations(
        corpus, None, SimConfig(n_simulations=n, master_seed=7, algorithm="umsj")))
    across_backgrounds = sign_change_report(local_repcs, global_repcs)
    across_algorithms = sign_change_report(local_repcs, local_umsj)
    assert across_backgrounds > across_algorithms


def test_benchmark_returns_positive_timings(small_world):
    corpus = small_world.by_discipline["D00"]
    timings = benchmark_algorithms(corpus, n_simulations=2, master_seed=0)
    assert set(timings) == {"repcs", "umsj"}
    assert all(v > 0 for v in timings.values())


def test_sparse_accumulator_path_matches_dense(monkeypatch, small_world):
    corpus = small_world.by_discipline["D00"]
    cfg = SimConfig(n_simulations=15, master_seed=4)
    dense = run_simulations(corpus, None, cfg)
    import cocite.indexing as indexing
    import cocite.simulate as simulate

    monkeypatch.setattr(indexing, "DENSE_PAIR_LIMIT", 0)
    monkeypatch.setattr(simulate, "DENSE_PAIR_LIMIT", 0)
    monkeypatch.setattr(simulate._SparseAccumulator, "_COMPACT_AT", 64)
    sparse = run_simulations(corpus, None, cfg)
    assert dict(dense) == dict(sparse)
    sparse_workers = run_simulations(
        corpus, None, SimConfig(n_simulations=15, master_seed=4, workers=3)
    )
    assert dict(dense) == dict(sparse_workers)


def test_empty_corpus_simulates_to_empty_support(make_corpus):
    sims = run_simulations(make_corpus(pubs=[], refs={}), None,
                           SimConfig(n_simulations=3, master_seed=0))
    assert len(sims) == 0
    assert sims.per_sim_total_pairs == [0, 0, 0]


def test_dead_worker_raises_instead_of_hanging(monkeypatch, small_world, time_limit):
    import os

    import cocite.simulate as simulate

    # The forked child inherits the patched module and dies mid-range.
    monkeypatch.setattr(simulate, "_run_sim_range", lambda *args: os._exit(3))
    corpus = small_world.by_discipline["D00"]
    with time_limit(60), pytest.raises(simulate.WorkerError,
                                       match=r"before simulations \d+\.\.\d+ finished"):
        run_simulations(corpus, None, SimConfig(n_simulations=4, master_seed=0, workers=2))


def test_sum_of_squares_overflow_is_refused_before_any_simulation(monkeypatch, make_corpus):
    import cocite.simulate as simulate

    def no_simulation(*args):
        raise AssertionError("a simulation started")

    monkeypatch.setattr(simulate, "_run_sim_range", no_simulation)
    # One publication citing three references: at most C(3,2) = 3 pairs per simulation.
    corpus = make_corpus(
        pubs=[("p1", "J", ["a", "b", "c"], 0)],
        refs={"a": (1990, "JA", "s"), "b": (1991, "JB", "s"), "c": (1992, "JC", "s")},
    )
    at_bound = -(-(1 << 63) // 9)  # smallest N with N * 3**2 >= 2**63
    for workers in (1, 2):
        with pytest.raises(ValueError, match="overflow"):
            run_simulations(corpus, None, SimConfig(n_simulations=at_bound, workers=workers))
    # One simulation fewer stays under the bound and reaches the simulation loop.
    with pytest.raises(AssertionError, match="a simulation started"):
        run_simulations(corpus, None, SimConfig(n_simulations=at_bound - 1, workers=1))
