import math
from collections import Counter

import numpy as np
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
from cocite.pairs import JournalPair, PairStats, PairTable
from cocite.simulate import (
    benchmark_algorithms,
    pair_mean_sigma,
    read_pair_stats_csv,
    write_pair_stats_csv,
)
from cocite.synth import SynthConfig, generate


def table_of(counts):
    """An observed table: {(a, b): f_obs}."""
    return PairTable.from_rows(PairStats(JournalPair.of(*k), v, None, None, None)
                               for k, v in counts.items())


def sims_of(moments):
    """A simulated table: {(a, b): (f_exp, sigma)}."""
    return PairTable.from_rows(PairStats(JournalPair.of(*k), 0, m, s, None)
                               for k, (m, s) in moments.items())


def moments(s1, s2, n):
    mean, sigma = pair_mean_sigma(np.array(s1, np.int64), np.array(s2, np.int64), n)
    return mean.tolist(), sigma.tolist()


def test_mean_sigma_two_point():
    # Frequencies 4 and 6 over two simulations.
    assert moments([10], [52], 2) == ([5.0], [1.0])


def test_mean_sigma_with_zero_filled_absences():
    # Present once with frequency 8, absent in the other three simulations.
    (mean,), (sigma,) = moments([8], [64], 4)
    assert mean == 2.0
    assert sigma == pytest.approx(math.sqrt(12), abs=1e-12)


@pytest.mark.parametrize("s1,s2,n", [
    ([10], [52], 2),
    ([8], [64], 4),
    # n * s2 = 2^64 passes int64 while s2 = 2^44 does not; n * s2 - s1^2 fits
    # int64 again in the first pair and not in the second.
    ([(1 << 32) - 5, 1 << 22, 3], [1 << 44, 1 << 44, 5], 1 << 20),
])
def test_mean_sigma_equals_the_python_integer_formula(s1, s2, n):
    assert moments(s1, s2, n) == (
        [a / n for a in s1],
        [math.sqrt(n * b - a * a) / n for a, b in zip(s1, s2)],
    )


def test_degenerate_corpus_has_zero_sigma(make_corpus):
    # Single-slot groups permute trivially, so every simulation is identical.
    corpus = make_corpus(
        pubs=[("p1", "J", ["a", "b"], 0)],
        refs={"a": (1990, "JA", "s"), "b": (1991, "JB", "s")},
    )
    sims = run_simulations(corpus, None, SimConfig(n_simulations=10, master_seed=1))
    assert [(ps.pair, ps.f_exp, ps.sigma) for ps in sims.table] == [(("JA", "JB"), 1.0, 0.0)]


def test_zscore_formula():
    stats = list(zscores(table_of({("A", "B"): 12}), sims_of({("A", "B"): (9.5, 2.5)})))
    assert stats[0].z == pytest.approx(1.0)
    stats = list(zscores(table_of({("A", "B"): 7}), sims_of({("A", "B"): (7.0, 2.0)})))
    assert stats[0].z == 0.0


def test_zscore_sigma_zero_is_undefined():
    stats = list(zscores(table_of({("A", "B"): 3}), sims_of({("A", "B"): (3.0, 0.0)})))
    assert stats[0].z is None
    # Union support includes pairs only seen in simulations.
    stats = list(zscores(table_of({}), sims_of({("C", "D"): (2.0, 1.0)})))
    assert stats[0].f_obs == 0
    assert stats[0].z == pytest.approx(-2.0)


def test_zscores_join_tables_over_different_journal_lists():
    # The simulated table knows journal C, the observed one does not: pair
    # keys differ between the two lists and are joined on the union of them.
    obs = table_of({("A", "B"): 4, ("B", "B"): 1})
    sims = sims_of({("A", "B"): (2.0, 1.0), ("A", "C"): (1.0, 0.5), ("C", "C"): (3.0, 1.0)})
    stats = zscores(obs, sims)
    assert stats.journal_ids == ["A", "B", "C"]
    assert [(ps.pair, ps.f_obs, ps.f_exp, ps.z) for ps in stats] == [
        (("A", "B"), 4, 2.0, 2.0), (("A", "C"), 0, 1.0, -2.0),
        (("B", "B"), 1, 0.0, None), (("C", "C"), 0, 3.0, -3.0),
    ]


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
    assert list(runs[0].table) == list(runs[1].table) == list(runs[2].table)


def test_simulations_are_deterministic_given_seed(small_world):
    corpus = small_world.by_discipline["D00"]
    cfg = SimConfig(n_simulations=20, master_seed=5)
    first = list(run_simulations(corpus, None, cfg).table)
    assert list(run_simulations(corpus, None, cfg).table) == first
    other = run_simulations(corpus, None, SimConfig(n_simulations=20, master_seed=6))
    assert list(other.table) != first


def test_per_sim_totals_match_shuffle_outcomes(small_world):
    corpus = small_world.by_discipline["D00"]
    cfg = SimConfig(n_simulations=8, master_seed=2)
    sims = run_simulations(corpus, None, cfg)
    idx = build_groups(corpus)
    n_by_pub = {p.pub_id: len(p.refs) for p in corpus.publications}
    for s in range(cfg.n_simulations):
        outcome = repcs_shuffle(idx, cfg.master_seed, sim_index=s)
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
    foreign = [ps for ps in sims.table
               if ps.pair.a.startswith("J01") and ps.pair.b.startswith("J01")]
    assert foreign, "global shuffling should produce pairs outside the local journal set"


def test_local_background_refuses_another_pool_before_indexing(small_world):
    # The pool holds D00 and D01 does not; the refusal names the background
    # either way, not a publication missing from an index built for it.
    corpus = small_world.by_discipline["D00"]
    for pool in (small_world.pool, small_world.by_discipline["D01"]):
        with pytest.raises(ValueError, match="local background requires pool to be the corpus"):
            run_simulations(corpus, pool, SimConfig(n_simulations=2))


def test_sign_change_identical_inputs_is_zero():
    stats = PairTable.from_rows([
        PairStats(JournalPair.of("A", "B"), 3, 2.0, 1.0, 1.0),
        PairStats(JournalPair.of("A", "C"), 1, 2.0, 1.0, -1.0),
    ])
    assert sign_change_report(stats, stats) == 0.0


def test_sign_change_hand_count():
    def ps(a, b, z):
        return PairStats(JournalPair.of(a, b), 0, 0.0, 1.0, z)

    left = PairTable.from_rows([ps("A", "B", 1.0), ps("A", "C", -2.0), ps("A", "D", 0.5),
                                ps("A", "E", 0.0), ps("A", "F", None), ps("A", "G", 1.0)])
    right = PairTable.from_rows([ps("A", "B", -1.0), ps("A", "C", 3.0), ps("A", "D", 0.5),
                                 ps("A", "E", -4.0), ps("A", "F", -1.0), ps("B", "B", 1.0)])
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
    monkeypatch.setattr(simulate._SparseAccumulator, "_COMPACT_AT", 64)
    sparse = run_simulations(corpus, None, cfg)
    assert list(dense.table) == list(sparse.table)
    sparse_workers = run_simulations(
        corpus, None, SimConfig(n_simulations=15, master_seed=4, workers=3)
    )
    assert list(dense.table) == list(sparse_workers.table)


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


def refuse_expansion(*args, **kwargs):
    raise AssertionError("journal pairs were expanded")


def with_edge_publications(result):
    """D00 and its pool plus a publication whose references share one journal
    (self-pairs only) and a publication with one reference."""
    from collections import defaultdict

    from cocite.corpus import Corpus, Publication

    corpus, pool = result.by_discipline["D00"], result.pool
    cited = {r for p in corpus.publications for r in p.refs}
    by_journal = defaultdict(list)
    for rid in sorted(cited):
        by_journal[corpus.references[rid].journal_id].append(rid)
    same = max(by_journal.values(), key=len)[:7]
    assert len(same) == 7
    extra = [Publication("same-journal", corpus.slice_year, "J-X", tuple(same), 0),
             Publication("one-ref", corpus.slice_year, "J-X", (same[0],), 0)]
    return (Corpus(corpus.slice_year, corpus.publications + extra, corpus.references),
            Corpus(pool.slice_year, pool.publications + extra, pool.references))


@pytest.mark.parametrize("background", ["local", "global"])
def test_journal_product_counts_match_key_path(monkeypatch, repcs_oracle, small_world,
                                               background):
    import cocite.indexing as indexing

    corpus, pool = with_edge_publications(small_world)
    pool = pool if background == "global" else None
    idx = build_groups(corpus, pool)
    assert idx.local == (background == "local")
    same_row = idx.c_pub_ids.index("same-journal")
    one_row = idx.c_pub_ids.index("one-ref")
    same_bucket = np.flatnonzero(idx.c_counts == idx.c_counts[same_row])
    ref_index = {r: i for i, r in enumerate(idx.ref_ids)}
    shuffled = []
    for s in range(5):
        # The oracle lists references in corpus order; read-back vectors are group-major.
        tokens = np.empty_like(idx.c_tokens)
        tokens[idx.corpus_order] = [ref_index[r] for rr in repcs_oracle(corpus, pool, 9, s)
                                    for r in rr]
        shuffled.append(tokens)
    cases = []
    for tokens in [idx.c_tokens] + shuffled:
        deleted = idx.duplicate_pub_rows(tokens)
        cases.append((tokens, deleted))
        # Emptying whole buckets: every row with the same-journal row's reference
        # count, and the one-reference row.
        cases.append((tokens, np.union1d(deleted, np.append(same_bucket, one_row))))
    assert any(len(deleted) for _, deleted in cases[2::2])
    with monkeypatch.context() as m:
        m.setattr(indexing.CorpusIndex, "bucket_pair_keys", refuse_expansion)
        product = [idx.pair_key_counts(a, exclude_rows=ex) for a, ex in cases]
    monkeypatch.setattr(indexing, "DENSE_PAIR_LIMIT", 0)
    expanded = [idx.pair_key_counts(a, exclude_rows=ex) for a, ex in cases]
    for (pk, pc), (ek, ec) in zip(product, expanded):
        assert pk.dtype == ek.dtype == pc.dtype == ec.dtype == np.int64
        assert np.array_equal(pk, ek) and np.array_equal(pc, ec)
    # Unshuffled, the same-journal publication alone adds C(7, 2) = 21 self-pairs.
    monkeypatch.undo()
    j = idx.ref_journal[idx.c_tokens[idx.corpus_order[idx.c_pub_ptr[same_row]]]]
    without = idx.pair_key_counts(idx.c_tokens, exclude_rows=np.array([same_row]))
    delta = dict(zip(*(a.tolist() for a in product[0])))
    for k, c in zip(*(a.tolist() for a in without)):
        delta[k] -= c
    assert {k: c for k, c in delta.items() if c} == {int(j * idx.n_journals + j): 21}


def test_dense_counting_does_not_expand_pairs(monkeypatch, small_world):
    from cocite.indexing import CorpusIndex

    corpus = small_world.by_discipline["D00"]
    expected = list(run_simulations(corpus, None, SimConfig(n_simulations=4, master_seed=2)).table)
    observed = list(observed_frequencies(corpus))
    monkeypatch.setattr(CorpusIndex, "bucket_pair_keys", refuse_expansion)
    assert list(run_simulations(corpus, None, SimConfig(n_simulations=4, master_seed=2)).table) \
        == expected
    assert list(observed_frequencies(corpus)) == observed


def test_journal_product_refuses_squared_counts_past_2_53(make_corpus):
    from cocite.indexing import CorpusIndex

    corpus = make_corpus(
        pubs=[("p1", "J", ["a", "b"], 0), ("p2", "J", ["b", "c"], 0)],
        refs={"a": (1990, "JA", "s"), "b": (1991, "JB", "s"), "c": (1992, "JC", "s")},
    )
    idx = CorpusIndex(corpus)
    keys, counts = idx.pair_key_counts(idx.c_tokens)
    assert counts.tolist() == [1, 1]
    # The squared reference counts sum to 2 * n_pairs + 4, here 2^53 + 4,
    # without building a token vector that large.
    idx.n_pairs = 1 << 52
    with pytest.raises(ValueError, match="2\\^53"):
        idx.pair_key_counts(idx.c_tokens)
    # 2^52 - 3 pairs bring the sum to 2^53 - 2, the largest one allowed.
    idx.n_pairs = (1 << 52) - 3
    assert idx.pair_key_counts(idx.c_tokens)[1].tolist() == [1, 1]


def test_pair_stats_csv_round_trips(tmp_path):
    quoted = 'J,"1"'  # sorts before J-A: "," < "-"
    stats = [
        PairStats(JournalPair(quoted, quoted), 0, 0.0, 0.0, None),
        PairStats(JournalPair(quoted, "J-A"), 3, 0.1 + 0.2, 1 / 3, (3 - 0.3) / (1 / 3)),
        PairStats(JournalPair("J-B", "J-C"), 7, 7.0, 1e-300, 0.0),
    ]
    path = tmp_path / "pair_stats.csv"
    write_pair_stats_csv(PairTable.from_rows(stats), path)
    assert list(read_pair_stats_csv(path)) == stats
