"""Acceptance suite: one test per criterion, reported in the summary.

Every tolerance is pinned inside its test. The heavy performance check
is marked slow; deselect with `-m "not slow"` when a quick pass is
wanted.
"""

import math
import statistics
import time
from collections import Counter

import numpy as np
import pytest

from cocite import (
    ClassifyConfig,
    HitConfig,
    SimConfig,
    SynthConfig,
    build_groups,
    classify_corpus,
    composition_fold,
    corpus_summaries,
    designate_hits,
    generate,
    kl_divergence,
    observed_frequencies,
    preservation_report,
    repcs_shuffle,
    run_simulations,
    zscores,
)
from cocite.cli import main
from cocite.impact import chi_square_gof
from cocite.pairs import JournalPair, PairStats, PairTable
from cocite.rng import group_stream
from cocite.simulate import benchmark_algorithms

from test_impact import chi2_sf_quadrature, sort_based_hits


@pytest.mark.acceptance("01", "preservation: 100 repcs runs keep counts and year histograms")
def test_preservation_suite():
    result = generate(SynthConfig(n_disciplines=4, pubs_per_discipline=2500,
                                  ref_pool_per_discipline=4000, seed=101))
    corpus = result.pool
    assert len(corpus.publications) == 10_000
    start = time.perf_counter()
    plan = build_groups(corpus)
    for seed in range(100):
        outcome = repcs_shuffle(plan, seed)
        report = preservation_report(corpus, outcome)
        assert report.pubs_with_refcount_delta == 0
        assert report.pubs_with_year_histogram_delta == 0
        assert report.publication_delta == report.deleted_count
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"preservation sweep took {elapsed:.1f}s"


@pytest.mark.acceptance("02", "composition: local fold is exactly 1, global distorts a minority")
def test_composition_fidelity():
    local_world = generate(SynthConfig(n_disciplines=3, pubs_per_discipline=300,
                                       ref_pool_per_discipline=700, seed=102))
    corpus = local_world.pool
    plan = build_groups(corpus)
    for seed in (0, 1, 2, 3, 4):
        rows = composition_fold(corpus, repcs_shuffle(plan, seed))
        assert all(row.fold == 1 and row.o == row.s for row in rows)

    skewed = generate(SynthConfig(
        n_disciplines=3,
        pubs_per_discipline=[660, 330, 10],
        ref_pool_per_discipline=[900, 500, 60],
        p_intra=0.9,
        seed=103,
    ))
    minority = skewed.by_discipline["D02"]
    assert len(minority.publications) == 10
    outcome = repcs_shuffle(build_groups(minority, skewed.pool), 3)
    rows = composition_fold(minority, outcome)
    assert max(row.fold for row in rows) >= 5


@pytest.mark.acceptance("03", "K-L ordering: local < global in >= 19/20 corpora, median ratio > 1.5")
def test_kl_ordering_over_20_corpora():
    wins = 0
    ratios = []
    for i in range(20):
        world = generate(SynthConfig(n_disciplines=3, pubs_per_discipline=700,
                                     ref_pool_per_discipline=1200, p_intra=0.85,
                                     seed=200 + i))
        assert len(world.pool.publications) >= 2000
        corpus = world.by_discipline["D00"]
        obs = observed_frequencies(corpus)
        journals = corpus.journals()
        local = run_simulations(corpus, None,
                                SimConfig(n_simulations=40, master_seed=7, workers=2))
        glob = run_simulations(corpus, world.pool,
                               SimConfig(n_simulations=40, master_seed=7,
                                         background="global", workers=2))
        kl_local = kl_divergence(obs, local, journals).kld
        kl_global = kl_divergence(obs, glob, journals).kld
        wins += kl_local < kl_global
        ratios.append(kl_global / kl_local)
    assert wins >= 19, f"local < global in only {wins}/20 corpora"
    assert statistics.median(ratios) > 1.5


def naive_pair_statistics(corpus, master_seed, n_sims):
    """Independent oracle: stored per-simulation tables, two-pass statistics.

    Shares only the random streams with the pipeline; grouping, shuffling,
    error correction, and pair counting are re-implemented directly on the
    corpus objects.
    """
    refs = corpus.references
    slots = []
    tokens = []
    for pi, pub in enumerate(corpus.publications):
        for pos, rid in enumerate(pub.refs):
            slots.append((pi, pos))
            tokens.append(rid)
    by_year = {}
    for si, rid in enumerate(tokens):
        by_year.setdefault(refs[rid].year, []).append(si)
    groups = [by_year[y] for y in sorted(by_year)]
    tables = []
    for s in range(n_sims):
        assign = list(tokens)
        for gi, group in enumerate(groups):
            perm = group_stream(master_seed, s, gi).permutation(len(group))
            for k, slot in enumerate(group):
                assign[slot] = tokens[group[perm[k]]]
        per_pub = {}
        for (pi, pos), rid in zip(slots, assign):
            per_pub.setdefault(pi, []).append((pos, rid))
        table = Counter()
        for entries in per_pub.values():
            rids = [rid for _, rid in sorted(entries)]
            if len(set(rids)) != len(rids):
                continue
            journals = [refs[r].journal_id for r in rids]
            for i in range(len(journals)):
                for j in range(i + 1, len(journals)):
                    a, b = sorted((journals[i], journals[j]))
                    table[(a, b)] += 1
        tables.append(table)
    support = set()
    for t in tables:
        support.update(t)
    stats = {}
    for pair in support:
        values = [t.get(pair, 0) for t in tables]
        mean = sum(values) / n_sims
        var = sum((v - mean) ** 2 for v in values) / n_sims
        stats[pair] = (mean, math.sqrt(var))
    return stats


@pytest.mark.acceptance("04", "oracle equivalence: pipeline matches a naive re-implementation to 1e-9")
def test_oracle_equivalence(make_corpus):
    corpus = make_corpus(
        pubs=[
            ("p1", "J", ["r1", "r2", "r4"], 0),
            ("p2", "J", ["r2", "r3", "r5"], 0),
            ("p3", "J", ["r1", "r3"], 0),
            ("p4", "J", ["r6", "r2", "r5"], 0),
            ("p5", "J", ["r4", "r1"], 0),
        ],
        refs={
            "r1": (1990, "JA", "s"), "r2": (1990, "JB", "s"), "r3": (1990, "JC", "s"),
            "r4": (1991, "JA", "s"), "r5": (1991, "JB", "s"), "r6": (1990, "JA", "s"),
        },
    )
    n_sims, seed = 1000, 424242
    sims = run_simulations(corpus, None, SimConfig(n_simulations=n_sims, master_seed=seed))
    obs = observed_frequencies(corpus)
    stats = {ps.pair: ps for ps in zscores(obs, sims)}
    oracle = naive_pair_statistics(corpus, seed, n_sims)
    oracle_obs = Counter()
    for pub in corpus.publications:
        journals = [corpus.references[r].journal_id for r in pub.refs]
        for i in range(len(journals)):
            for j in range(i + 1, len(journals)):
                a, b = sorted((journals[i], journals[j]))
                oracle_obs[(a, b)] += 1
    assert set(stats) == set(oracle) | set(oracle_obs)
    for pair, (mean, sigma) in oracle.items():
        got = stats[JournalPair.of(*pair)]
        assert got.f_obs == oracle_obs.get(pair, 0)
        assert abs(got.f_exp - mean) < 1e-9
        assert abs(got.sigma - sigma) < 1e-9
        if sigma > 0:
            naive_z = (oracle_obs.get(pair, 0) - mean) / sigma
            assert abs(got.z - naive_z) < 1e-9
        else:
            assert got.z is None


@pytest.mark.acceptance("05a", "classification: strict threshold and boundary behavior")
def test_classification_strict_boundaries(make_pub_table):
    def summaries(*rows):
        return make_pub_table((pid, median, p10, p10, 3) for pid, median, p10 in rows)

    labeled, threshold = classify_corpus(
        summaries(("p1", 1.0, 1.0), ("p2", 2.0, 1.0), ("p3", 3.0, 1.0))
    )
    assert threshold == 2.0
    assert labeled.labels() == ["LNLC", "LNLC", "LNHC"]
    # A publication sitting exactly at zero is low novelty.
    labeled, _ = classify_corpus(summaries(("q1", 0.0, 0.0), ("q2", 1.0, -0.001)))
    assert labeled.labels()[0].startswith("LN")
    assert labeled.labels()[1].startswith("HN")


@pytest.mark.acceptance("05b", "classification: percentile interpolation reproduces -2.2")
def test_classification_percentile_example(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J", ["a", "b", "c", "d"], 0)],
        refs={
            "a": (1990, "A", "s"), "b": (1990, "B", "s"),
            "c": (1990, "C", "s"), "d": (1990, "D", "s"),
        },
    )
    from cocite.pairs import PairStats

    def ps(a, b, z):
        return PairStats(JournalPair.of(a, b), 0, 0.0, 1.0 if z is not None else 0.0, z)

    stats = [
        ps("A", "B", -3.0), ps("A", "C", -1.0), ps("A", "D", 0.0),
        ps("B", "C", 2.0), ps("B", "D", 5.0), ps("C", "D", None),
    ]
    got, _ = corpus_summaries(corpus, PairTable.from_rows(stats))
    assert got.z_median.tolist() == [0.0]
    assert got.z_p10.tolist() == [-2.2]


@pytest.mark.acceptance(
    "05c", "classification: percentile 10 -> 1 only adds novelty, exactly where p1 < 0 <= p10"
)
def test_classification_novelty_switch_never_adds_novelty(make_pub_table):
    # Lowering the novelty percentile from 10 to 1 can only add HN labels:
    # p1 <= p10, and HN means the configured tail is strictly negative, so
    # a publication turns LN -> HN exactly when p1 < 0 <= p10 and none
    # turns HN -> LN. The conventionality half and its threshold do not
    # depend on the novelty percentile.
    rng = np.random.default_rng(55)
    rows = []
    for i in range(1000):
        zs = rng.normal(rng.uniform(-1.0, 3.0), 1.0, size=int(rng.integers(3, 60)))
        med, p10, p1 = np.percentile(zs, [50.0, 10.0, 1.0])
        rows.append((f"p{i}", float(med), float(p10), float(p1), len(zs)))
    summaries = make_pub_table(rows)
    at10, threshold10 = classify_corpus(summaries, ClassifyConfig(10))
    at1, threshold1 = classify_corpus(summaries, ClassifyConfig(1))
    assert at10.pub_ids == at1.pub_ids == summaries.pub_ids
    pub_ids, p10s, p1s = summaries.pub_ids, summaries.z_p10.tolist(), summaries.z_p1.tolist()

    dropped = [
        (pub_id, p10, p1)
        for pub_id, p10, p1, a, b in zip(pub_ids, p10s, p1s, at10.labels(), at1.labels())
        if a.startswith("HN") and b.startswith("LN")
    ]
    assert not dropped, (
        f"{len(dropped)} publications went HN -> LN; first (pub, p10, p1): {dropped[0]}"
    )

    converted = {
        pub_id for pub_id, a, b in zip(pub_ids, at10.labels(), at1.labels())
        if a.startswith("LN") and b.startswith("HN")
    }
    expected = {pub_id for pub_id, p10, p1 in zip(pub_ids, p10s, p1s) if p1 < 0.0 <= p10}
    assert expected, "the seeded data must hold publications with p1 < 0 <= p10"
    assert converted == expected, (
        f"LN -> HN conversions differ from p1 < 0 <= p10: "
        f"unexpected {sorted(converted - expected)[:5]}, missing {sorted(expected - converted)[:5]}"
    )

    assert threshold10 == threshold1
    assert [a[2:] for a in at10.labels()] == [b[2:] for b in at1.labels()]


@pytest.mark.acceptance("06", "chi-square: textbook value, gamma oracle, validity flag")
def test_chi_square_correctness():
    observed = {"LNLC": 10, "LNHC": 20, "HNLC": 30, "HNHC": 40}
    sizes = {c: 1000 for c in observed}
    result = chi_square_gof(observed, sizes)
    assert result.statistic == pytest.approx(20.0, abs=1e-12)
    assert result.df == 3
    assert abs(result.p_value - 1.70e-4) < 1e-6
    assert abs(result.p_value - chi2_sf_quadrature(20.0, 3)) < 1e-10
    zero = chi_square_gof({"a": 10, "b": 20}, {"a": 100, "b": 200})
    assert zero.statistic == 0.0
    assert zero.p_value == 1.0
    low = chi_square_gof({"a": 4, "b": 28}, {"a": 10, "b": 90})
    assert not low.valid  # expected(a) = 3.2 < 5
    ok = chi_square_gof({"a": 16, "b": 16}, {"a": 50, "b": 50})
    assert ok.valid


@pytest.mark.acceptance("07", "hit designation: sort-based oracle at 1/2/5/10% plus tie rule")
def test_hit_designation_oracle():
    from cocite.corpus import Publication

    rng = np.random.default_rng(71)
    counts = np.floor(rng.lognormal(1.2, 1.6, size=1000)).astype(int).tolist()
    pubs = [Publication(f"p{i}", 1995, "J", ("r1", "r2"), c) for i, c in enumerate(counts)]
    for pct in (1, 2, 5, 10):
        hits = designate_hits(pubs, HitConfig(pct))
        oracle = {f"p{i}" for i in sort_based_hits(counts, pct)}
        assert hits == oracle, f"hit set mismatch at {pct}%"
    flat = [Publication(f"q{i}", 1995, "J", ("r1", "r2"), 5) for i in range(64)]
    assert designate_hits(flat, HitConfig(10)) == {p.pub_id for p in flat}


@pytest.mark.acceptance("08a", "performance: repcs at least 10x faster than umsj on 100k citations")
def test_performance_ratio():
    world = generate(SynthConfig(n_disciplines=4, pubs_per_discipline=2500,
                                 ref_pool_per_discipline=4000, refs_mean=10.0, seed=77))
    corpus = world.pool
    assert corpus.n_citations() >= 100_000
    timings = benchmark_algorithms(corpus, n_simulations=10, master_seed=5)
    ratio = timings["umsj"] / timings["repcs"]
    assert timings["repcs"] <= timings["umsj"] / 10.0, (
        f"repcs {timings['repcs']:.3f}s vs umsj {timings['umsj']:.3f}s "
        f"(ratio {ratio:.1f}x, need >= 10x)"
    )


@pytest.mark.slow
@pytest.mark.acceptance("08b", "performance: 1000 simulations over 1M citations inside 10 minutes")
def test_performance_thousand_simulations():
    import os

    world = generate(SynthConfig(n_disciplines=4, pubs_per_discipline=26_000,
                                 ref_pool_per_discipline=20_000,
                                 journals_per_discipline=6, refs_mean=10.0, seed=88))
    corpus = world.pool
    assert corpus.n_citations() >= 1_000_000
    workers = min(8, os.cpu_count() or 1)
    start = time.perf_counter()
    sims = run_simulations(corpus, None, SimConfig(n_simulations=1000, master_seed=5,
                                                   workers=workers))
    elapsed = time.perf_counter() - start
    assert len(sims) > 0
    assert elapsed < 600.0, f"1000 simulations took {elapsed:.0f}s with {workers} workers"


@pytest.mark.acceptance("09", "determinism: byte-identical CSVs for workers 1, 4, and 8")
def test_cli_determinism_across_worker_counts(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--disciplines", "2", "--pubs-per-discipline", "60",
                 "--ref-pool", "200", "--seed", "31", "--out", str(data)]) == 0
    corpus_flags = [
        "--pubs", str(data / "D00" / "publications.tsv"),
        "--refs", str(data / "D00" / "references.tsv"),
        "--cites", str(data / "D00" / "citations.tsv"),
    ]
    names = ("observed_pairs.csv", "pair_stats.csv", "classification.csv",
             "hit_report.csv", "kld.csv", "composition.csv")
    outputs = {}
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}"
        assert main(["pipeline", *corpus_flags, "--sims", "40", "--seed", "17",
                     "--workers", str(workers), "--out", str(out)]) == 0
        outputs[workers] = {name: (out / name).read_bytes() for name in names}
    assert outputs[1] == outputs[4] == outputs[8]
    rerun_out = tmp_path / "rerun"
    assert main(["rerun", "--manifest", str(tmp_path / "w1" / "run.manifest"),
                 "--out", str(rerun_out), "--workers", "4"]) == 0
    assert {n: (rerun_out / n).read_bytes() for n in names} == outputs[1]


@pytest.mark.acceptance("10", "K-L units: self-divergence zero, two-bin example 0.20752 bits")
def test_kl_unit_values():
    table = PairTable.from_rows(PairStats(pair, c, None, None, None) for pair, c in {
        JournalPair.of("A", "B"): 7, JournalPair.of("A", "C"): 3,
        JournalPair.of("B", "B"): 11,
    }.items())
    self_sim = PairTable.from_rows(PairStats(ps.pair, 0, float(ps.f_obs), 0.0, None)
                                   for ps in table)
    assert kl_divergence(table, self_sim, None, 1e-12).kld == 0.0
    assert kl_divergence(table, self_sim, None, 0.5).kld == 0.0

    two_bin = PairTable.from_rows(PairStats(pair, c, None, None, None) for pair, c in {
        JournalPair.of("A", "A"): 1, JournalPair.of("A", "B"): 1,
    }.items())
    sim = PairTable.from_rows(PairStats(pair, 0, m, 0.0, None) for pair, m in {
        JournalPair.of("A", "A"): 0.5, JournalPair.of("A", "B"): 1.5}.items())
    got = kl_divergence(two_bin, sim, None, 1e-12).kld
    assert abs(got - 0.20752) < 1e-4
