import pytest

from cocite import export_corpus, ingest, validate_corpus
from cocite.impact import chi2_sf
from cocite.synth import SynthConfig, generate


def intra_fraction(result):
    pool = result.pool
    own = 0
    total = 0
    for pub in pool.publications:
        pub_disc = pub.journal_id[:3].replace("J", "D")
        for rid in pub.refs:
            total += 1
            own += pool.references[rid].subject == pub_disc
    return own / total


def test_generation_is_deterministic():
    cfg = SynthConfig(n_disciplines=2, pubs_per_discipline=50,
                      ref_pool_per_discipline=150, seed=9)
    assert generate(cfg).pool == generate(cfg).pool
    other = SynthConfig(n_disciplines=2, pubs_per_discipline=50,
                        ref_pool_per_discipline=150, seed=10)
    assert generate(other).pool != generate(cfg).pool


def test_p_intra_one_yields_only_intra_citations():
    result = generate(SynthConfig(n_disciplines=3, pubs_per_discipline=40,
                                  ref_pool_per_discipline=150, p_intra=1.0, seed=2))
    assert intra_fraction(result) == 1.0


def test_p_intra_concentrates():
    result = generate(SynthConfig(n_disciplines=4, pubs_per_discipline=320,
                                  ref_pool_per_discipline=900, p_intra=0.9, seed=12))
    assert result.pool.n_citations() >= 10_000
    assert abs(intra_fraction(result) - 0.9) < 0.01


def test_zero_skew_is_uniform_within_pool():
    pool_size = 50
    result = generate(SynthConfig(n_disciplines=1, pubs_per_discipline=1300,
                                  ref_pool_per_discipline=pool_size, skew=0.0,
                                  refs_mean=8.0, seed=14))
    draws = [0] * pool_size
    for pub in result.pool.publications:
        for rid in pub.refs:
            draws[int(rid.split("-")[1])] += 1
    total = sum(draws)
    assert total >= 10_000
    expected = total / pool_size
    stat = sum((d - expected) ** 2 / expected for d in draws)
    assert chi2_sf(stat, pool_size - 1) > 0.01


def test_generated_corpora_pass_validation_with_zero_drops(tmp_path):
    result = generate(SynthConfig(seed=6))
    validate_corpus(result.pool)
    export_corpus(result.pool, tmp_path)
    again = ingest(tmp_path / "publications.tsv", tmp_path / "references.tsv",
                   tmp_path / "citations.tsv")
    assert again.diagnostics.total_dropped() == 0
    assert len(again.publications) == len(result.pool.publications)


def test_refs_are_distinct_and_at_least_two():
    # refs_mean 2 leaves no extra references to draw; dispersion 0 draws them
    # from a Poisson.
    for extra in ({}, {"refs_mean": 2.0}, {"refs_dispersion": 0.0}):
        result = generate(SynthConfig(n_disciplines=2, pubs_per_discipline=200,
                                      ref_pool_per_discipline=400, seed=3, **extra))
        sizes = [len(pub.refs) for pub in result.pool.publications]
        for pub in result.pool.publications:
            assert len(set(pub.refs)) == len(pub.refs)
        assert min(sizes) >= 2
        if extra.get("refs_mean") == 2.0:
            assert set(sizes) == {2}
        else:
            assert abs(sum(sizes) / len(sizes) - 8.0) < 0.6


def test_citation_counts_are_heavy_tailed():
    result = generate(SynthConfig(n_disciplines=1, pubs_per_discipline=2000,
                                  ref_pool_per_discipline=2000, seed=8))
    counts = sorted(p.citations_8yr for p in result.pool.publications)
    assert counts[0] >= 0
    assert counts[-1] > 10 * max(counts[len(counts) // 2], 1)


def test_sub_corpora_partition_pool():
    result = generate(SynthConfig(n_disciplines=3, pubs_per_discipline=[30, 20, 10], seed=4))
    sizes = [len(c.publications) for c in result.by_discipline.values()]
    assert sorted(sizes) == [10, 20, 30]
    all_ids = {p.pub_id for c in result.by_discipline.values() for p in c.publications}
    assert all_ids == {p.pub_id for p in result.pool.publications}
    for sub in result.by_discipline.values():
        validate_corpus(sub)
        for p in sub.publications:
            for rid in p.refs:
                assert rid in sub.references


def test_pool_too_small_is_an_error():
    with pytest.raises(ValueError, match="pool too small"):
        generate(SynthConfig(n_disciplines=1, pubs_per_discipline=5,
                             ref_pool_per_discipline=4, refs_mean=6.0, seed=1))


def test_config_validation():
    with pytest.raises(ValueError, match="p_intra"):
        generate(SynthConfig(p_intra=1.5))
    with pytest.raises(ValueError, match="refs_mean"):
        generate(SynthConfig(refs_mean=1.0))
    with pytest.raises(ValueError, match="per-discipline"):
        generate(SynthConfig(n_disciplines=3, pubs_per_discipline=[10, 20]))
    for field, value, match in [
        ("n_disciplines", 0, "n_disciplines must be at least 1"),
        ("journals_per_discipline", 0, "journals_per_discipline must be at least 1"),
        ("refs_dispersion", -0.1, "refs_dispersion must be non-negative"),
        ("n_ref_years", 0, "n_ref_years must be at least 1"),
        ("ref_pool_per_discipline", [10, 0], "ref_pool_per_discipline entries must be positive"),
    ]:
        with pytest.raises(ValueError, match=match):
            generate(SynthConfig(**{"n_disciplines": 2, field: value}))


def test_reference_years_span_configured_window():
    cfg = SynthConfig(n_disciplines=1, pubs_per_discipline=100,
                      ref_pool_per_discipline=300, n_ref_years=4,
                      slice_year=2000, seed=5)
    result = generate(cfg)
    years = {r.year for r in result.pool.references.values()}
    assert years == {1996, 1997, 1998, 1999}
