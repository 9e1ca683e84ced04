"""The repcs null model against a closed form of its expected pair counts.

Before duplicate deletion, one repcs simulation gives every slot of
reference-year group g a token drawn from the group's tokens: slots in
different groups draw independently, and two slots of one group draw
without replacement. So each journal pair's expected count follows from
the publication x group slot histogram H of the analyzed corpus and each
group's journal counts over the pool's slots, computed here from the
corpus and pool arrays alone, without a ``CorpusIndex`` kernel. The Monte
Carlo mean of ``pair_key_counts`` over the simulations must agree with it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cocite import build_groups
from cocite.corpus import Corpus, Publication, ReferenceRecord
from cocite.shuffle import _permuted_tokens
from cocite.synth import SynthConfig, generate

N_SIMULATIONS = 400


def expected_pair_counts(corpus, pool):
    """Each journal pair's expected count over one repcs permutation of
    ``pool``'s groups (None for a local background), before deletion, as an
    exact fraction keyed by journal names (a, b) with a <= b.

    Group g holds N_g pool slots, n_g(j) of them citing journal j, and
    publication p holds H[p, g] slots of it. Two slots of different groups
    g and h get journals j and k with probability n_g(j) n_h(k) / (N_g N_h);
    two slots of group g with probability
    n_g(j) (n_g(k) - [j = k]) / (N_g (N_g - 1)). The publications hold
    M[g, h] ordered slot pairs across groups g != h, where M = HᵀH, and
    M[g, g] - sum_p H[p, g] within group g.
    """
    pool = corpus if pool is None else pool
    years, pool_group = np.unique(pool.ref_year[pool.slot_ref], return_inverse=True)
    names = np.asarray(pool.journal_ids, object)[pool.ref_journal[pool.slot_ref]]
    journals, pool_journal = np.unique(names, return_inverse=True)
    n = np.zeros((len(years), len(journals)), np.int64)
    np.add.at(n, (pool_group, pool_journal), 1)
    slot_pub = np.repeat(np.arange(len(corpus.pub_ids)), np.diff(corpus.pub_ptr))
    slot_group = np.searchsorted(years, corpus.ref_year[corpus.slot_ref])
    H = np.zeros((len(corpus.pub_ids), len(years)), np.int64)
    np.add.at(H, (slot_pub, slot_group), 1)
    M = H.T @ H
    within = M.diagonal() - H.sum(axis=0)
    N = n.sum(axis=1).tolist()
    E = np.zeros((len(journals), len(journals)), object)
    for g, h in zip(*np.nonzero(M)):
        if g != h:
            E += Fraction(int(M[g, h]), N[g] * N[h]) * np.outer(n[g], n[h]).astype(object)
        elif within[g]:
            both = np.outer(n[g], n[g]) - np.diag(n[g])
            E += Fraction(int(within[g]), N[g] * (N[g] - 1)) * both.astype(object)
    # An unordered pair of distinct journals is one ordered pair of them; a
    # self-pair is two.
    return {(journals[a], journals[b]): E[a, b] if a != b else E[a, a] / 2
            for a in range(len(journals)) for b in range(a, len(journals)) if E[a, b]}


def simulated_pair_sums(idx, seed, n_simulations):
    """Each journal pair's sum and sum of squares of its count over the
    simulations, before deletion, keyed by journal names."""
    s1, s2 = {}, {}
    for s in range(n_simulations):
        keys, counts = idx.pair_key_counts(_permuted_tokens(idx, seed, s))
        for key, c in zip(keys.tolist(), counts.tolist()):
            pair = (idx.journal_ids[key // idx.n_journals], idx.journal_ids[key % idx.n_journals])
            s1[pair] = s1.get(pair, 0) + c
            s2[pair] = s2.get(pair, 0) + c * c
    return s1, s2


def world_with_two_small_years():
    """D00 of a small synthetic world and its pool, both with four more
    publications that cite references of 1980 and 1981 only they cite.

    1980's only journal is J-ONLY, so the pair (J-ONLY, J-ONLY) counts
    C(2, 2) + C(3, 2) = 4 in every simulation. 1981 holds two slots of J-P
    and two of J-Q, cited in pairs, so drawing without replacement shows:
    (J-P, J-P) expects 2 * 2 * 1 / (4 * 3) = 1/3, where drawing with
    replacement would expect 2 * 2 * 2 / (4 * 4) = 1/2.
    """
    world = generate(SynthConfig(n_disciplines=2, journals_per_discipline=3,
                                 pubs_per_discipline=60, ref_pool_per_discipline=120, seed=3))
    corpus, pool = world.by_discipline["D00"], world.pool
    refs = {f"old-{i}": ReferenceRecord(f"old-{i}", 1980, "J-ONLY", "s") for i in range(3)}
    refs.update({f"new-{i}": ReferenceRecord(f"new-{i}", 1981, ("J-P", "J-Q")[i % 2], "s")
                 for i in range(4)})
    cited = corpus.publications[0].refs[0]
    extra = [Publication("edge-1", corpus.slice_year, "J-X", ("old-0", "old-1", cited), 0),
             Publication("edge-2", corpus.slice_year, "J-X", ("old-0", "old-1", "old-2"), 0),
             Publication("edge-3", corpus.slice_year, "J-X", ("new-0", "new-1"), 0),
             Publication("edge-4", corpus.slice_year, "J-X", ("new-2", "new-3"), 0)]
    return [Corpus.from_records(c.slice_year, [*c.publications, *extra], {**c.references, **refs})
            for c in (corpus, pool)]


@pytest.mark.parametrize("background", ["local", "global"])
def test_simulated_pair_means_match_the_closed_form(background):
    corpus, pool = world_with_two_small_years()
    pool = pool if background == "global" else None
    expected = expected_pair_counts(corpus, pool)
    s1, s2 = simulated_pair_sums(build_groups(corpus, pool), 11, N_SIMULATIONS)
    # Every pair with a positive expectation occurs in some simulation of
    # this corpus, so a standard error of zero marks a count that never varies.
    assert set(s1) == set(expected)
    constant = 0
    for pair, e in expected.items():
        n = N_SIMULATIONS
        mean = Fraction(s1[pair], n)
        se = math.sqrt((n * s2[pair] - s1[pair] ** 2) / (n * n * (n - 1)))
        if se == 0:
            assert mean == e, pair
            constant += 1
        else:
            assert abs(float(mean - e)) <= 5 * se, (pair, float(mean), float(e), se)
    assert expected[("J-ONLY", "J-ONLY")] == 4
    assert expected[("J-P", "J-P")] == Fraction(1, 3)
    assert constant >= 1
