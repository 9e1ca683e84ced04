"""Model-misspecification diagnostics.

Two complementary views of how far a null model drifts from the data it
simulates: Kullback-Leibler divergence between observed and simulated
journal-pair distributions, and per-subject fold differences in the
citation composition before and after a single shuffle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, write_rows
from .pairs import PairTable, union_support
from .shuffle import ShuffleOutcome
from .simulate import SimResult

DEFAULT_EPSILON = 1e-12


@dataclass(frozen=True)
class DivergenceResult:
    corpus_tag: str
    background: str
    kld: float
    n_support: int
    epsilon: float
    year: int | None = None


def kl_divergence(obs: PairTable, sim_mean: SimResult | PairTable,
                  journal_filter: Iterable[str] | None = None,
                  epsilon: float = DEFAULT_EPSILON, *,
                  corpus_tag: str = "", background: str = "",
                  year: int | None = None) -> DivergenceResult:
    """D(observed || simulated) in bits over the filtered union support.

    The observed ``f_obs`` and simulated ``f_exp`` are restricted to pairs
    whose journals are both in ``journal_filter``, padded with ``epsilon``
    on every union-support bin, and normalized to probability
    distributions. Totals and terms are summed one bin at a time in key
    order, so the result does not depend on numpy's summation order.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    sim = sim_mean.table if isinstance(sim_mean, SimResult) else sim_mean
    journal_ids = None if journal_filter is None else sorted(set(journal_filter))
    _, keys, (obs_rows, obs_at), (sim_rows, sim_at) = union_support(obs, sim, journal_ids)
    if not len(keys):
        raise ValueError("no journal pairs survive the filter; cannot compute divergence")
    p, q = np.zeros(len(keys)), np.zeros(len(keys))
    p[obs_at] = obs.f_obs[obs_rows]
    q[sim_at] = sim.f_exp[sim_rows]
    p += epsilon
    q += epsilon
    p /= sum(p.tolist())
    q /= sum(q.tolist())
    kld = 0.0
    for pn, qn in zip(p.tolist(), q.tolist()):
        if pn != qn:
            kld += pn * math.log2(pn / qn)
    # Rounding can leave a tiny negative residue on near-identical inputs.
    return DivergenceResult(corpus_tag, background, max(kld, 0.0), len(keys), epsilon, year)


@dataclass(frozen=True)
class CompositionRow:
    subject: str
    o: int
    s: int
    fold: int


def _fold(o: int, s: int) -> int:
    if o == s:
        return 1
    if o == 0 or s == 0:
        # One-sided null: the zero side counts as 1.
        return max(o, s)
    return round(max(o, s) / min(o, s))


def composition_fold(before: Corpus, after: ShuffleOutcome,
                     subjects: Iterable[str] | None = None,
                     include_deleted: bool = True) -> list[CompositionRow]:
    """Per-subject citation counts before (o) and after (s) one shuffle.

    By default the post-shuffle side counts every slot, including
    publications the error-correction step later deletes; this is the
    composition the shuffle itself produced. Pass include_deleted=False
    to count only surviving publications.
    """
    idx = after.index
    if before is not idx.corpus and [p.pub_id for p in before.publications] != idx.c_pub_ids:
        raise ValueError("shuffle outcome was not produced from this corpus")
    o_counts = idx.subject_counts(idx.c_tokens)
    exclude = None if include_deleted else after._deleted_rows
    s_counts = idx.subject_counts(after._assignment, exclude_rows=exclude)
    known = {
        label: (int(o_counts[i]), int(s_counts[i]))
        for i, label in enumerate(idx.subject_ids)
    }
    labels = sorted(known) if subjects is None else sorted(set(subjects))
    rows = []
    for label in labels:
        o, s = known.get(label, (0, 0))
        rows.append(CompositionRow(label, o, s, _fold(o, s)))
    return rows


def write_composition_csv(rows: Sequence[CompositionRow], path: str | Path) -> None:
    write_rows(path, ("subject", "o", "s", "fold"),
               ((row.subject, row.o, row.s, row.fold) for row in rows))


def write_divergence_csv(rows: Sequence[DivergenceResult], path: str | Path,
                         ratio: float | None = None) -> None:
    """One row per background; ``ratio`` fills the last row's ratio field."""
    write_rows(path, ("corpus", "year", "background", "kld", "n_support", "epsilon", "ratio"),
               ((row.corpus_tag, row.year, row.background, row.kld, row.n_support,
                 row.epsilon, ratio if i == len(rows) - 1 else None)
                for i, row in enumerate(rows)))
