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

from .corpus import Corpus, write_columns
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
    distributions. Both totals and the sum of the terms are running sums in
    key order: numpy's accumulate adds one bin after another, so the result
    depends neither on numpy's pairwise summation nor on how a Python
    version's builtin ``sum`` adds floats. ValueError names an epsilon that
    is not finite and positive, or that leaves a padded total or bin ratio
    outside the float range.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, not {epsilon!r}")
    sim = sim_mean.table if isinstance(sim_mean, SimResult) else sim_mean
    journal_ids = None if journal_filter is None else sorted(set(journal_filter))
    _, keys, (obs_rows, obs_at), (sim_rows, sim_at) = union_support(obs, sim, journal_ids)
    n = len(keys)
    if not n:
        raise ValueError("no journal pairs survive the filter; cannot compute divergence")
    p, q = np.full(n, epsilon), np.full(n, epsilon)
    p[obs_at] += obs.f_obs[obs_rows]
    q[sim_at] += sim.f_exp[sim_rows]
    # An overflowing total normalizes every bin to 0, so one ratio check
    # also sees it.
    with np.errstate(all="ignore"):
        p /= np.cumsum(p)[-1]
        q /= np.cumsum(q)[-1]
        ratio = p / q
    if not ((0.0 < ratio) & (ratio < math.inf)).all():
        raise ValueError(f"epsilon {epsilon!r} leaves a padded total or bin ratio "
                         "outside the float range")
    # math.log2, not np.log2, whose last bit differs on some inputs. A bin
    # where p equals q adds +0.0, which leaves the running sum unchanged.
    terms = p * np.fromiter(map(math.log2, ratio.tolist()), np.float64, n)
    kld = float(np.cumsum(terms)[-1])
    # Rounding can leave a tiny negative residue on near-identical inputs.
    return DivergenceResult(corpus_tag, background, max(kld, 0.0), n, epsilon, year)


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
    if before is not idx.corpus and before.pub_ids != idx.c_pub_ids:
        raise ValueError("shuffle outcome was not produced from this corpus")
    o_counts = idx.subject_counts(idx.c_tokens)
    exclude = None if include_deleted else after.deleted_rows
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
    write_columns(path, ("subject", "o", "s", "fold"),
                  zip(*((row.subject, row.o, row.s, row.fold) for row in rows)))


def write_divergence_csv(rows: Sequence[DivergenceResult], path: str | Path,
                         ratio: float | None = None) -> None:
    """One row per background; ``ratio`` fills the last row's ratio field."""
    write_columns(path, ("corpus", "year", "background", "kld", "n_support", "epsilon", "ratio"),
                  zip(*((row.corpus_tag, row.year, row.background, row.kld, row.n_support,
                         row.epsilon, ratio if i == len(rows) - 1 else None)
                        for i, row in enumerate(rows))))
