"""Per-publication z-score statistics and novelty/conventionality labels."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import Corpus, read_columns, write_columns
from .indexing import CorpusIndex
from .pairs import PairTable, rekey

CATEGORIES = ("LNLC", "LNHC", "HNLC", "HNHC")
NOVELTY_PERCENTILES = (10, 1)
# Header of classification.csv, shared by its writer and reader.
CLASSIFICATION_COLUMNS = ("pub_id", "z_median", "z_p10", "z_p1", "category", "n_defined_pairs")


@dataclass(frozen=True)
class ClassifyConfig:
    novelty_percentile: int = 10

    def __post_init__(self):
        if self.novelty_percentile not in NOVELTY_PERCENTILES:
            raise ValueError(
                f"novelty_percentile must be one of {NOVELTY_PERCENTILES}, "
                f"got {self.novelty_percentile!r}"
            )


@dataclass(eq=False)
class PubTable:
    """Per-publication z statistics, one row per publication with a
    defined pair, in corpus order: the ids ``pub_ids`` and aligned columns
    ``z_median``, ``z_p10``, ``z_p1`` (float64), ``n_defined_pairs`` and
    ``category`` (int64). A category is a position in ``CATEGORIES``,
    2 * HN + HC, or -1 before the row is labeled."""

    pub_ids: list[str]
    z_median: np.ndarray
    z_p10: np.ndarray
    z_p1: np.ndarray
    n_defined_pairs: np.ndarray
    category: np.ndarray

    def __len__(self) -> int:
        return len(self.pub_ids)

    def labels(self) -> list[str | None]:
        """The category name of each row, None where it is unlabeled."""
        return np.array([*CATEGORIES, None], dtype=object)[self.category].tolist()


def index_pair_stats(stats: PairTable) -> PairTable:
    """``stats`` itself: a pair table is already indexed by its keys. Kept
    for perfbench/probe.py."""
    return stats


def corpus_summaries(corpus: Corpus, stats: PairTable) -> tuple[PubTable, int]:
    """Median, 10th and 1st percentile of each publication's pair z-scores.

    Every pair instance counts with its multiplicity; pairs with an
    undefined or unknown z are dropped. Percentiles interpolate linearly
    between closest order statistics. Returns (table, excluded): the
    unlabeled table of the publications with a defined pair, in corpus
    order, and the number left with none, those with fewer than two
    references included.
    """
    return index_summaries(CorpusIndex(corpus), stats)


def index_summaries(idx: CorpusIndex, stats: PairTable) -> tuple[PubTable, int]:
    """``corpus_summaries`` of the analyzed corpus of an index built before."""
    rows, keys = rekey(stats, idx.journal_ids)
    zs = stats.z[rows]
    defined = ~np.isnan(zs)
    # Defined z-scores in key order, ending in a sentinel key above every
    # pair key so that searchsorted always lands inside the array.
    keys = np.append(keys[defined], idx.n_journals ** 2)
    zs = np.append(zs[defined], np.nan)
    n_pubs = len(idx.c_pub_ids)
    q = np.zeros((3, n_pubs))
    n_defined = np.zeros(n_pubs, np.int64)
    for rows, pair_keys in idx.bucket_pair_keys(idx.c_tokens):
        pos = np.searchsorted(keys, pair_keys)
        hit = keys[pos] == pair_keys
        z = np.where(hit, zs[pos], np.nan)
        z.sort(axis=1)
        counts = hit.sum(axis=1)
        n_defined[rows] = counts
        # Sorting puts NaN last, so rows with c defined pairs hold them in [:c].
        for c in np.flatnonzero(np.bincount(counts[counts > 0])).tolist():
            sel = counts == c
            q[:, rows[sel]] = np.percentile(z[sel, :c], [50.0, 10.0, 1.0], axis=1)
    kept = np.flatnonzero(n_defined)
    pub_ids = np.array(idx.c_pub_ids, dtype=object)[kept].tolist()
    table = PubTable(pub_ids, *q[:, kept], n_defined[kept], np.full(len(kept), -1, np.int64))
    return table, n_pubs - len(kept)


def classify_corpus(table: PubTable, cfg: ClassifyConfig = ClassifyConfig()
                    ) -> tuple[PubTable, float]:
    """The table with each publication's 2x2 category, and the threshold.

    Conventionality is high when the publication's median z strictly
    exceeds the corpus median of medians; novelty is high when the
    configured low-tail percentile is strictly negative. Publications
    sitting exactly on a threshold land in the L category. Since a
    multiset's 1st percentile never exceeds its 10th, the 1st-percentile
    criterion is the more permissive one: HN at 10 implies HN at 1.
    """
    if not len(table):
        raise ValueError("no publication summaries to classify")
    threshold = float(np.median(table.z_median))
    tail = table.z_p10 if cfg.novelty_percentile == 10 else table.z_p1
    category = 2 * (tail < 0.0) + (table.z_median > threshold)
    return replace(table, category=category), threshold


def write_summaries_csv(table: PubTable, path: str | Path) -> None:
    """Write ``table`` as classification.csv."""
    write_columns(path, CLASSIFICATION_COLUMNS,
                  (table.pub_ids, table.z_median, table.z_p10, table.z_p1, table.labels(),
                   table.n_defined_pairs))


def read_summaries_csv(path: str | Path) -> PubTable:
    """The table of a classification.csv. Raises IngestError naming the
    line of a malformed row, of an unknown category and of a ``pub_id``
    that an earlier row already gave."""
    labels = {label: code for code, label in enumerate(("", *CATEGORIES))}
    kinds = (str, float, float, float, labels, int)
    _, _, (pub_ids, *zs, label, n_defined) = read_columns(
        path, CLASSIFICATION_COLUMNS, kinds, ",", _known_category)
    return PubTable(pub_ids, *zs, n_defined, label - 1)


def _known_category(fields: list[list[str]], typed: list):
    return typed[4] > len(CATEGORIES), lambda i: f"unknown category {fields[4][i]!r}"
