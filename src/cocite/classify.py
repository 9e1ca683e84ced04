"""Per-publication z-score statistics and novelty/conventionality labels."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, IngestError, Publication, ReferenceRecord, read_rows, write_rows
from .indexing import CorpusIndex
from .pairs import PairStats, PairTable, rekey

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


@dataclass(frozen=True)
class PubSummary:
    """Positional statistics of one publication's pair z-scores."""

    pub_id: str
    z_median: float
    z_p10: float
    z_p1: float
    n_defined_pairs: int
    category: str | None = None


def index_pair_stats(stats: PairTable) -> PairTable:
    """``stats`` itself: a pair table is already indexed by its keys. Kept
    for perfbench/probe.py."""
    return stats


def pub_zstats(pub: Publication, references: Mapping[str, ReferenceRecord],
               stats: PairTable | Iterable[PairStats]) -> PubSummary:
    """``corpus_summaries`` of a corpus holding only ``pub``, given a pair
    table or its rows.

    Raises ValueError when none of the publication's pairs has a defined z.
    """
    if not isinstance(stats, PairTable):
        stats = PairTable.from_rows(stats)
    refs = {r: references[r] for r in pub.refs if r in references}
    summaries, _ = corpus_summaries(Corpus.from_records(pub.year, [pub], refs), stats)
    if not summaries:
        raise ValueError(f"publication {pub.pub_id!r} has no journal pair with a defined z-score")
    return summaries[0]


def corpus_summaries(corpus: Corpus, stats: PairTable) -> tuple[list[PubSummary], int]:
    """Median, 10th and 1st percentile of each publication's pair z-scores.

    Every pair instance counts with its multiplicity; pairs with an
    undefined or unknown z are dropped. Percentiles interpolate linearly
    between closest order statistics. Returns (summaries, excluded), in
    corpus order, where excluded counts the publications left with no
    defined pair, those with fewer than two references included.
    """
    return index_summaries(CorpusIndex(corpus), stats)


def index_summaries(idx: CorpusIndex, stats: PairTable) -> tuple[list[PubSummary], int]:
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
        for c in np.unique(counts[counts > 0]).tolist():
            sel = counts == c
            q[:, rows[sel]] = np.percentile(z[sel, :c], [50.0, 10.0, 1.0], axis=1)
    out = [
        PubSummary(pid, med, p10, p1, n)
        for pid, med, p10, p1, n in zip(idx.c_pub_ids, *q.tolist(), n_defined.tolist())
        if n
    ]
    return out, n_pubs - len(out)


def classify_corpus(summaries: Sequence[PubSummary],
                    cfg: ClassifyConfig = ClassifyConfig()
                    ) -> tuple[list[PubSummary], float]:
    """Label each publication with its 2x2 category.

    Conventionality is high when the publication's median z strictly
    exceeds the corpus median of medians; novelty is high when the
    configured low-tail percentile is strictly negative. Publications
    sitting exactly on a threshold land in the L category. Since a
    multiset's 1st percentile never exceeds its 10th, the 1st-percentile
    criterion is the more permissive one: HN at 10 implies HN at 1.
    """
    if not summaries:
        raise ValueError("no publication summaries to classify")
    threshold = float(np.median(np.asarray([s.z_median for s in summaries])))
    labeled = []
    for s in summaries:
        hc = s.z_median > threshold
        tail = s.z_p10 if cfg.novelty_percentile == 10 else s.z_p1
        hn = tail < 0.0
        labeled.append(PubSummary(s.pub_id, s.z_median, s.z_p10, s.z_p1, s.n_defined_pairs,
                                  ("HN" if hn else "LN") + ("HC" if hc else "LC")))
    return labeled, threshold


def write_summaries_csv(summaries: Sequence[PubSummary], path: str | Path) -> None:
    write_rows(path, CLASSIFICATION_COLUMNS,
               ((s.pub_id, s.z_median, s.z_p10, s.z_p1, s.category, s.n_defined_pairs)
                for s in summaries))


def read_summaries_csv(path: str | Path) -> list[PubSummary]:
    out: list[PubSummary] = []
    for lineno, (pub_id, med, p10, p1, category, n) in read_rows(path, CLASSIFICATION_COLUMNS):
        if category and category not in CATEGORIES:
            raise IngestError(f"{path}:{lineno}: unknown category {category!r}")
        try:
            out.append(PubSummary(pub_id, float(med), float(p10), float(p1), int(n),
                                  category or None))
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from None
    return out
