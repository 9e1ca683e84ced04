"""Journal-pair generation and observed co-citation frequencies."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, write_rows
from .indexing import CorpusIndex


class JournalPair(NamedTuple):
    """Canonical unordered pair of journal ids; self-pairs are permitted."""

    a: str
    b: str

    @classmethod
    def of(cls, x: str, y: str) -> "JournalPair":
        return cls(x, y) if x <= y else cls(y, x)


@dataclass
class JournalPairTable:
    """Sparse journal-pair frequency table."""

    counts: Counter = field(default_factory=Counter)

    @property
    def total_pairs(self) -> int:
        return sum(self.counts.values())

    def __getitem__(self, pair: JournalPair) -> int:
        return self.counts.get(pair, 0)

    def __len__(self) -> int:
        return len(self.counts)


def observed_frequencies(corpus: Corpus) -> JournalPairTable:
    """Journal-pair frequencies summed across every publication in the corpus.

    Each publication with n references contributes its n*(n-1)/2 pairs
    as a multiset: two references in the same journal make a self-pair,
    and a repeated journal pair counts each time. Raises ValueError
    naming a publication with fewer than two references or a reference
    without a journal record.
    """
    return index_frequencies(CorpusIndex(corpus))


def index_frequencies(idx: CorpusIndex) -> JournalPairTable:
    """``observed_frequencies`` of the analyzed corpus of an index built before."""
    short = np.flatnonzero(idx.c_counts < 2)
    if len(short):
        raise ValueError(f"publication {idx.c_pub_ids[short[0]]!r} has fewer than two references")
    keys, counts = idx.pair_key_counts(idx.c_tokens)
    return JournalPairTable(Counter({
        JournalPair(*idx.key_to_pair(k)): c for k, c in zip(keys.tolist(), counts.tolist())
    }))


def write_pair_csv(table: JournalPairTable, path: str | Path) -> None:
    write_rows(path, ("journal_a", "journal_b", "frequency"),
               ((*pair, table.counts[pair]) for pair in sorted(table.counts)))
