"""Journal-pair tables, from observed co-citation frequencies to z-scores."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, write_rows
from .indexing import CorpusIndex

COLUMNS = ("f_obs", "f_exp", "sigma", "z")


class JournalPair(NamedTuple):
    """Canonical unordered pair of journal ids; self-pairs are permitted."""

    a: str
    b: str

    @classmethod
    def of(cls, x: str, y: str) -> "JournalPair":
        return cls(x, y) if x <= y else cls(y, x)


@dataclass(frozen=True)
class PairStats:
    """One row of a ``PairTable``; a column it lacks and an undefined z read None."""

    pair: JournalPair
    f_obs: int | None
    f_exp: float | None
    sigma: float | None
    z: float | None


class PairRowError(ValueError):
    """A row ``PairTable.from_columns`` refuses; ``row`` is its input position."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


@dataclass(eq=False)
class PairTable:
    """Journal-pair statistics, one row per pair in ascending key order.

    Journal ranks lo <= hi in the sorted ``journal_ids`` (J of them) make
    key ``lo * J + hi``, so key order is (journal_a, journal_b) order. A
    column aligned with ``keys`` is None where the table's stage does not
    compute it: ``f_obs`` (int64), ``f_exp``, ``sigma`` and ``z`` (float64,
    NaN where undefined)."""

    journal_ids: list[str]
    keys: np.ndarray
    f_obs: np.ndarray | None = None
    f_exp: np.ndarray | None = None
    sigma: np.ndarray | None = None
    z: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def total_pairs(self) -> int:
        return int(self.f_obs.sum())

    def row_values(self, *columns: str) -> Iterator[tuple]:
        """(journal_a, journal_b, *columns) of each row as Python scalars;
        a missing column and an undefined z read None."""
        ids = np.array(self.journal_ids, dtype=object)
        lo, hi = np.divmod(self.keys, max(len(self.journal_ids), 1))
        lists = [ids[lo].tolist(), ids[hi].tolist()]
        for name in columns:
            values = getattr(self, name)
            if values is None:
                lists.append([None] * len(self))
            elif name == "z":
                z = values.astype(object)
                z[np.isnan(values)] = None
                lists.append(z.tolist())
            else:
                lists.append(values.tolist())
        return zip(*lists)

    def __iter__(self) -> Iterator[PairStats]:
        for a, b, *values in self.row_values(*COLUMNS):
            yield PairStats(JournalPair(a, b), *values)

    @classmethod
    def from_rows(cls, rows: Iterable[PairStats]) -> "PairTable":
        """The table of ``rows``, in any order, as ``from_columns`` builds it."""
        rows = list(rows)
        return cls.from_columns([ps.pair.a for ps in rows], [ps.pair.b for ps in rows],
                                *([getattr(ps, name) for ps in rows] for name in COLUMNS))

    @classmethod
    def from_columns(cls, a: Sequence[str], b: Sequence[str], *columns: Sequence) -> "PairTable":
        """The table whose row i is the pair (a[i], b[i]) with the i-th value
        of each of ``COLUMNS``, rows in any order, over the journals they
        name; a None float reads NaN. Raises PairRowError on a pair whose
        journals are out of order or that an earlier row already gave."""
        journal_ids = sorted(set(a).union(b))
        rank = {j: i for i, j in enumerate(journal_ids)}
        lo = np.fromiter(map(rank.__getitem__, a), np.int64, len(a))
        hi = np.fromiter(map(rank.__getitem__, b), np.int64, len(b))
        reversed_rows = np.flatnonzero(lo > hi)
        if len(reversed_rows):
            i = int(reversed_rows[0])
            raise PairRowError(i, f"journal pair {(a[i], b[i])} is not in journal_a <= journal_b "
                                  "order")
        keys = lo * len(rank) + hi
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if len(repeated):
            i = int(order[repeated[0] + 1])
            raise PairRowError(i, f"journal pair {(a[i], b[i])} is given twice")
        return cls(journal_ids, keys, *(
            np.asarray(values, dtype)[order]
            for values, dtype in zip(columns, (np.int64, np.float64, np.float64, np.float64))))


def rekey(table: PairTable, journal_ids: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``table`` whose journals are both in the sorted
    ``journal_ids``, and their keys over that list, still ascending. Keys
    over two journal lists never meet: two tables are re-keyed onto one."""
    if table.journal_ids == journal_ids:
        return np.arange(len(table)), table.keys
    rank = {j: i for i, j in enumerate(journal_ids)}
    new_rank = np.array([rank.get(j, -1) for j in table.journal_ids], np.int64)
    lo, hi = (new_rank[k] for k in np.divmod(table.keys, max(len(table.journal_ids), 1)))
    rows = np.flatnonzero((lo >= 0) & (hi >= 0))
    return rows, lo[rows] * len(journal_ids) + hi[rows]


def union_support(a: PairTable, b: PairTable, journal_ids: list[str] | None = None) -> tuple:
    """(journal_ids, keys, (rows_a, at_a), (rows_b, at_b)): the union of
    both tables' keys over ``journal_ids`` (by default the union of their
    journals) and, per table, the rows re-keyed onto it and their positions
    in it."""
    if journal_ids is None:
        journal_ids = a.journal_ids if a.journal_ids == b.journal_ids else sorted(
            set(a.journal_ids) | set(b.journal_ids))
    (rows_a, keys_a), (rows_b, keys_b) = rekey(a, journal_ids), rekey(b, journal_ids)
    # A stable sort merges the two ascending runs in one pass.
    keys = np.sort(np.concatenate([keys_a, keys_b]), kind="stable")
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return (journal_ids, keys, (rows_a, np.searchsorted(keys, keys_a)),
            (rows_b, np.searchsorted(keys, keys_b)))


def observed_frequencies(corpus: Corpus) -> PairTable:
    """Journal-pair frequencies summed across every publication in the corpus.

    Each publication with n references contributes its n*(n-1)/2 pairs
    as a multiset: two references in the same journal make a self-pair,
    and a repeated journal pair counts each time. Raises ValueError
    naming a publication with fewer than two references or a reference
    without a journal record.
    """
    return index_frequencies(CorpusIndex(corpus))


def index_frequencies(idx: CorpusIndex) -> PairTable:
    """``observed_frequencies`` of the analyzed corpus of an index built before."""
    short = np.flatnonzero(idx.c_counts < 2)
    if len(short):
        raise ValueError(f"publication {idx.c_pub_ids[short[0]]!r} has fewer than two references")
    keys, counts = idx.pair_key_counts(idx.c_tokens)
    return PairTable(idx.journal_ids, keys, f_obs=counts)


def write_pair_csv(table: PairTable, path: str | Path) -> None:
    write_rows(path, ("journal_a", "journal_b", "frequency"), table.row_values("f_obs"))
