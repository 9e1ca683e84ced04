"""Array-backed corpus views shared by the shuffling and counting engines."""

from __future__ import annotations

from functools import cache, cached_property
from typing import Iterator

import numpy as np

from .corpus import Corpus, _codes, _ptr

# Dense journal-pair tables are used up to this many cells (n_journals
# squared); larger journal sets fall back to sorted sparse counting.
DENSE_PAIR_LIMIT = 1 << 22

# Duplicate deletion compares same-year slot pairs while there are at most
# this many per analyzed slot, and sorts the tokens by publication beyond.
# Checking one pair was measured to cost as much as sorting 0.9-1.05 slots
# on corpus S, 0.37-0.53 on L8 and 0.33-0.45 on Y1 (README, "How a
# simulation is computed"), so the two break even at 1 to 3 pairs per slot.
PAIRS_PER_SORTED_SLOT = 2


class CorpusIndex:
    """Numeric view of an analyzed corpus inside a substitution pool.

    The pool supplies the reference universe and the citation slots that
    shuffling permutes; the analyzed corpus is the subset of publications
    whose statistics are read back out. For a local background the two
    coincide. Pool slots are numbered publication-major in pool order.

    The pool's per-slot arrays are group-major: year group 0's slots come
    first, then group 1's, each group's in pool-slot order. ``pool_tokens``
    holds the pool's tokens; a shuffle rewrites each group's slice of a
    copy of it in place. ``read_back`` gathers the analyzed slots of such a
    vector in corpus order, at ``readback_pos``: publication by
    publication, bounded by ``c_pub_ptr``, each publication's slots in
    reference order. Every read-back vector, ``c_tokens`` (the corpus's own
    references as pool codes) and ``c_slot_pub`` (each slot's analyzed
    publication row) included, lists the slots in that one order.

    An index keeps three slot vectors of its own: ``pool_tokens``,
    ``readback_pos`` and ``c_slot_pub``. A global one also gathers
    ``c_tokens``; a local one's is ``corpus.slot_ref`` itself, which no
    kernel writes. ``pool_slot_pub`` (for umsj), ``same_year_pairs`` and
    ``_buckets`` are built on first use.
    """

    def __init__(self, corpus: Corpus, pool: Corpus | None = None):
        if pool is None:
            pool = corpus
        self.corpus = corpus
        self.pool = pool
        self.local = pool is corpus

        # The pool's reference table, its journals and subjects ranked among
        # those its references use.
        self.ref_ids = pool.ref_ids
        self.ref_year = pool.ref_year
        used, self.ref_journal = np.unique(pool.ref_journal, return_inverse=True)
        self.journal_ids = [pool.journal_ids[j] for j in used.tolist()]
        used, self.ref_subject = np.unique(pool.ref_subject, return_inverse=True)
        self.subject_ids = [pool.subject_ids[s] for s in used.tolist()]
        self.n_journals = len(self.journal_ids)
        slot_ref = pool.slot_ref

        # Permutation groups: pool slots keyed by reference year, slot order
        # preserved within each group; group g holds the slots in
        # [group_ptr[g], group_ptr[g + 1]).
        slot_year = self.ref_year[slot_ref]
        pool_slot = np.argsort(slot_year, kind="stable")
        yvals, starts = np.unique(slot_year[pool_slot], return_index=True)
        self.group_years = [int(y) for y in yvals]
        self.group_ptr = np.append(starts, len(slot_ref))
        self.pool_tokens = slot_ref[pool_slot]
        if len(self.ref_ids):
            self._year_min = int(self.ref_year.min())
            self._n_year_bins = int(self.ref_year.max()) - self._year_min + 1
        else:
            self._year_min = 0
            self._n_year_bins = 1

        # Analyzed-corpus read-back: ``readback_pos`` is the group-major
        # position of each analyzed slot, in corpus order.
        group_pos = np.empty_like(pool_slot)
        group_pos[pool_slot] = np.arange(len(pool_slot))
        self.readback_pos = group_pos if self.local else group_pos[_pool_slots(corpus, pool)]
        self.c_pub_ids = corpus.pub_ids
        self.c_pub_ptr = corpus.pub_ptr
        self.c_counts = np.diff(self.c_pub_ptr)
        self.c_slot_pub = np.repeat(np.arange(len(self.c_counts)), self.c_counts)
        # A local read-back of the unshuffled tokens is the corpus's own list.
        self.c_tokens = corpus.slot_ref if self.local else self.read_back(self.pool_tokens)
        # Journal pairs of the analyzed corpus, sum of n_i * (n_i - 1) / 2.
        self.n_pairs = int((self.c_counts * (self.c_counts - 1) // 2).sum())

    @property
    def background(self) -> str:
        return "local" if self.local else "global"

    @property
    def index(self) -> "CorpusIndex":
        """The index itself. Kept for perfbench/probe.py, which reads
        ``build_groups(...).index``."""
        return self

    def read_back(self, pool_vector: np.ndarray) -> np.ndarray:
        """The analyzed slots of a group-major per-slot vector, in corpus order."""
        return pool_vector[self.readback_pos]

    # The data below is built on first use, so that building an index costs
    # no more than the groups need.

    @cached_property
    def _buckets(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Per reference count n: the analyzed rows with n references and the
        rows x n matrix of their slots' read-back positions, each row in
        the publication's reference order. Rectangular matrices let pair
        extraction vectorize.
        """
        buckets = []
        for n in np.flatnonzero(np.bincount(self.c_counts)).tolist():
            rows = np.flatnonzero(self.c_counts == n)
            buckets.append((n, rows, self.c_pub_ptr[rows][:, None] + np.arange(n)))
        return buckets

    @cached_property
    def pool_slot_pub(self) -> np.ndarray:
        """The pool publication row of each group-major slot; umsj reads it."""
        pool = self.pool
        slot_pub = np.repeat(np.arange(len(pool.pub_ids), dtype=np.int64), np.diff(pool.pub_ptr))
        return slot_pub[np.argsort(self.ref_year[pool.slot_ref], kind="stable")]

    @cached_property
    def same_year_pairs(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Read-back positions (a, b) of every pair of one publication's
        slots whose references share a year, or None where checking them
        would cost more than sorting the tokens by publication.

        A repeated reference has one year, and repcs moves a token only
        within its year group, so a shuffled publication holds a duplicate
        exactly when one of these pairs holds equal tokens. The pairs are
        sorted by a, so that gathering their tokens walks the vector in order.
        """
        # One key per (publication, year); a stable sort makes each key's
        # slots one run, in reference order. Keys start at 0, above the -1
        # that opens the first run.
        key = self.c_slot_pub * self._n_year_bins
        key += self.ref_year[self.c_tokens]
        key -= self._year_min
        order = np.argsort(key, kind="stable")
        starts = np.flatnonzero(np.diff(key[order], prepend=-1))
        del key
        lengths = np.diff(starts, append=len(self.c_tokens))
        n_pairs = int((lengths * (lengths - 1) // 2).sum())
        if n_pairs > PAIRS_PER_SORTED_SLOT * len(self.c_tokens):
            return None
        a, b = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
        for h in np.flatnonzero(np.bincount(lengths[lengths > 1])).tolist():
            first = starts[lengths == h][:, None]
            iu = _triu(h)
            a.append(order[first + iu[0]].reshape(-1))
            b.append(order[first + iu[1]].reshape(-1))
        # Free the run data and build one extra pair vector at a time;
        # a[by_a] is a sorted.
        del order, starts, lengths
        a = np.concatenate(a)
        b = np.concatenate(b)
        by_a = np.argsort(a, kind="stable")
        b = b[by_a]
        a.sort()
        return a, b

    def duplicate_pub_rows(self, tokens: np.ndarray) -> np.ndarray:
        """Analyzed publication rows whose read-back tokens repeat a reference.

        Compares the ``same_year_pairs`` where there are few of them and
        sorts the tokens by publication otherwise. The pair check is exact
        only for assignments that keep every slot's reference year, which
        every shuffle here does; the sort is exact for any vector.
        """
        if self.same_year_pairs is None:
            return self._duplicates_by_sorting(tokens)
        return self._duplicates_by_pairs(tokens)

    def _duplicates_by_pairs(self, tokens: np.ndarray) -> np.ndarray:
        a, b = self.same_year_pairs
        return np.unique(self.c_slot_pub[a[tokens[a] == tokens[b]]])

    def _duplicates_by_sorting(self, tokens: np.ndarray) -> np.ndarray:
        # One key per (publication, reference): equal neighbours after the
        # sort are a reference that its publication cites twice.
        n_refs = len(self.ref_ids)
        key = self.c_slot_pub * n_refs
        key += tokens
        key.sort()
        return np.unique(key[1:][key[1:] == key[:-1]] // n_refs)

    def bucket_pair_keys(
        self, tokens: np.ndarray, exclude_rows: np.ndarray | None = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each bucket's analyzed rows and their canonical pair-key matrix.

        This is the one place where references expand into journal pairs.
        ``tokens`` is a read-back vector (``c_tokens`` before any shuffle).
        Row i of the matrix holds the n*(n-1)/2 pairs of publication
        rows[i], with multiplicity and self-pairs, each encoded as
        lo * n_journals + hi over journal ranks. Rows in ``exclude_rows``
        are left out, and a bucket with no row left is skipped.
        """
        excl_mask = None
        if exclude_rows is not None and len(exclude_rows):
            excl_mask = np.zeros(len(self.c_pub_ids), bool)
            excl_mask[exclude_rows] = True
        for n, rows, mat in self._buckets:
            if excl_mask is not None:
                keep = ~excl_mask[rows]
                rows, mat = rows[keep], mat[keep]
            if len(rows) == 0:
                continue
            iu = _triu(n)
            j = self.ref_journal[tokens[mat]]
            a, b = j[:, iu[0]], j[:, iu[1]]
            keys = np.minimum(a, b)
            keys *= self.n_journals
            keys += np.maximum(a, b)
            yield rows, keys

    def dense_pairs(self) -> bool:
        """Whether a dense J*J journal-pair table fits ``DENSE_PAIR_LIMIT``;
        pair counts and simulation sums are sorted sparse otherwise."""
        return self.n_journals * self.n_journals <= DENSE_PAIR_LIMIT

    def counts_by_product(self) -> bool:
        """Whether ``pair_key_counts`` takes the journal-product path: the
        dense J*J table fits ``DENSE_PAIR_LIMIT`` and the publication x
        journal count matrix has fewer cells than there are pair instances
        to expand."""
        return self.dense_pairs() and len(self.c_pub_ids) * self.n_journals < self.n_pairs

    def pair_key_counts(
        self, tokens: np.ndarray, exclude_rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unique canonical pair keys and counts of a read-back vector.

        Keys are those of ``bucket_pair_keys``, returned in ascending order.
        On the ``counts_by_product`` path the table is C^T C, where C is
        the publication x journal count matrix: a publication with journal
        counts c adds c_a*c_b to each cross pair and c_a*(c_a-1)/2 to each
        self-pair. C is counted from the vector in one pass, whatever its
        order, straight into float64, and has fewer cells than the keys the
        other path would expand. float64 is exact because no cell or
        partial sum of the product or the column sums can exceed the sum of
        squared reference counts, and ValueError is raised when that sum
        reaches 2^53. Otherwise the expanded keys are counted, in the dense
        table or, past ``DENSE_PAIR_LIMIT``, sorted.
        """
        J = self.n_journals
        n_pubs = len(self.c_pub_ids)
        if not self.counts_by_product():
            parts = [keys.reshape(-1) for _, keys in self.bucket_pair_keys(tokens, exclude_rows)]
            if not parts:
                return np.zeros(0, np.int64), np.zeros(0, np.int64)
            keys = np.concatenate(parts)
            if self.dense_pairs():
                table = np.bincount(keys, minlength=J * J)
                nz = np.flatnonzero(table)
                return nz, table[nz]
            uk, counts = np.unique(keys, return_counts=True)
            return uk, counts.astype(np.int64)

        square_sum = 2 * self.n_pairs + len(self.c_tokens)
        if square_sum >= 1 << 53:
            raise ValueError(
                f"the squared reference counts sum to {square_sum}, past 2^53, where "
                "float64 journal-pair products stop being exact"
            )
        key = self.ref_journal[tokens]
        key += self.c_slot_pub * J
        C = np.bincount(key, np.ones(len(key)), n_pubs * J).reshape(n_pubs, J)
        if exclude_rows is not None:
            C[exclude_rows] = 0
        table = (C.T @ C).astype(np.int64)
        col_sums = (np.ones(n_pubs) @ C).astype(np.int64)
        diag = np.arange(J)
        table[diag, diag] = (table[diag, diag] - col_sums) // 2
        flat = np.triu(table).reshape(-1)
        nz = np.flatnonzero(flat)
        return nz, flat[nz]

    def fixed_points(self, tokens: np.ndarray) -> int:
        """Analyzed-corpus citations that landed back on their original reference."""
        return int((tokens == self.c_tokens).sum())

    def corpus_year_histogram(self, tokens: np.ndarray) -> np.ndarray:
        """Reference-year histogram per analyzed publication, flattened."""
        y = self.ref_year[tokens]
        key = self.c_slot_pub * self._n_year_bins + (y - self._year_min)
        return np.bincount(key, minlength=len(self.c_pub_ids) * self._n_year_bins)

    def subject_counts(
        self, tokens: np.ndarray, exclude_rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Citation counts per subject over analyzed publications."""
        if exclude_rows is not None and len(exclude_rows):
            mask = np.zeros(len(self.c_pub_ids), bool)
            mask[exclude_rows] = True
            tokens = tokens[~mask[self.c_slot_pub]]
        return np.bincount(self.ref_subject[tokens], minlength=len(self.subject_ids))


@cache
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of an n x n
    matrix. Every caller shares the cached arrays and only reads them."""
    return np.triu_indices(n, k=1)


def _pool_slots(corpus: Corpus, pool: Corpus) -> np.ndarray:
    """The pool slot of each corpus slot, in corpus order.

    Raises ValueError for the first publication, in corpus order, that is
    not in the pool, cites other references there (by id, in order), or
    repeats an earlier one's pool row.
    """
    rows = _codes(corpus.pub_ids, pool.pub_ids)
    missing = rows < 0
    # Corpus reference codes as pool codes, -1 where the pool has no such id.
    ref_in_pool = _codes(corpus.ref_ids, pool.ref_ids)
    # Publications with as many references in the pool are compared slot by slot.
    # A missing publication reads the pool's end, whose count of -1 no
    # publication has.
    counts = np.diff(corpus.pub_ptr)
    pool_at = np.where(missing, len(pool.pub_ids), rows)
    same_count = np.append(np.diff(pool.pub_ptr), -1)[pool_at] == counts
    n = np.where(same_count, counts, 0)
    within = np.arange(n.sum()) - np.repeat(_ptr(n)[:-1], n)
    slots = np.repeat(pool.pub_ptr[pool_at], n) + within
    unequal = (pool.slot_ref[slots]
               != ref_in_pool[corpus.slot_ref[np.repeat(corpus.pub_ptr[:-1], n) + within]])
    differs = ~missing & ~same_count
    differs[np.repeat(np.arange(len(rows)), n)[unequal]] = True
    # A stable sort by pool row puts each row's first corpus publication first.
    order = np.argsort(rows, kind="stable")
    repeated = np.zeros(len(rows), bool)
    repeated[order[1:][rows[order[1:]] == rows[order[:-1]]]] = True
    bad = np.flatnonzero(missing | differs | repeated)
    if len(bad):
        i = int(bad[0])
        pid = corpus.pub_ids[i]
        if missing[i]:
            raise ValueError(f"publication {pid!r} is not in the substitution pool")
        if differs[i]:
            raise ValueError(f"publication {pid!r} cites different references in the pool")
        raise ValueError("the corpus lists a publication more than once")
    # Every publication passed the slot comparison, so ``slots`` covers the corpus.
    return slots
