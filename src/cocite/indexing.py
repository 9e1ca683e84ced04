"""Array-backed corpus views shared by the shuffling and counting engines."""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

import numpy as np

from .corpus import Corpus

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

    Read-back vectors are group-major: year group 0's analyzed slots come
    first, then group 1's, each group's in pool-slot order. A shuffle
    then rewrites each group's slice of the vector in place.
    ``c_slot_index`` holds the pool slot of each position, ``c_tokens``
    the tokens before any shuffle and ``c_slot_pub`` the analyzed
    publication row; ``tokens[corpus_order]`` lists the same slots in
    corpus order, publication by publication, bounded by ``c_pub_ptr``.
    """

    def __init__(self, corpus: Corpus, pool: Corpus | None = None):
        if pool is None:
            pool = corpus
        self.corpus = corpus
        self.pool = pool
        self.local = pool is corpus

        refs = pool.references
        self.ref_ids = sorted(refs)
        ref_index = {r: i for i, r in enumerate(self.ref_ids)}
        n_refs = len(self.ref_ids)
        self.journal_ids = sorted({rec.journal_id for rec in refs.values()})
        self.subject_ids = sorted({rec.subject for rec in refs.values()})
        self.n_journals = len(self.journal_ids)
        jindex = {j: i for i, j in enumerate(self.journal_ids)}
        sindex = {s: i for i, s in enumerate(self.subject_ids)}
        self.ref_year = np.fromiter((refs[r].year for r in self.ref_ids), np.int64, n_refs)
        self.ref_journal = np.fromiter(
            (jindex[refs[r].journal_id] for r in self.ref_ids), np.int64, n_refs
        )
        self.ref_subject = np.fromiter(
            (sindex[refs[r].subject] for r in self.ref_ids), np.int64, n_refs
        )

        self.pool_pub_ids = [p.pub_id for p in pool.publications]
        n_pool = len(self.pool_pub_ids)
        counts = np.fromiter((len(p.refs) for p in pool.publications), np.int64, n_pool)
        self.pool_pub_ptr = np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)])
        try:
            flat = [ref_index[r] for p in pool.publications for r in p.refs]
        except KeyError as exc:
            raise ValueError(f"citation to unknown reference {exc.args[0]!r}") from None
        slot_ref = np.asarray(flat, dtype=np.int64)
        slot_pub = np.repeat(np.arange(n_pool, dtype=np.int64), counts)

        # Permutation groups: pool slots keyed by reference year, slot order
        # preserved within each group. ``pool_tokens`` holds the groups'
        # tokens one group after another, group g in [group_ptr[g], group_ptr[g + 1]).
        slot_year = self.ref_year[slot_ref]
        order = np.argsort(slot_year, kind="stable")
        yvals, starts = np.unique(slot_year[order], return_index=True)
        self.group_years = [int(y) for y in yvals]
        self.group_ptr = np.append(starts, len(order))
        self.pool_tokens = slot_ref[order]
        ptr = self.group_ptr.tolist()
        self.group_slots = [order[lo:hi] for lo, hi in zip(ptr[:-1], ptr[1:])]
        if n_refs:
            self._year_min = int(self.ref_year.min())
            self._n_year_bins = int(self.ref_year.max()) - self._year_min + 1
        else:
            self._year_min = 0
            self._n_year_bins = 1

        # Analyzed-corpus read-back. ``readback_pos`` holds the positions in
        # ``pool_tokens`` of the analyzed slots, or None for a local index,
        # whose read-back vector is ``pool_tokens`` itself.
        self.c_pub_ids = [p.pub_id for p in corpus.publications]
        n_cpubs = len(self.c_pub_ids)
        if self.local:
            self._pool_rows = np.arange(n_pool)
        else:
            pub_row = {pid: i for i, pid in enumerate(self.pool_pub_ids)}
            self._pool_rows = np.empty(n_cpubs, np.intp)
            for i, p in enumerate(corpus.publications):
                r = pub_row.get(p.pub_id)
                if r is None:
                    raise ValueError(
                        f"publication {p.pub_id!r} is not in the substitution pool"
                    )
                if pool.publications[r].refs != p.refs:
                    raise ValueError(
                        f"publication {p.pub_id!r} cites different references in the pool"
                    )
                self._pool_rows[i] = r
        self.c_counts = counts[self._pool_rows]
        self.c_pub_ptr = np.concatenate([np.zeros(1, np.int64), np.cumsum(self.c_counts)])
        if self.local:
            self.readback_pos = None
            self.c_slot_index = order
            self.c_tokens = self.pool_tokens
        else:
            analyzed = np.zeros(len(order), bool)
            corpus_slots = self._corpus_slots()
            analyzed[corpus_slots] = True
            self.readback_pos = np.flatnonzero(analyzed[order])
            if len(self.readback_pos) != len(corpus_slots):
                raise ValueError("the corpus lists a publication more than once")
            self.c_slot_index = order[self.readback_pos]
            self.c_tokens = self.pool_tokens[self.readback_pos]
        row_of_pool = np.empty(n_pool, np.int64)
        row_of_pool[self._pool_rows] = np.arange(n_cpubs)
        self.c_slot_pub = row_of_pool[slot_pub[self.c_slot_index]]
        # Journal pairs of the analyzed corpus, sum of n_i * (n_i - 1) / 2.
        self.n_pairs = int((self.c_counts * (self.c_counts - 1) // 2).sum())
        self._triu: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _corpus_slots(self) -> np.ndarray:
        """Pool slots of the analyzed corpus, in corpus order."""
        shift = self.pool_pub_ptr[self._pool_rows] - self.c_pub_ptr[:-1]
        return np.repeat(shift, self.c_counts) + np.arange(self.c_pub_ptr[-1])

    # The read-back data below is built on first use, so that building an
    # index costs no more than the groups need.

    def _corpus_positions(self) -> np.ndarray:
        where = np.empty(int(self.pool_pub_ptr[-1]), np.intp)
        where[self.c_slot_index] = np.arange(len(self.c_slot_index))
        return where[self._corpus_slots()]

    @cached_property
    def corpus_order(self) -> np.ndarray:
        """Position in a read-back vector of each analyzed slot, in corpus order."""
        return self._corpus_positions()

    @cached_property
    def _buckets(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Per reference count n: the analyzed rows with n references and the
        rows x n matrix of their slots' read-back positions, each row in
        the publication's reference order.

        Rectangular matrices let pair extraction vectorize. The positions
        come from the corpus-order map without keeping it, since pair
        extraction reads only the matrices.
        """
        where = self._corpus_positions()
        buckets = []
        for n in np.unique(self.c_counts).tolist():
            rows = np.flatnonzero(self.c_counts == n)
            mat = where[self.c_pub_ptr[rows][:, None] + np.arange(n)[None, :]]
            buckets.append((n, rows, mat))
        return buckets

    @cached_property
    def _pub_key(self) -> np.ndarray:
        """Each read-back position's row offset, c_slot_pub * n_journals, in
        the flattened publication x journal count matrix."""
        return self.c_slot_pub * self.n_journals

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
        # A publication's slots of one year are adjacent in the group-major
        # vector: one group, in pool-slot order. One key per (publication,
        # year); keys start at 0, above the -1 that opens the first run.
        key = self.c_slot_pub * self._n_year_bins
        key += self.ref_year[self.c_tokens]
        key -= self._year_min
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        del key
        lengths = np.diff(starts, append=len(self.c_tokens))
        n_pairs = int((lengths * (lengths - 1) // 2).sum())
        if n_pairs > PAIRS_PER_SORTED_SLOT * len(self.c_tokens):
            return None
        a, b = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
        for h in np.unique(lengths[lengths > 1]).tolist():
            first = starts[lengths == h][:, None]
            iu = self._triu_of(h)
            a.append((first + iu[0]).reshape(-1))
            b.append((first + iu[1]).reshape(-1))
        a, b = np.concatenate(a), np.concatenate(b)
        by_a = np.argsort(a, kind="stable")
        return a[by_a], b[by_a]

    def _triu_of(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        iu = self._triu.get(n)
        if iu is None:
            iu = self._triu[n] = np.triu_indices(n, k=1)
        return iu

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
            iu = self._triu_of(n)
            j = self.ref_journal[tokens[mat]]
            a, b = j[:, iu[0]], j[:, iu[1]]
            keys = np.minimum(a, b)
            keys *= self.n_journals
            keys += np.maximum(a, b)
            yield rows, keys

    def counts_by_product(self) -> bool:
        """Whether ``pair_key_counts`` takes the journal-product path: the
        dense J*J table fits ``DENSE_PAIR_LIMIT`` and the publication x
        journal count matrix has fewer cells than there are pair instances
        to expand."""
        J = self.n_journals
        return J * J <= DENSE_PAIR_LIMIT and len(self.c_pub_ids) * J < self.n_pairs

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
            if J * J <= DENSE_PAIR_LIMIT:
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
        key = self._pub_key + self.ref_journal[tokens]
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
