"""Citation-switching null models over year-stratified permutation groups.

Two samplers share the same group construction; ``run_shuffle`` names one:

* ``repcs_shuffle`` draws one uniform random permutation of the reference
  tokens within each group (tokens form a multiset, so frequently cited
  references are substituted in proportion to their frequency, and a
  token may land back on its original slot).
* ``umsj_shuffle`` is the sequential baseline: it walks citation slots
  and swaps each with a randomly chosen partner in its group, rejecting
  a swap that would hand either slot its original reference or create a
  duplicate within either publication.

Both outcomes pass one error-correction step, which deletes publications
left holding a reference twice (never one of umsj's). Both preserve, for
every surviving publication, the number of references and the
reference-year histogram. Groups, slot order, and the per (simulation,
group) random streams are fixed, so outcomes are reproducible for any
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .corpus import Corpus
from .indexing import CorpusIndex
from .rng import group_stream

ALGORITHMS = ("repcs", "umsj")
_UMSJ_DRAW_CHUNK = 4096


def build_groups(corpus: Corpus, pool: Corpus | None = None) -> CorpusIndex:
    """The corpus's index, its citation slots grouped by reference year.

    With ``pool=None`` (local background) the groups partition the
    corpus's own citations, which is what preserves its disciplinary
    composition under shuffling. With a pool that is a superset of the
    corpus (global background), groups hold the pool's full citation
    multiset per year; a shuffle permutes the pool's tokens and only the
    corpus's slots are read back. Group g holds reference year
    ``group_years[g]`` and the slots ``group_ptr[g]`` to
    ``group_ptr[g + 1]``, in the order that fixes its random stream.
    """
    if pool is not None and pool is not corpus and pool.slice_year != corpus.slice_year:
        raise ValueError(
            f"pool slice year {pool.slice_year} differs from corpus slice year {corpus.slice_year}"
        )
    return CorpusIndex(corpus, pool)


class ShuffleOutcome:
    """Result of one citation shuffle of an analyzed corpus.

    ``_assignment`` is the read-back vector: the analyzed slots' tokens
    after the shuffle, in corpus order like ``CorpusIndex.c_tokens``. The
    rest is computed on first read: the duplicate-deletion step
    (``deleted_rows``), the fixed points and ``corpus``; composition can
    also be inspected before deletion.
    """

    def __init__(self, index: CorpusIndex, assignment: np.ndarray, retry_exhausted: int = 0):
        self.index = index
        self._assignment = assignment
        self.retry_exhausted = int(retry_exhausted)

    @property
    def background(self) -> str:
        return self.index.background

    @cached_property
    def deleted_rows(self) -> np.ndarray:
        """Rows of the analyzed publications left holding a reference twice."""
        return self.index.duplicate_pub_rows(self._assignment)

    @cached_property
    def deleted_pubs(self) -> list[str]:
        return [self.index.c_pub_ids[r] for r in self.deleted_rows.tolist()]

    @cached_property
    def fixed_points(self) -> int:
        return self.index.fixed_points(self._assignment)

    @cached_property
    def corpus(self) -> Corpus:
        """Shuffled corpus with duplicate-holding publications removed."""
        idx = self.index
        alive = np.ones(len(idx.c_pub_ids), bool)
        alive[self.deleted_rows] = False
        tokens = self._assignment[np.repeat(alive, idx.c_counts)]
        return Corpus.cited_subset(idx.corpus, np.flatnonzero(alive), tokens, idx.pool,
                                   self.background)


def _permuted_tokens(idx: CorpusIndex, master_seed: int, sim_index: int) -> np.ndarray:
    """The read-back vector after one repcs permutation.

    Each group of two or more pool slots shuffles its slice of the pool's
    group-major tokens in place. ``Generator.shuffle`` makes the draws of
    ``permutation(n)`` and leaves the slice equal to ``tokens[perm]``. The
    analyzed slots are then gathered once, in corpus order.
    """
    out = idx.pool_tokens.copy()
    ptr = idx.group_ptr.tolist()
    for gi, (lo, hi) in enumerate(zip(ptr[:-1], ptr[1:])):
        if hi - lo > 1:  # identity is the only permutation of fewer slots
            group_stream(master_seed, sim_index, gi).shuffle(out[lo:hi])
    return idx.read_back(out)


def repcs_shuffle(idx: CorpusIndex, rng_seed: int, *, sim_index: int = 0) -> ShuffleOutcome:
    """Permute tokens within every group; the outcome deletes duplicate holders.

    Deterministic for a given (seed, sim_index); the error-correction
    step only removes publications from the simulated corpus.
    """
    return ShuffleOutcome(idx, _permuted_tokens(idx, rng_seed, sim_index))


def umsj_shuffle(idx: CorpusIndex, rng_seed: int, max_retries: int = 10, *,
                 sim_index: int = 0) -> ShuffleOutcome:
    """Slot-by-slot switching baseline with rejection and bounded retries.

    Each slot draws a partner uniformly among the other slots of its
    group, up to ``max_retries`` times; a slot whose draws are all
    rejected keeps its token and is counted in ``retry_exhausted``.
    Swaps never create duplicates, so the outcome deletes no publication.
    """
    if max_retries < 1:
        raise ValueError("max_retries must be at least 1")
    tokens = idx.pool_tokens.tolist()
    orig = list(tokens)
    slot_pub = idx.pool_slot_pub.tolist()
    held: list[set[int]] = [set() for _ in idx.pool.pub_ids]
    for t, p in zip(tokens, slot_pub):
        held[p].add(t)
    exhausted = 0
    ptr = idx.group_ptr.tolist()
    for gi, (lo, hi) in enumerate(zip(ptr[:-1], ptr[1:])):
        n = hi - lo
        if n < 2:
            exhausted += n  # no partner slot exists
            continue
        rng = group_stream(rng_seed, sim_index, gi)
        buf: list[int] = []
        bpos = 0
        for si in range(lo, hi):
            for _ in range(max_retries):
                if bpos == len(buf):
                    buf = rng.integers(0, n - 1, size=_UMSJ_DRAW_CHUNK).tolist()
                    bpos = 0
                r = buf[bpos]
                bpos += 1
                sj = lo + r
                if sj >= si:
                    sj += 1  # the draw skips slot si itself
                ti = tokens[si]
                tj = tokens[sj]
                if tj == orig[si] or ti == orig[sj]:
                    continue
                pi = slot_pub[si]
                pj = slot_pub[sj]
                if pi != pj and ti != tj:
                    if tj in held[pi] or ti in held[pj]:
                        continue
                    held[pi].discard(ti)
                    held[pi].add(tj)
                    held[pj].discard(tj)
                    held[pj].add(ti)
                tokens[si] = tj
                tokens[sj] = ti
                break
            else:
                exhausted += 1
    return ShuffleOutcome(idx, idx.read_back(np.asarray(tokens, dtype=np.int64)), exhausted)


def run_shuffle(idx: CorpusIndex, algorithm: str, seed: int, max_retries: int = 10, *,
                sim_index: int = 0) -> ShuffleOutcome:
    """Simulation ``sim_index`` of ``algorithm``; ValueError unless it is in ``ALGORITHMS``."""
    if algorithm == "repcs":
        return repcs_shuffle(idx, seed, sim_index=sim_index)
    if algorithm == "umsj":
        return umsj_shuffle(idx, seed, max_retries, sim_index=sim_index)
    raise ValueError(f"unknown algorithm {algorithm!r}; choose from {', '.join(ALGORITHMS)}")


@dataclass(frozen=True)
class PreservationReport:
    """Structural deltas between a corpus and one shuffle of it."""

    n_publications: int
    n_surviving: int
    deleted_count: int
    publication_delta: int
    pubs_with_refcount_delta: int
    pubs_with_year_histogram_delta: int

    @property
    def all_preserved(self) -> bool:
        return (
            self.pubs_with_refcount_delta == 0
            and self.pubs_with_year_histogram_delta == 0
            and self.publication_delta == self.deleted_count
        )


def preservation_report(before: Corpus, after: ShuffleOutcome) -> PreservationReport:
    """Check the counts the null model is required to hold fixed.

    For every surviving publication the reference count and the
    reference-year histogram must be unchanged; the publication count may
    only drop by the number of deleted publications.
    """
    idx = after.index
    if before is not idx.corpus and before.pub_ids != idx.c_pub_ids:
        raise ValueError("shuffle outcome was not produced from this corpus")
    n_pubs = len(idx.c_pub_ids)
    ny = idx._n_year_bins
    hist_before = idx.corpus_year_histogram(idx.c_tokens).reshape(n_pubs, ny)
    hist_after = idx.corpus_year_histogram(after._assignment).reshape(n_pubs, ny)
    surviving = np.ones(n_pubs, bool)
    surviving[after.deleted_rows] = False
    delta = hist_after[surviving] - hist_before[surviving]
    year_bad = int((delta != 0).any(axis=1).sum())
    refcount_bad = int((delta.sum(axis=1) != 0).sum())
    n_surviving = int(surviving.sum())
    return PreservationReport(
        n_publications=n_pubs,
        n_surviving=n_surviving,
        deleted_count=len(after.deleted_rows),
        publication_delta=n_pubs - n_surviving,
        pubs_with_refcount_delta=refcount_bad,
        pubs_with_year_histogram_delta=year_bad,
    )
