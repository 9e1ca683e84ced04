"""Citation-switching null models over year-stratified permutation groups.

Two samplers share the same group construction:

* ``repcs_shuffle`` draws one uniform random permutation of the reference
  tokens within each group (tokens form a multiset, so frequently cited
  references are substituted in proportion to their frequency, and a
  token may land back on its original slot), then deletes any
  publication left holding a duplicate reference.
* ``umsj_shuffle`` is the sequential baseline: it walks citation slots
  and swaps each with a randomly chosen partner in its group, rejecting
  a swap that would hand either slot its original reference or create a
  duplicate within either publication.

Both preserve, for every surviving publication, the number of references
and the reference-year histogram. Groups, slot order, and the per
(simulation, group) random streams are fixed, so outcomes are
reproducible for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
import numpy as np

from .corpus import Corpus
from .indexing import CorpusIndex
from .rng import group_stream

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
    after the shuffle, group-major like ``CorpusIndex.c_tokens`` (for a
    local background, every slot). ``corpus`` materializes lazily, reading
    the vector in corpus order through ``CorpusIndex.corpus_order``; the
    reporting helpers read the vector itself, so that composition can also
    be inspected before the duplicate-deletion step.
    """

    def __init__(self, index: CorpusIndex, assignment: np.ndarray, deleted_rows: np.ndarray,
                 fixed_points: int, retry_exhausted: int = 0):
        self.index = index
        self._assignment = assignment
        self._deleted_rows = deleted_rows
        self.fixed_points = int(fixed_points)
        self.retry_exhausted = int(retry_exhausted)
        self.deleted_pubs = [index.c_pub_ids[r] for r in deleted_rows.tolist()]

    @property
    def background(self) -> str:
        return self.index.background

    @cached_property
    def corpus(self) -> Corpus:
        """Shuffled corpus with duplicate-holding publications removed."""
        idx = self.index
        deleted = set(self._deleted_rows.tolist())
        tokens = self._assignment[idx.corpus_order].tolist()
        pubs = []
        for row, pub in enumerate(idx.corpus.publications):
            if row in deleted:
                continue
            lo, hi = idx.c_pub_ptr[row], idx.c_pub_ptr[row + 1]
            refs = tuple(idx.ref_ids[t] for t in tokens[lo:hi])
            pubs.append(replace(pub, refs=refs))
        cited = {rid for p in pubs for rid in p.refs}
        references = {rid: idx.pool.references[rid] for rid in sorted(cited)}
        return Corpus(
            slice_year=idx.corpus.slice_year,
            publications=pubs,
            references=references,
            background_tag=self.background,
        )


def _permuted_tokens(idx: CorpusIndex, master_seed: int, sim_index: int) -> np.ndarray:
    """The read-back vector after one repcs permutation.

    Each group of two or more pool slots shuffles its slice of the pool's
    group-major tokens in place. ``Generator.shuffle`` makes the draws of
    ``permutation(n)`` and leaves the slice equal to ``tokens[perm]``. A
    global background then gathers its analyzed slots once.
    """
    out = idx.pool_tokens.copy()
    ptr = idx.group_ptr.tolist()
    for gi, (lo, hi) in enumerate(zip(ptr[:-1], ptr[1:])):
        if hi - lo > 1:  # identity is the only permutation of fewer slots
            group_stream(master_seed, sim_index, gi).shuffle(out[lo:hi])
    return idx.read_back(out)


def repcs_shuffle(idx: CorpusIndex, rng_seed: int, *, sim_index: int = 0) -> ShuffleOutcome:
    """Permute tokens within every group, then delete duplicate-holding pubs.

    Deterministic for a given (seed, sim_index); the error-correction
    step only removes publications from the simulated corpus.
    """
    tokens = _permuted_tokens(idx, rng_seed, sim_index)
    return ShuffleOutcome(idx, tokens, idx.duplicate_pub_rows(tokens), idx.fixed_points(tokens))


def umsj_shuffle(idx: CorpusIndex, rng_seed: int, max_retries: int = 10, *,
                 sim_index: int = 0) -> ShuffleOutcome:
    """Slot-by-slot switching baseline with rejection and bounded retries.

    Each slot draws a partner uniformly among the other slots of its
    group, up to ``max_retries`` times; a slot whose draws are all
    rejected keeps its token and is counted in ``retry_exhausted``.
    Swaps never create duplicates, so no publications are deleted.
    """
    if max_retries < 1:
        raise ValueError("max_retries must be at least 1")
    tokens = idx.pool_tokens.tolist()
    orig = list(tokens)
    slot_pub = idx.pool_slot_pub.tolist()
    held: list[set[int]] = [set() for _ in idx.pool.publications]
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
    assignment = idx.read_back(np.asarray(tokens, dtype=np.int64))
    return ShuffleOutcome(
        idx,
        assignment,
        np.zeros(0, np.int64),
        idx.fixed_points(assignment),
        retry_exhausted=exhausted,
    )


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
    if before is not idx.corpus and [p.pub_id for p in before.publications] != idx.c_pub_ids:
        raise ValueError("shuffle outcome was not produced from this corpus")
    n_pubs = len(idx.c_pub_ids)
    ny = idx._n_year_bins
    hist_before = idx.corpus_year_histogram(idx.c_tokens).reshape(n_pubs, ny)
    hist_after = idx.corpus_year_histogram(after._assignment).reshape(n_pubs, ny)
    surviving = np.ones(n_pubs, bool)
    surviving[after._deleted_rows] = False
    delta = hist_after[surviving] - hist_before[surviving]
    year_bad = int((delta != 0).any(axis=1).sum())
    refcount_bad = int((delta.sum(axis=1) != 0).sum())
    n_surviving = int(surviving.sum())
    return PreservationReport(
        n_publications=n_pubs,
        n_surviving=n_surviving,
        deleted_count=len(after.deleted_pubs),
        publication_delta=n_pubs - n_surviving,
        pubs_with_refcount_delta=refcount_bad,
        pubs_with_year_histogram_delta=year_bad,
    )
