"""Synthetic citation corpora with controllable disciplinary structure.

Stands in for licensed bibliographic data: corpora produced here drive
every verification of the pipeline. Each discipline owns a pool of
references and a set of journals; publications cite their own
discipline with probability ``p_intra`` and another discipline
otherwise, choosing references by popularity-skewed sampling without
within-publication replacement. Generation is vectorized and fully
deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Corpus, _codes, _ptr
from .rng import synth_stream

_MAX_REDRAW_ROUNDS = 200
_CITE_LOGNORM_MU = 1.0
_CITE_LOGNORM_SIGMA = 1.2


@dataclass
class SynthConfig:
    n_disciplines: int = 3
    journals_per_discipline: int = 4
    pubs_per_discipline: int | Sequence[int] = 200
    ref_pool_per_discipline: int | Sequence[int] = 800
    refs_mean: float = 8.0
    refs_dispersion: float = 0.3
    p_intra: float = 0.9
    skew: float = 0.5
    slice_year: int = 1995
    n_ref_years: int = 5
    seed: int = 0

    def validate(self) -> None:
        if self.n_disciplines < 1:
            raise ValueError("n_disciplines must be at least 1")
        if self.journals_per_discipline < 1:
            raise ValueError("journals_per_discipline must be at least 1")
        if not 0.0 <= self.p_intra <= 1.0:
            raise ValueError("p_intra must lie in [0, 1]")
        if self.refs_mean < 2.0:
            raise ValueError("refs_mean must be at least 2 (publications need two references)")
        if self.refs_dispersion < 0.0:
            raise ValueError("refs_dispersion must be non-negative")
        if self.n_ref_years < 1:
            raise ValueError("n_ref_years must be at least 1")
        for name in ("pubs_per_discipline", "ref_pool_per_discipline"):
            for v in _per_discipline(getattr(self, name), self.n_disciplines):
                if v < 1:
                    raise ValueError(f"{name} entries must be positive")


@dataclass
class SynthResult:
    pool: Corpus
    by_discipline: dict[str, Corpus]


def _per_discipline(value: int | Sequence[int], n: int) -> list[int]:
    if isinstance(value, int):
        return [value] * n
    values = [int(v) for v in value]
    if len(values) != n:
        raise ValueError(f"expected {n} per-discipline values, got {len(values)}")
    return values


def generate(cfg: SynthConfig) -> SynthResult:
    """Build the pooled corpus and its per-discipline sub-corpora."""
    cfg.validate()
    rng = synth_stream(cfg.seed)
    n_disc = cfg.n_disciplines
    labels = [f"D{d:02d}" for d in range(n_disc)]
    pubs_per = _per_discipline(cfg.pubs_per_discipline, n_disc)
    pool_per = _per_discipline(cfg.ref_pool_per_discipline, n_disc)

    # Reference pools: ids, years, journals, and popularity weights.
    ref_ids: list[str] = []
    ref_year_parts = []
    ref_journal_parts = []  # discipline d's journal k is d * journals_per_discipline + k
    weights: list[np.ndarray] = []
    offsets = np.zeros(n_disc + 1, np.int64)
    for d in range(n_disc):
        size = pool_per[d]
        offsets[d + 1] = offsets[d] + size
        ref_ids.extend(f"R{d:02d}-{i:06d}" for i in range(size))
        ref_year_parts.append(
            cfg.slice_year - rng.integers(1, cfg.n_ref_years + 1, size=size)
        )
        ref_journal_parts.append(
            d * cfg.journals_per_discipline
            + rng.integers(0, cfg.journals_per_discipline, size=size)
        )
        w = (np.arange(size, dtype=np.float64) + 1.0) ** (-cfg.skew)
        weights.append(w / w.sum())
    ref_years = np.concatenate(ref_year_parts)
    ref_journals = np.concatenate(ref_journal_parts)
    total_refs = int(offsets[-1])

    # Publications: discipline, journal, impact, reference count.
    n_pubs = sum(pubs_per)
    pub_disc = np.repeat(np.arange(n_disc, dtype=np.int64), pubs_per)
    pub_ids = [
        f"P{d:02d}-{i:06d}" for d in range(n_disc) for i in range(pubs_per[d])
    ]
    pub_journal_pick = rng.integers(0, cfg.journals_per_discipline, size=n_pubs)
    citations = np.floor(
        rng.lognormal(_CITE_LOGNORM_MU, _CITE_LOGNORM_SIGMA, size=n_pubs)
    ).astype(np.int64)
    extra_mean = cfg.refs_mean - 2.0
    if extra_mean == 0.0:
        extra = np.zeros(n_pubs, np.int64)
    elif cfg.refs_dispersion <= 0.0:
        extra = rng.poisson(extra_mean, size=n_pubs)
    else:
        r = extra_mean / cfg.refs_dispersion
        p = 1.0 / (1.0 + cfg.refs_dispersion)
        extra = rng.negative_binomial(r, p, size=n_pubs)
    n_refs = extra.astype(np.int64) + 2

    reachable = pool_per if (cfg.p_intra >= 1.0 or n_disc == 1) else [total_refs] * n_disc
    for d in range(n_disc):
        limit = reachable[d]
        worst = int(n_refs[pub_disc == d].max()) if (pub_disc == d).any() else 0
        if worst > limit:
            raise ValueError(
                f"reference pool too small: a discipline {labels[d]} publication needs "
                f"{worst} distinct references but only {limit} are reachable"
            )

    # Citations, drawn in vectorized rounds; duplicate references within a
    # publication are redrawn until none remain.
    slot_pub = np.repeat(np.arange(n_pubs, dtype=np.int64), n_refs)
    n_slots = len(slot_pub)
    gref = np.zeros(n_slots, np.int64)
    todo = np.arange(n_slots)
    for _ in range(_MAX_REDRAW_ROUNDS):
        if not len(todo):
            break
        k = len(todo)
        own = pub_disc[slot_pub[todo]]
        if n_disc == 1:
            disc = own
        else:
            pick_own = rng.random(k) < cfg.p_intra
            hop = rng.integers(1, n_disc, size=k)
            disc = np.where(pick_own, own, (own + hop) % n_disc)
        draw = np.zeros(k, np.int64)
        for d in range(n_disc):
            mask = disc == d
            m = int(mask.sum())
            if m:
                draw[mask] = offsets[d] + rng.choice(pool_per[d], size=m, p=weights[d])
        gref[todo] = draw
        code = slot_pub * total_refs + gref
        _, first = np.unique(code, return_index=True)
        keep = np.zeros(n_slots, bool)
        keep[first] = True
        todo = np.nonzero(~keep)[0]
    else:
        raise ValueError(
            "reference pool too small to satisfy refs per publication without replacement"
        )

    # Reference codes follow id order, and journal codes that of the sorted
    # journal table.
    ref_disc = np.searchsorted(offsets, np.arange(total_refs), side="right") - 1
    ref_order = np.array(sorted(range(total_refs), key=ref_ids.__getitem__), np.int64)
    ref_code = np.empty(total_refs, np.int64)
    ref_code[ref_order] = np.arange(total_refs)
    journal_names = [f"J{d:02d}-{k:02d}" for d in range(n_disc)
                     for k in range(cfg.journals_per_discipline)]
    journal_ids = sorted(journal_names)
    journal_code = _codes(journal_names, journal_ids)
    ref_journal = journal_code[ref_journals]
    subject_ids = sorted(labels)
    subject_code = _codes(labels, subject_ids)
    ptr = _ptr(n_refs)
    pool_corpus = Corpus(
        slice_year=cfg.slice_year,
        pub_ids=pub_ids,
        pub_year=np.full(n_pubs, cfg.slice_year, np.int64),
        pub_journal=journal_code[pub_disc * cfg.journals_per_discipline + pub_journal_pick],
        citations_8yr=citations,
        pub_ptr=ptr,
        slot_ref=ref_code[gref],
        ref_ids=[ref_ids[i] for i in ref_order.tolist()],
        ref_year=ref_years[ref_order],
        ref_journal=ref_journal[ref_order],
        ref_subject=subject_code[ref_disc[ref_order]],
        journal_ids=journal_ids,
        subject_ids=subject_ids,
        background_tag="global",
    )
    by_discipline: dict[str, Corpus] = {}
    for d, label in enumerate(labels):
        rows = np.flatnonzero(pub_disc == d)
        slots = pool_corpus.slot_ref[ptr[rows[0]]:ptr[rows[-1] + 1]]
        by_discipline[label] = Corpus.cited_subset(pool_corpus, rows, slots, pool_corpus, "local")
    return SynthResult(pool=pool_corpus, by_discipline=by_discipline)
