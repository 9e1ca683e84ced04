"""Monte Carlo expected frequencies, z-scores, and background comparisons.

``run_simulations`` repeats the configured shuffle N times and streams
each simulation's journal-pair table into integer (sum, sum of squares)
accumulators, so memory stays bounded by the pair support rather than
growing with N. Integer accumulation is exact, which makes the aggregated
mean and standard deviation independent of worker count and merge order
by construction.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import time
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus
from .indexing import DENSE_PAIR_LIMIT
from .pairs import JournalPair, JournalPairTable
from .shuffle import GroupPlan, build_groups, umsj_shuffle, _permuted_assignment

ALGORITHMS = ("repcs", "umsj")
BACKGROUNDS = ("local", "global")


class WorkerError(RuntimeError):
    """A forked simulation worker died before returning its range."""


@dataclass
class SimConfig:
    n_simulations: int = 1000
    master_seed: int = 0
    background: str = "local"
    algorithm: str = "repcs"
    workers: int = 1
    umsj_max_retries: int = 10

    def validate(self) -> None:
        if self.n_simulations < 2:
            raise ValueError("n_simulations must be at least 2 (sigma is undefined otherwise)")
        if self.background not in BACKGROUNDS:
            raise ValueError(f"background must be one of {BACKGROUNDS}, got {self.background!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")


@dataclass(frozen=True)
class PairStats:
    """Observed frequency, simulated mean/sigma, and z-score of one pair.

    ``z`` is None when sigma is zero; such pairs are excluded from
    per-publication statistics downstream.
    """

    pair: JournalPair
    f_obs: int
    f_exp: float
    sigma: float
    z: float | None


class _DenseAccumulator:
    def __init__(self, n_cells: int):
        self.s1 = np.zeros(n_cells, np.int64)
        self.s2 = np.zeros(n_cells, np.int64)

    def add(self, keys: np.ndarray, counts: np.ndarray) -> None:
        self.s1[keys] += counts
        self.s2[keys] += counts * counts

    def merge(self, other: "_DenseAccumulator") -> None:
        self.s1 += other.s1
        self.s2 += other.s2

    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        keys = np.nonzero(self.s1)[0]
        return keys, self.s1[keys], self.s2[keys]


class _SparseAccumulator:
    """Sorted-key accumulator for journal sets too large for dense tables."""

    _COMPACT_AT = 1 << 22

    def __init__(self):
        self.keys = np.zeros(0, np.int64)
        self.s1 = np.zeros(0, np.int64)
        self.s2 = np.zeros(0, np.int64)
        self._pend_keys: list[np.ndarray] = []
        self._pend_s1: list[np.ndarray] = []
        self._pend_s2: list[np.ndarray] = []
        self._pending = 0

    def add(self, keys: np.ndarray, counts: np.ndarray) -> None:
        self._pend_keys.append(keys)
        self._pend_s1.append(counts)
        self._pend_s2.append(counts * counts)
        self._pending += len(keys)
        if self._pending >= self._COMPACT_AT:
            self._compact()

    def _compact(self) -> None:
        if not self._pending:
            return
        all_keys = np.concatenate([self.keys] + self._pend_keys)
        all_s1 = np.concatenate([self.s1] + self._pend_s1)
        all_s2 = np.concatenate([self.s2] + self._pend_s2)
        uk, inv = np.unique(all_keys, return_inverse=True)
        s1 = np.zeros(len(uk), np.int64)
        s2 = np.zeros(len(uk), np.int64)
        np.add.at(s1, inv, all_s1)
        np.add.at(s2, inv, all_s2)
        self.keys, self.s1, self.s2 = uk, s1, s2
        self._pend_keys, self._pend_s1, self._pend_s2 = [], [], []
        self._pending = 0

    def merge(self, other: "_SparseAccumulator") -> None:
        other._compact()
        self._pend_keys.append(other.keys)
        self._pend_s1.append(other.s1)
        self._pend_s2.append(other.s2)
        self._pending += len(other.keys)
        self._compact()

    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        self._compact()
        return self.keys, self.s1, self.s2


def _make_accumulator(n_journals: int):
    n_cells = n_journals * n_journals
    if n_cells <= DENSE_PAIR_LIMIT:
        return _DenseAccumulator(n_cells)
    return _SparseAccumulator()


def pair_mean_sigma(freq_sum: int, freq_sq_sum: int, n_simulations: int) -> tuple[float, float]:
    """Mean and population sigma from exact integer accumulators.

    Absent-in-simulation frequencies count as zero, which the sums encode
    already. n*s2 - s1^2 is computed in Python integers, so it is exact
    and never negative.
    """
    mean = freq_sum / n_simulations
    sigma = math.sqrt(n_simulations * freq_sq_sum - freq_sum * freq_sum) / n_simulations
    return mean, sigma


def _run_sim_range(plan: GroupPlan, cfg: SimConfig, lo: int, hi: int):
    idx = plan.index
    acc = _make_accumulator(idx.n_journals)
    deleted_per_sim: list[int] = []
    pairs_per_sim: list[int] = []
    retry_exhausted = 0
    for s in range(lo, hi):
        if cfg.algorithm == "repcs":
            assignment = _permuted_assignment(plan, cfg.master_seed, s)
            deleted = idx.duplicate_pub_rows(assignment)
        else:
            outcome = umsj_shuffle(
                plan, cfg.master_seed, cfg.umsj_max_retries, sim_index=s
            )
            assignment = outcome._assignment
            deleted = outcome._deleted_rows
            retry_exhausted += outcome.retry_exhausted
        keys, counts = idx.pair_key_counts(assignment, exclude_rows=deleted)
        acc.add(keys, counts)
        deleted_per_sim.append(int(len(deleted)))
        pairs_per_sim.append(int(counts.sum()))
    return acc, deleted_per_sim, pairs_per_sim, retry_exhausted


# Plan shared with forked workers; set in the parent right before the
# pool is created so children inherit it without pickling.
_FORK_STATE: tuple[GroupPlan, SimConfig] | None = None


def _forked_range(bounds: tuple[int, int]):
    plan, cfg = _FORK_STATE
    return _run_sim_range(plan, cfg, bounds[0], bounds[1])


class SimResult(Mapping):
    """Mapping from journal pair to (mean, sigma) over all simulations.

    Pairs absent from a simulation count as frequency zero. Extra
    attributes carry run provenance and per-simulation diagnostics.
    """

    def __init__(self, stats: dict[JournalPair, tuple[float, float]], cfg: SimConfig,
                 per_sim_deleted: list[int], per_sim_total_pairs: list[int],
                 retry_exhausted_total: int = 0):
        self._stats = stats
        self.n_simulations = cfg.n_simulations
        self.algorithm = cfg.algorithm
        self.background = cfg.background
        self.master_seed = cfg.master_seed
        self.per_sim_deleted = per_sim_deleted
        self.per_sim_total_pairs = per_sim_total_pairs
        self.retry_exhausted_total = retry_exhausted_total

    def __getitem__(self, pair):
        return self._stats[pair]

    def __iter__(self):
        return iter(self._stats)

    def __len__(self):
        return len(self._stats)


def run_simulations(corpus: Corpus, pool: Corpus | None, cfg: SimConfig) -> SimResult:
    """Mean and population sigma of every pair's frequency over N shuffles.

    Deterministic for a given master seed: per-simulation streams are
    derived by simulation index and integer accumulators commute, so any
    worker count yields bit-identical statistics.

    Raises ValueError before the first simulation when N times the square
    of the corpus's pairs per simulation could overflow the int64 sum of
    squares, and WorkerError when a forked worker dies mid-range.
    """
    cfg.validate()
    if cfg.background == "global":
        if pool is None:
            raise ValueError("global background requires a substitution pool corpus")
        plan = build_groups(corpus, pool)
    else:
        plan = build_groups(corpus, pool if pool is not None and pool is not corpus else None)
        if not plan.index.local:
            raise ValueError("local background requires pool to be the corpus itself")
    idx = plan.index

    n = cfg.n_simulations
    pairs_bound = int((idx.c_counts * (idx.c_counts - 1) // 2).sum())
    if n * pairs_bound * pairs_bound >= 1 << 63:
        raise ValueError(
            f"{n} simulations of up to {pairs_bound} pairs each could overflow the int64 "
            "sum-of-squares accumulator; use fewer simulations"
        )
    workers = min(cfg.workers, n)
    if workers > 1:
        bounds = []
        step = (n + workers - 1) // workers
        for lo in range(0, n, step):
            bounds.append((lo, min(lo + step, n)))
        global _FORK_STATE
        _FORK_STATE = (plan, cfg)
        try:
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as executor:
                futures = [executor.submit(_forked_range, b) for b in bounds]
                parts = []
                for (lo, hi), future in zip(bounds, futures):
                    try:
                        parts.append(future.result())
                    except BrokenProcessPool as exc:
                        raise WorkerError(
                            f"a simulation worker died before simulations {lo}..{hi - 1} "
                            f"finished: {exc}"
                        ) from exc
        finally:
            _FORK_STATE = None
        acc, deleted_per_sim, pairs_per_sim, exhausted = parts[0]
        for part_acc, part_del, part_pairs, part_exh in parts[1:]:
            acc.merge(part_acc)
            deleted_per_sim.extend(part_del)
            pairs_per_sim.extend(part_pairs)
            exhausted += part_exh
    else:
        acc, deleted_per_sim, pairs_per_sim, exhausted = _run_sim_range(plan, cfg, 0, n)

    keys, s1, s2 = acc.support()
    stats: dict[JournalPair, tuple[float, float]] = {}
    for key, a, b in zip(keys.tolist(), s1.tolist(), s2.tolist()):
        stats[JournalPair(*idx.key_to_pair(key))] = pair_mean_sigma(a, b, n)
    return SimResult(stats, cfg, deleted_per_sim, pairs_per_sim, exhausted)


def zscores(f_obs: JournalPairTable, sims: Mapping) -> list[PairStats]:
    """One PairStats per pair in the union of observed and simulated support."""
    out: list[PairStats] = []
    support = set(f_obs.counts) | set(sims)
    for pair in sorted(support):
        obs = f_obs.counts.get(pair, 0)
        mean, sigma = sims.get(pair, (0.0, 0.0))
        z = (obs - mean) / sigma if sigma > 0.0 else None
        out.append(PairStats(pair=pair, f_obs=obs, f_exp=mean, sigma=sigma, z=z))
    return out


def undefined_pair_count(stats: Iterable[PairStats]) -> int:
    return sum(1 for ps in stats if ps.z is None)


def sign_change_report(stats_a: Sequence[PairStats], stats_b: Sequence[PairStats]) -> float:
    """Fraction of pairs whose z-scores have strictly opposite signs.

    Only pairs with a defined z in both inputs count; a zero z-score has
    no sign and never contributes a change.
    """
    zb = {ps.pair: ps.z for ps in stats_b if ps.z is not None}
    common = 0
    changed = 0
    for ps in stats_a:
        if ps.z is None:
            continue
        other = zb.get(ps.pair)
        if other is None:
            continue
        common += 1
        if (ps.z > 0 and other < 0) or (ps.z < 0 and other > 0):
            changed += 1
    return changed / common if common else 0.0


def benchmark_algorithms(corpus: Corpus, pool: Corpus | None = None,
                         algorithms: Sequence[str] = ALGORITHMS,
                         n_simulations: int = 10, master_seed: int = 0,
                         umsj_max_retries: int = 10) -> dict[str, float]:
    """Wall-clock seconds for n_simulations shuffles per algorithm.

    Both algorithms run on the same groups and the same seed, shuffle
    only (no pair counting), which isolates the switching cost.
    """
    from .shuffle import repcs_shuffle

    plan = build_groups(corpus, pool)
    timings: dict[str, float] = {}
    for alg in algorithms:
        if alg not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {alg!r}")
        start = time.perf_counter()
        for s in range(n_simulations):
            if alg == "repcs":
                repcs_shuffle(plan, master_seed, sim_index=s)
            else:
                umsj_shuffle(plan, master_seed, umsj_max_retries, sim_index=s)
        timings[alg] = time.perf_counter() - start
    return timings


def write_pair_stats_csv(stats: Sequence[PairStats], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["journal_a", "journal_b", "f_obs", "f_exp", "sigma", "z", "defined_flag"])
        for ps in stats:
            z = "" if ps.z is None else repr(ps.z)
            w.writerow([ps.pair.a, ps.pair.b, ps.f_obs, repr(ps.f_exp), repr(ps.sigma),
                        z, int(ps.z is not None)])


def read_pair_stats_csv(path: str | Path) -> list[PairStats]:
    out: list[PairStats] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = ["journal_a", "journal_b", "f_obs", "f_exp", "sigma", "z", "defined_flag"]
        if header != expected:
            raise ValueError(f"{path}: bad pair-stats header {header!r}")
        for row in reader:
            z = float(row[5]) if row[6] == "1" else None
            out.append(PairStats(JournalPair(row[0], row[1]), int(row[2]),
                                 float(row[3]), float(row[4]), z))
    return out


def write_pair_means_csv(sims: Mapping, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["journal_a", "journal_b", "f_exp", "sigma"])
        for pair in sorted(sims):
            mean, sigma = sims[pair]
            w.writerow([pair[0], pair[1], repr(mean), repr(sigma)])
