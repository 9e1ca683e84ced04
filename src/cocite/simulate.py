"""Monte Carlo expected frequencies, z-scores, and background comparisons.

``run_simulations`` repeats the configured shuffle N times and adds
each simulation's journal-pair table into exact int64 sums and sums of
squares (``SimResult``), so memory stays bounded by the pair support
rather than growing with N. The sums of adjacent simulation ranges merge
exactly, which makes the mean and standard deviation independent of
worker count by construction.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from functools import cached_property, reduce
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus, IngestError, float_or_nan, float_texts, read_columns, write_columns
from .indexing import CorpusIndex
from .pairs import PairRowError, PairTable, merge_keys, union_support
from .shuffle import ALGORITHMS, build_groups, run_shuffle

BACKGROUNDS = ("local", "global")
# The steps of one simulation, timed cumulatively in SimResult.layer_s.
SIM_LAYERS = ("permute", "dedupe", "pair_count", "accumulate")
# Header of pair_stats.csv, shared by its writer and reader.
PAIR_STATS_COLUMNS = ("journal_a", "journal_b", "f_obs", "f_exp", "sigma", "z", "defined_flag")


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


def pair_mean_sigma(s1: np.ndarray, s2: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's mean and population sigma from exact integer sums.

    ``s1`` and ``s2`` are int64 sums and sums of squares of a pair's
    frequency over ``n`` simulations, absences counting as zero. The
    result equals ``s1 / n`` and ``sqrt(n*s2 - s1**2) / n`` in Python
    integers bit for bit: int64 holds n*s2 - s1^2 exactly while n*s2 stays
    below 2^63 (s1^2 <= n*s2, so s1 < 2^32 and n < 2^53 convert to float
    exactly), and Python integers take over past that.
    """
    if n < 1 << 53 and n * int(s2.max(initial=0)) < 1 << 63:
        return s1 / n, np.sqrt(n * s2 - s1 * s1) / n
    s1, s2 = s1.tolist(), s2.tolist()
    return (np.array([a / n for a in s1], np.float64),
            np.array([math.sqrt(n * b - a * a) / n for a, b in zip(s1, s2)], np.float64))


# Pending keys of a sparse range's parts at which they are summed into one.
_COMPACT_AT = 1 << 22


@dataclass(eq=False)
class SimResult:
    """The int64 sums ``s1`` and sums of squares ``s2`` of every pair's
    frequency over ``simulations``, absences counting as zero, at the
    ascending ``PairTable`` keys where ``s1 > 0``, with the run's
    configuration and per-simulation diagnostics."""

    journal_ids: list[str]
    keys: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    simulations: range
    cfg: SimConfig
    per_sim_deleted: list[int]
    per_sim_total_pairs: list[int]
    retry_exhausted_total: int
    # Seconds spent in each of SIM_LAYERS, summed over simulations and workers.
    layer_s: dict[str, float]

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def background(self) -> str:
        return self.cfg.background

    @cached_property
    def table(self) -> PairTable:
        """Mean (``f_exp``) and population sigma of every pair's frequency."""
        f_exp, sigma = pair_mean_sigma(self.s1, self.s2, len(self.simulations))
        return PairTable(self.journal_ids, self.keys, f_exp=f_exp, sigma=sigma)

    def merge(self, later: SimResult) -> SimResult:
        """The sums of this range and ``later``; ValueError unless it starts where this stops."""
        if later.simulations.start != self.simulations.stop:
            raise ValueError(f"{later.simulations} does not start where {self.simulations} stops")
        return SimResult(self.journal_ids, *_sum_parts([(self.keys, self.s1, self.s2),
                                                         (later.keys, later.s1, later.s2)]),
                         range(self.simulations.start, later.simulations.stop), self.cfg,
                         self.per_sim_deleted + later.per_sim_deleted,
                         self.per_sim_total_pairs + later.per_sim_total_pairs,
                         self.retry_exhausted_total + later.retry_exhausted_total,
                         {k: t + later.layer_s[k] for k, t in self.layer_s.items()})


def _sum_parts(parts: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, s1, s2) of ``parts`` summed by key. Each part is a (keys, s1,
    s2) with unique ascending keys; the list is emptied as they are added."""
    keys = merge_keys([part[0] for part in parts])
    s1, s2 = np.zeros((2, len(keys)), np.int64)
    while parts:
        part_keys, part_s1, part_s2 = parts.pop()
        at = np.searchsorted(keys, part_keys)
        s1[at] += part_s1
        s2[at] += part_s2
    return keys, s1, s2


def _run_sim_range(idx: CorpusIndex, cfg: SimConfig, lo: int, hi: int) -> SimResult:
    """The sums of simulations ``[lo, hi)``, kept in one (2, J*J) table while
    ``idx.dense_pairs()`` and otherwise as sorted parts."""
    dense = idx.dense_pairs()
    sums = np.zeros((2, idx.n_journals ** 2 if dense else 0), np.int64)
    parts, pending = [], 0
    deleted_per_sim, pairs_per_sim, retry_exhausted = [], [], 0
    layer_s = [0.0] * len(SIM_LAYERS)
    clock = time.perf_counter
    for s in range(lo, hi):
        t0 = clock()
        outcome = run_shuffle(idx, cfg.algorithm, cfg.master_seed, cfg.umsj_max_retries,
                              sim_index=s)
        t1 = clock()
        deleted = outcome.deleted_rows
        t2 = clock()
        keys, counts = idx.pair_key_counts(outcome._assignment, exclude_rows=deleted)
        t3 = clock()
        if dense:
            sums[0, keys] += counts
            sums[1, keys] += counts * counts
        else:
            parts.append((keys, counts, counts * counts))
            pending += len(keys)
            if pending >= _COMPACT_AT:
                parts, pending = [_sum_parts(parts)], 0
        deleted_per_sim.append(int(len(deleted)))
        pairs_per_sim.append(int(counts.sum()))
        retry_exhausted += outcome.retry_exhausted
        t4 = clock()
        for i, dt in enumerate((t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            layer_s[i] += dt
    # The last simulation's arrays are let go before the final sum. One
    # part, such as the dense table's support, is its own sum.
    deleted = outcome = keys = counts = None
    if dense:
        keys = np.flatnonzero(sums[0])
        parts = [(keys, *sums[:, keys])]
    keys, s1, s2 = parts[0] if len(parts) == 1 else _sum_parts(parts)
    return SimResult(idx.journal_ids, keys, s1, s2, range(lo, hi), cfg, deleted_per_sim,
                     pairs_per_sim, retry_exhausted, dict(zip(SIM_LAYERS, layer_s)))


# Index shared with forked workers; set in the parent right before the
# pool is created so children inherit it without pickling.
_FORK_STATE: tuple[CorpusIndex, SimConfig] | None = None


def _forked_range(bounds: tuple[int, int]) -> SimResult:
    return _run_sim_range(*_FORK_STATE, *bounds)


def run_simulations(corpus: Corpus, pool: Corpus | None, cfg: SimConfig) -> SimResult:
    """``simulate_plan`` over the groups of ``corpus`` against ``cfg.background``.

    A global background needs ``pool``; a local one takes None or the
    corpus itself.
    """
    cfg.validate()
    if cfg.background == "global":
        if pool is None:
            raise ValueError("global background requires a substitution pool corpus")
    elif pool is not None and pool is not corpus:
        raise ValueError("local background requires pool to be the corpus itself")
    return simulate_plan(build_groups(corpus, pool), cfg)


def simulate_plan(idx: CorpusIndex, cfg: SimConfig) -> SimResult:
    """The sums of every pair's frequency over N shuffles, simulations 0..N-1.

    Deterministic for a given master seed: per-simulation streams are
    derived by simulation index, and each worker's range of exact sums
    merges with the next, so any worker count yields bit-identical
    statistics.

    Raises ValueError for a ``cfg.background`` other than the index's, and
    before the first simulation when N times the square of the corpus's
    pairs per simulation could overflow the int64 sum of squares;
    WorkerError when a forked worker dies mid-range.
    """
    cfg.validate()
    if cfg.background != idx.background:
        raise ValueError(f"SimConfig background {cfg.background!r} does not match the "
                         f"{idx.background!r} background the index was built against")
    n = cfg.n_simulations
    if n * idx.n_pairs * idx.n_pairs >= 1 << 63:
        raise ValueError(
            f"{n} simulations of up to {idx.n_pairs} pairs each could overflow the int64 "
            "sum-of-squares accumulator; use fewer simulations"
        )
    workers = min(cfg.workers, n)
    if workers > 1:
        # The worker pool is imported here, so a run at one worker never pays for it.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # Run the kernels once before forking, so that every worker shares
        # one copy of the read-back data they build on first use.
        idx.pair_key_counts(idx.c_tokens)
        idx.duplicate_pub_rows(idx.c_tokens)
        step = (n + workers - 1) // workers
        bounds = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
        global _FORK_STATE
        _FORK_STATE = (idx, cfg)
        try:
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as executor:
                futures = [executor.submit(_forked_range, b) for b in bounds]
                parts = []
                for (lo, hi), future in zip(bounds, futures):
                    try:
                        parts.append(future.result())
                    except BrokenProcessPool as exc:
                        raise WorkerError(f"a simulation worker died before simulations "
                                          f"{lo}..{hi - 1} finished: {exc}") from exc
        finally:
            _FORK_STATE = None
        return reduce(SimResult.merge, parts)
    return _run_sim_range(idx, cfg, 0, n)


def zscores(f_obs: PairTable, sims: SimResult | PairTable) -> PairTable:
    """Observed frequency, simulated mean and sigma, and z-score of every
    pair in the union of observed and simulated support; z is undefined
    (NaN) where sigma is zero."""
    sims = sims.table if isinstance(sims, SimResult) else sims
    journal_ids, keys, (obs_rows, obs_at), (sim_rows, sim_at) = union_support(f_obs, sims)
    table = PairTable(journal_ids, keys, np.zeros(len(keys), np.int64), np.zeros(len(keys)),
                      np.zeros(len(keys)), np.full(len(keys), np.nan))
    table.f_obs[obs_at] = f_obs.f_obs[obs_rows]
    table.f_exp[sim_at] = sims.f_exp[sim_rows]
    table.sigma[sim_at] = sims.sigma[sim_rows]
    defined = table.sigma > 0.0
    table.z[defined] = (table.f_obs[defined] - table.f_exp[defined]) / table.sigma[defined]
    return table


def undefined_pair_count(stats: PairTable) -> int:
    """Pairs of ``stats`` with an undefined z. Kept for perfbench/probe.py."""
    return int(np.isnan(stats.z).sum())


def sign_change_report(stats_a: PairTable, stats_b: PairTable) -> float:
    """Fraction of pairs whose z-scores have strictly opposite signs.

    Only pairs with a defined z in both inputs count; a zero z-score has
    no sign and never contributes a change.
    """
    _, keys, (rows_a, at_a), (rows_b, at_b) = union_support(stats_a, stats_b)
    za, zb = np.full(len(keys), np.nan), np.full(len(keys), np.nan)
    za[at_a] = stats_a.z[rows_a]
    zb[at_b] = stats_b.z[rows_b]
    common = int((~np.isnan(za) & ~np.isnan(zb)).sum())
    changed = int((((za > 0) & (zb < 0)) | ((za < 0) & (zb > 0))).sum())
    return changed / common if common else 0.0


def check_algorithms(algorithms: Sequence[str]) -> None:
    """Raise ValueError unless ``algorithms`` names at least one algorithm,
    each known and none twice."""
    if not algorithms:
        raise ValueError("no algorithm to benchmark")
    for i, alg in enumerate(algorithms):
        if alg not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {alg!r}; choose from {', '.join(ALGORITHMS)}")
        if alg in algorithms[:i]:
            raise ValueError(f"algorithm {alg!r} is listed twice")


def benchmark_algorithms(corpus: Corpus, pool: Corpus | None = None,
                         algorithms: Sequence[str] = ALGORITHMS,
                         n_simulations: int = 10, master_seed: int = 0,
                         umsj_max_retries: int = 10) -> dict[str, float]:
    """Wall-clock seconds for n_simulations shuffles per algorithm.

    Both algorithms run on the same groups and the same seed, shuffle and
    error correction only (no pair counting or fixed points).
    """
    check_algorithms(algorithms)
    idx = build_groups(corpus, pool)
    timings: dict[str, float] = {}
    for alg in algorithms:
        start = time.perf_counter()
        for s in range(n_simulations):
            run_shuffle(idx, alg, master_seed, umsj_max_retries, sim_index=s).deleted_rows
        timings[alg] = time.perf_counter() - start
    return timings


def write_pair_stats_csv(stats: PairTable, path: str | Path) -> None:
    """Write ``stats`` as pair_stats.csv; an undefined z is an empty field."""
    defined = ~np.isnan(stats.z)
    z = np.where(defined, float_texts(stats.z), None)
    write_columns(path, PAIR_STATS_COLUMNS, (*stats.journal_columns(), stats.f_obs, stats.f_exp,
                                             stats.sigma, z, defined.astype(np.int64)))


def read_pair_stats_csv(path: str | Path) -> PairTable:
    """The table of a pair_stats.csv. Raises IngestError naming the line of a
    malformed row, of a pair out of journal order, of a z that does not fit
    its defined_flag, and of a pair given twice, once every row is read."""
    names: dict[str, int] = {}
    kinds = (names, names, int, float, float, float_or_nan, {"0": 0, "1": 1})
    lines, _, (a, b, *columns, _) = read_columns(path, PAIR_STATS_COLUMNS, kinds, ",",
                                                 _pair_row_faults)
    try:
        return PairTable.from_codes(list(names), a, b, *columns)
    except PairRowError as exc:
        raise IngestError(f"{path}:{lines[exc.row]}: {exc}") from None


def _pair_row_faults(fields: list[list[str]], typed: list):
    """Rows whose journal pair is out of order, or whose defined_flag is not
    1 exactly where z is a number."""
    a, b, z, flag = fields[0], fields[1], typed[5], typed[6]
    # Python string order is the order of ranks in the sorted journal ids.
    reversed_pair = np.fromiter(map(operator.gt, a, b), bool, len(z))
    return reversed_pair | (flag > 1) | ((flag == 1) == np.isnan(z)), lambda i: (
        f"journal pair {(a[i], b[i])} is not in journal_a <= journal_b order" if reversed_pair[i]
        else f"defined_flag {fields[6][i]!r} does not fit z {fields[5][i]!r}")


def write_pair_means_csv(sims: SimResult, path: str | Path) -> None:
    write_columns(path, ("journal_a", "journal_b", "f_exp", "sigma"),
                  (*sims.table.journal_columns(), sims.table.f_exp, sims.table.sigma))
