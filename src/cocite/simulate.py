"""Monte Carlo expected frequencies, z-scores, and background comparisons.

``run_simulations`` repeats the configured shuffle N times and streams
each simulation's journal-pair table into integer (sum, sum of squares)
accumulators, so memory stays bounded by the pair support rather than
growing with N. Integer accumulation is exact, which makes the aggregated
mean and standard deviation independent of worker count and merge order
by construction.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus, IngestError, read_rows, write_rows
from .indexing import CorpusIndex
# PairStats is re-exported: the acceptance suite imports it from this module.
from .pairs import PairRowError, PairStats, PairTable, union_support  # noqa: F401
from .shuffle import build_groups, umsj_shuffle, _permuted_tokens

ALGORITHMS = ("repcs", "umsj")
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
    """Sorted-key accumulator for journal sets too large for dense tables.

    ``_parts`` holds (keys, s1, s2) arrays; compacting sums them by key
    into one part of unique ascending keys.
    """

    _COMPACT_AT = 1 << 22

    def __init__(self):
        self._parts = [(np.zeros(0, np.int64),) * 3]
        self._pending = 0

    def add(self, keys: np.ndarray, counts: np.ndarray) -> None:
        self._parts.append((keys, counts, counts * counts))
        self._pending += len(keys)
        if self._pending >= self._COMPACT_AT:
            self._compact()

    def _compact(self) -> None:
        keys, s1, s2 = (np.concatenate(column) for column in zip(*self._parts))
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        self._parts = [(keys[starts], np.add.reduceat(s1[order], starts),
                        np.add.reduceat(s2[order], starts))]
        self._pending = 0

    def merge(self, other: "_SparseAccumulator") -> None:
        self._parts += other._parts
        self._compact()

    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        self._compact()
        return self._parts[0]


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


def _run_sim_range(idx: CorpusIndex, cfg: SimConfig, lo: int, hi: int):
    acc = _DenseAccumulator(idx.n_journals ** 2) if idx.dense_pairs() else _SparseAccumulator()
    deleted_per_sim: list[int] = []
    pairs_per_sim: list[int] = []
    retry_exhausted = 0
    layer_s = [0.0] * len(SIM_LAYERS)
    clock = time.perf_counter
    for s in range(lo, hi):
        t0 = clock()
        if cfg.algorithm == "repcs":
            tokens = _permuted_tokens(idx, cfg.master_seed, s)
            t1 = clock()
            deleted = idx.duplicate_pub_rows(tokens)
        else:
            outcome = umsj_shuffle(idx, cfg.master_seed, cfg.umsj_max_retries, sim_index=s)
            tokens = outcome._assignment
            t1 = clock()
            deleted = outcome._deleted_rows
            retry_exhausted += outcome.retry_exhausted
        t2 = clock()
        keys, counts = idx.pair_key_counts(tokens, exclude_rows=deleted)
        t3 = clock()
        acc.add(keys, counts)
        deleted_per_sim.append(int(len(deleted)))
        pairs_per_sim.append(int(counts.sum()))
        t4 = clock()
        for i, dt in enumerate((t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            layer_s[i] += dt
    return acc, deleted_per_sim, pairs_per_sim, retry_exhausted, layer_s


# Index shared with forked workers; set in the parent right before the
# pool is created so children inherit it without pickling.
_FORK_STATE: tuple[CorpusIndex, SimConfig] | None = None


def _forked_range(bounds: tuple[int, int]):
    idx, cfg = _FORK_STATE
    return _run_sim_range(idx, cfg, bounds[0], bounds[1])


@dataclass
class SimResult:
    """Mean (``f_exp``) and population sigma of every pair's frequency over
    all simulations, absences counting as zero, with the run's
    configuration and per-simulation diagnostics."""

    table: PairTable
    cfg: SimConfig
    per_sim_deleted: list[int]
    per_sim_total_pairs: list[int]
    retry_exhausted_total: int
    # Seconds spent in each of SIM_LAYERS, summed over simulations and workers.
    layer_s: dict[str, float]

    def __len__(self) -> int:
        return len(self.table)

    @property
    def background(self) -> str:
        return self.cfg.background


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
    """Mean and population sigma of every pair's frequency over N shuffles.

    Deterministic for a given master seed: per-simulation streams are
    derived by simulation index and integer accumulators commute, so any
    worker count yields bit-identical statistics.

    Raises ValueError before the first simulation when N times the square
    of the corpus's pairs per simulation could overflow the int64 sum of
    squares, and WorkerError when a forked worker dies mid-range.
    """
    cfg.validate()
    n = cfg.n_simulations
    if n * idx.n_pairs * idx.n_pairs >= 1 << 63:
        raise ValueError(
            f"{n} simulations of up to {idx.n_pairs} pairs each could overflow the int64 "
            "sum-of-squares accumulator; use fewer simulations"
        )
    workers = min(cfg.workers, n)
    if workers > 1:
        # Run the kernels once before forking, so that every worker shares
        # one copy of the read-back data they build on first use.
        idx.pair_key_counts(idx.c_tokens)
        if cfg.algorithm == "repcs":
            idx.duplicate_pub_rows(idx.c_tokens)
        bounds = []
        step = (n + workers - 1) // workers
        for lo in range(0, n, step):
            bounds.append((lo, min(lo + step, n)))
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
                        raise WorkerError(
                            f"a simulation worker died before simulations {lo}..{hi - 1} "
                            f"finished: {exc}"
                        ) from exc
        finally:
            _FORK_STATE = None
        acc, deleted_per_sim, pairs_per_sim, exhausted, layer_s = parts[0]
        for part_acc, part_del, part_pairs, part_exh, part_layer_s in parts[1:]:
            acc.merge(part_acc)
            deleted_per_sim.extend(part_del)
            pairs_per_sim.extend(part_pairs)
            exhausted += part_exh
            layer_s = [a + b for a, b in zip(layer_s, part_layer_s)]
    else:
        acc, deleted_per_sim, pairs_per_sim, exhausted, layer_s = _run_sim_range(idx, cfg, 0, n)

    keys, s1, s2 = acc.support()
    f_exp, sigma = pair_mean_sigma(s1, s2, n)
    return SimResult(PairTable(idx.journal_ids, keys, f_exp=f_exp, sigma=sigma), cfg,
                     deleted_per_sim, pairs_per_sim, exhausted, dict(zip(SIM_LAYERS, layer_s)))


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

    Both algorithms run on the same groups and the same seed, shuffle
    only (no pair counting), which isolates the switching cost.
    """
    from .shuffle import repcs_shuffle

    check_algorithms(algorithms)
    idx = build_groups(corpus, pool)
    timings: dict[str, float] = {}
    for alg in algorithms:
        start = time.perf_counter()
        for s in range(n_simulations):
            if alg == "repcs":
                repcs_shuffle(idx, master_seed, sim_index=s)
            else:
                umsj_shuffle(idx, master_seed, umsj_max_retries, sim_index=s)
        timings[alg] = time.perf_counter() - start
    return timings


def write_pair_stats_csv(stats: PairTable, path: str | Path) -> None:
    write_rows(path, PAIR_STATS_COLUMNS,
               ((*row, int(row[-1] is not None))
                for row in stats.row_values("f_obs", "f_exp", "sigma", "z")))


def read_pair_stats_csv(path: str | Path) -> PairTable:
    """The table of a pair_stats.csv. Raises IngestError naming the line of
    a malformed row, of a z that does not fit its defined_flag, and of a
    pair out of journal order or given twice."""
    # One column per field, numbers stored unboxed and each journal id
    # string once: a wide journal set writes millions of rows.
    journal_a, journal_b, names = [], [], {}
    f_obs, lines = array("q"), array("q")
    f_exp, sigma, z = array("d"), array("d"), array("d")
    for lineno, (a, b, obs, exp, sd, zv, defined) in read_rows(path, PAIR_STATS_COLUMNS):
        if defined not in ("0", "1") or (defined == "1") != bool(zv):
            raise IngestError(f"{path}:{lineno}: defined_flag {defined!r} does not fit z {zv!r}")
        try:
            f_obs.append(int(obs))
            f_exp.append(float(exp))
            sigma.append(float(sd))
            z.append(float(zv) if zv else math.nan)
        except (ValueError, OverflowError) as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from None
        journal_a.append(names.setdefault(a, a))
        journal_b.append(names.setdefault(b, b))
        lines.append(lineno)
    try:
        return PairTable.from_columns(journal_a, journal_b, f_obs, f_exp, sigma, z)
    except PairRowError as exc:
        raise IngestError(f"{path}:{lines[exc.row]}: {exc}") from None


def write_pair_means_csv(sims: SimResult, path: str | Path) -> None:
    write_rows(path, ("journal_a", "journal_b", "f_exp", "sigma"),
               sims.table.row_values("f_exp", "sigma"))
