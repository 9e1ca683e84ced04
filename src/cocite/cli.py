"""Command-line pipeline with reproducible run manifests.

Every subcommand writes its outputs plus a ``run.manifest`` into the
directory given by ``--out``; ``rerun`` re-executes the argv recorded in
a manifest (optionally with a different worker count) and reproduces the
output CSVs byte for byte.

The analysis chain is defined once, as the stages of ``Run``. Each
subcommand writes the outputs of the stages it needs, ``pipeline``
writes them all in order, and each subcommand accepts exactly the flag
groups its stages read.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import astuple, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .classify import (
    NOVELTY_PERCENTILES,
    ClassifyConfig,
    PubSummary,
    classify_corpus,
    index_summaries,
    read_summaries_csv,
    write_summaries_csv,
)
from .corpus import (
    Corpus,
    IngestConfig,
    IngestError,
    export_corpus,
    ingest,
    summarize,
    write_rows,
)
from .diverge import (
    DEFAULT_EPSILON,
    CompositionRow,
    DivergenceResult,
    composition_fold,
    kl_divergence,
    write_composition_csv,
    write_divergence_csv,
)
from .impact import (
    HIT_PERCENTILES,
    HitConfig,
    HitReport,
    designate_hits,
    format_hit_grid,
    hit_report,
    write_hit_report_csv,
    write_hit_tests_json,
)
from .manifest import RunManifest, file_digest
from .indexing import CorpusIndex
from .pairs import PairTable, index_frequencies, write_pair_csv
from .shuffle import ShuffleOutcome, build_groups, repcs_shuffle, umsj_shuffle
from .simulate import (
    ALGORITHMS,
    BACKGROUNDS,
    SimConfig,
    SimResult,
    WorkerError,
    benchmark_algorithms,
    check_algorithms,
    read_pair_stats_csv,
    simulate_plan,
    write_pair_means_csv,
    write_pair_stats_csv,
    zscores,
)
from .synth import SynthConfig, generate

POOL_FLAGS = "--pool-pubs, --pool-refs, and --pool-cites"


def rss_hwm_mb() -> float:
    """Peak resident set of this process or of its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """One subcommand invocation: its ``--out`` directory, inputs and manifest.

    The stages of the chain (load, observe, simulate, zscore, classify,
    hits, kld, compose) are computed on first use. A stage first resolves
    the stages it reads, then runs under one ``perf_counter`` timing kept
    under its own name, and adds its counters to ``diagnostics``.
    Assigning a stage's attribute stands in for computing it, which is
    how ``classify`` and ``hits`` start from their input CSVs. The corpus
    index, which holds the permutation groups, is built once per
    background, by the first stage that reads it. Reading an input table
    and writing the outputs are timed apart from the stages, in
    ``diagnostics["read_s"]`` and ``diagnostics["write_s"]``.
    """

    def __init__(self, args: argparse.Namespace, argv: list[str]):
        self.args = args
        self.argv = argv
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.digests: dict[str, str] = {}
        self.timings: dict[str, float] = {}
        self.peak_rss_mb: dict[str, float] = {}
        self.diagnostics: dict = {}
        self.indexes: dict[str, CorpusIndex] = {}

    @contextmanager
    def timed(self, stage: str):
        """Time a stage, then record the memory high-water mark reached by its end."""
        t0 = time.perf_counter()
        yield
        self.timings[stage] = self.timings.get(stage, 0.0) + time.perf_counter() - t0
        self.peak_rss_mb[stage] = rss_hwm_mb()

    @contextmanager
    def io_timed(self, key: str):
        """Add the seconds the block takes to ``diagnostics[key]``."""
        t0 = time.perf_counter()
        yield
        self.diagnostics[key] = round(self.diagnostics.get(key, 0.0) + time.perf_counter() - t0, 6)

    def read(self, path: str, reader):
        """``reader(path)``, with the file's digest recorded as a run input."""
        with self.io_timed("read_s"):
            self.digests[str(path)] = file_digest(path)
            return reader(path)

    def write(self, writer, *args, **kwargs) -> None:
        """``writer(*args, **kwargs)``, timed as ``write_s``. The arguments,
        and so the stages they read, are computed before the timer starts."""
        with self.io_timed("write_s"):
            writer(*args, **kwargs)

    def save(self) -> None:
        RunManifest(
            tool_version=__version__,
            command=self.args.command,
            argv=self.argv,
            master_seed=getattr(self.args, "seed", None),
            input_digests=self.digests,
            timings={k: round(v, 6) for k, v in self.timings.items()},
            peak_rss_mb={k: round(v, 1) for k, v in self.peak_rss_mb.items()},
            diagnostics=self.diagnostics,
        ).save(self.out)

    def _ingest(self, paths, background_tag: str) -> Corpus:
        for path in paths:
            self.digests[str(path)] = file_digest(path)
        cfg = IngestConfig(slice_year=self.args.slice_year, background_tag=background_tag)
        return ingest(*paths, cfg)

    @cached_property
    def inputs(self) -> tuple[Corpus, Corpus | None]:
        """Load stage: the analyzed corpus and, given ``--pool-*``, the substitution pool."""
        a = self.args
        pool_paths = [getattr(a, name, None) for name in ("pool_pubs", "pool_refs", "pool_cites")]
        background = getattr(a, "background", None)
        if any(pool_paths) and not all(pool_paths):
            raise ValueError(f"{POOL_FLAGS} must be given together")
        if any(pool_paths) and background == "local":
            raise ValueError(f"{POOL_FLAGS} are not read with --background local")
        if background == "global" and not any(pool_paths):
            raise ValueError("global background requires --pool-* files")
        with self.timed("load"):
            corpus = self._ingest((a.pubs, a.refs, a.cites), "local")
            pool = self._ingest(pool_paths, "global") if any(pool_paths) else None
        self.diagnostics["dropped"] = dict(corpus.diagnostics.dropped)
        if pool is not None:
            self.diagnostics["pool_dropped"] = dict(pool.diagnostics.dropped)
        return corpus, pool

    @property
    def corpus(self) -> Corpus:
        return self.inputs[0]

    def index_of(self, background: str) -> CorpusIndex:
        """The corpus's index and permutation groups against a background."""
        if background not in self.indexes:
            self.indexes[background] = (build_groups(*self.inputs) if background == "global"
                                        else build_groups(self.corpus))
        return self.indexes[background]

    @property
    def index(self) -> CorpusIndex:
        """The index observe and classify read: that of ``--background``, else local."""
        return self.index_of(getattr(self.args, "background", "local"))

    @cached_property
    def observed(self) -> PairTable:
        """Observe stage: the corpus's journal-pair frequencies."""
        self.inputs  # loaded outside this stage's timing
        with self.timed("observe"):
            table = index_frequencies(self.index)
        self.diagnostics.update(n_pairs=len(table), total_pairs=table.total_pairs)
        return table

    def simulate(self, background: str) -> SimResult:
        """Simulate stage: pair mean and sigma over ``--sims`` shuffles against a background."""
        self.inputs  # loaded outside this stage's timing
        a = self.args
        cfg = SimConfig(
            n_simulations=a.sims,
            master_seed=a.seed,
            background=background,
            algorithm=a.algorithm,
            workers=a.workers,
            umsj_max_retries=a.max_retries,
        )
        with self.timed("simulate"):
            return simulate_plan(self.index_of(background), cfg)

    @cached_property
    def sims(self) -> SimResult:
        """The simulate stage against ``--background``, with its counters."""
        sims = self.simulate(self.args.background)
        deleted = sims.per_sim_deleted
        p50, p99 = np.percentile(deleted, [50, 99])  # SimConfig requires n_simulations >= 2
        self.diagnostics.update(
            algorithm=sims.cfg.algorithm,
            background=sims.background,
            n_simulations=sims.cfg.n_simulations,
            support_pairs=len(sims),
            deleted_pubs_total=sum(deleted),
            deleted_pubs_max=max(deleted),
            deleted_pubs_mean=float(np.mean(deleted)),
            deleted_pubs_p50=float(p50),
            deleted_pubs_p99=float(p99),
            retry_exhausted_total=sims.retry_exhausted_total,
            sim_layer_s={k: round(v, 6) for k, v in sims.layer_s.items()},
        )
        return sims

    @cached_property
    def stats(self) -> PairTable:
        """Zscore stage: observed against simulated frequency, pair by pair."""
        observed, sims = self.observed, self.sims
        with self.timed("zscore"):
            stats = zscores(observed, sims)
        self.diagnostics["sigma_zero_pairs"] = int(np.isnan(stats.z).sum())
        return stats

    @cached_property
    def labeled(self) -> list[PubSummary]:
        """Classify stage: per-publication z statistics and category labels."""
        stats = self.stats
        self.inputs  # loaded outside this stage's timing
        with self.timed("classify"):
            summaries, excluded = index_summaries(self.index, stats)
            labeled, threshold = classify_corpus(summaries, ClassifyConfig(self.args.novelty_pct))
        self.diagnostics.update(threshold=threshold, classified=len(labeled),
                                excluded_no_defined_pairs=excluded)
        return labeled

    @cached_property
    def report(self) -> HitReport:
        """Hits stage: hit rate per category and the chi-square tests."""
        corpus, labeled = self.corpus, self.labeled
        with self.timed("hits"):
            hits = designate_hits(corpus.publications, HitConfig(self.args.hit_pct))
            report = hit_report(labeled, hits)
        self.diagnostics.update(total_hits=report.total_hits, hit_percentile=self.args.hit_pct)
        return report

    def divergence(self, sims: SimResult) -> DivergenceResult:
        """Kld stage: K-L divergence of the observed pairs from one simulated background."""
        observed, corpus = self.observed, self.corpus
        with self.timed("kld"):
            return kl_divergence(observed, sims, corpus.journals(), self.args.epsilon,
                                 corpus_tag=self.args.tag, background=sims.background,
                                 year=corpus.slice_year)

    def compose(self, include_deleted: bool = True) -> tuple[ShuffleOutcome, list[CompositionRow]]:
        """Compose stage: one shuffle (simulation 0's streams) and its per-subject fold."""
        corpus = self.corpus
        a = self.args
        with self.timed("compose"):
            idx = self.index_of(a.background)
            if a.algorithm == "repcs":
                outcome = repcs_shuffle(idx, a.seed)
            else:
                outcome = umsj_shuffle(idx, a.seed, a.max_retries)
            rows = composition_fold(corpus, outcome, include_deleted=include_deleted)
        self.diagnostics.update(deleted_pubs=len(outcome.deleted_pubs),
                                fixed_points=outcome.fixed_points,
                                retry_exhausted=outcome.retry_exhausted,
                                max_fold=max(r.fold for r in rows))
        return outcome, rows


def cmd_ingest(run: Run) -> None:
    corpus = run.corpus
    run.write(export_corpus, corpus, run.out)
    diags = corpus.diagnostics
    run.diagnostics.update(journal_aliases_collapsed=diags.journal_aliases_collapsed,
                           publications=len(corpus.publications),
                           references=len(corpus.references))
    print(f"ingested {len(corpus.publications)} publications, "
          f"{len(corpus.references)} references ({diags.total_dropped()} rows dropped)")


def cmd_summarize(run: Run) -> None:
    s = summarize(run.corpus)
    tag = run.args.tag
    run.write(write_rows, run.out / "summary.csv",
              ("corpus", "unique_publications", "unique_references", "total_references", "ratio"),
              [(tag, *astuple(s))])
    print(f"{tag}: pubs={s.unique_publications} ur={s.unique_references} "
          f"tr={s.total_references} tr/ur={s.ratio:.2f}")


def cmd_observe(run: Run) -> None:
    table = run.observed
    run.write(write_pair_csv, table, run.out / "observed_pairs.csv")
    print(f"observed {len(table)} distinct journal pairs, {table.total_pairs} total")


def cmd_simulate(run: Run) -> None:
    sims = run.sims
    run.write(write_pair_means_csv, sims, run.out / "pair_means.csv")
    print(f"simulated {sims.cfg.n_simulations} shuffles, {len(sims)} pairs in support")


def cmd_zscore(run: Run) -> None:
    run.write(write_pair_stats_csv, run.stats, run.out / "pair_stats.csv")
    print(f"z-scores for {len(run.stats)} pairs "
          f"({run.diagnostics['sigma_zero_pairs']} undefined)")


def cmd_classify(run: Run) -> None:
    run.stats = run.read(run.args.pair_stats, read_pair_stats_csv)
    run.write(write_summaries_csv, run.labeled, run.out / "classification.csv")
    d = run.diagnostics
    print(f"classified {d['classified']} publications (threshold {d['threshold']!r}, "
          f"{d['excluded_no_defined_pairs']} excluded)")


def cmd_hits(run: Run) -> None:
    run.labeled = run.read(run.args.classification, read_summaries_csv)
    run.write(write_hit_report_csv, run.report, run.out / "hit_report.csv")
    run.write(write_hit_tests_json, run.report, run.out / "hit_tests.json")
    print(f"hit rates at top {run.args.hit_pct}% ({run.report.total_hits} hits):")
    print(format_hit_grid(run.report))


def cmd_kld(run: Run) -> None:
    """K-L divergence against the local background, plus the global one given a pool."""
    rows = [run.divergence(run.simulate("local"))]
    ratio = None
    if run.inputs[1] is not None:
        rows.append(run.divergence(run.simulate("global")))
        ratio = rows[1].kld / rows[0].kld if rows[0].kld > 0 else float("inf")
    run.write(write_divergence_csv, rows, run.out / "kld.csv", ratio=ratio)
    run.diagnostics.update(kld_local=rows[0].kld,
                           kld_global=rows[1].kld if len(rows) > 1 else None,
                           ratio=ratio)
    for row in rows:
        print(f"kld {row.corpus_tag} {row.background}: {row.kld:.4f} bits "
              f"({row.n_support} pairs)")
    if ratio is not None:
        print(f"global/local ratio: {ratio:.2f}")


def cmd_compose(run: Run) -> None:
    outcome, rows = run.compose(include_deleted=not run.args.survivors_only)
    run.write(write_composition_csv, rows, run.out / "composition.csv")
    if run.args.dump_shuffled:
        run.write(export_corpus, outcome.corpus, run.args.dump_shuffled)
    print(f"composition over {len(rows)} subjects, max fold {run.diagnostics['max_fold']}")


def cmd_synth(run: Run) -> None:
    a = run.args
    names = {f.name for f in fields(SynthConfig)}
    cfg = SynthConfig(**{k: v for k, v in vars(a).items() if k in names})
    with run.timed("synth"):
        result = generate(cfg)
        export_corpus(result.pool, run.out)
        for label, sub in result.by_discipline.items():
            export_corpus(sub, run.out / label)
    run.diagnostics.update(publications=len(result.pool.publications),
                           references=len(result.pool.references),
                           citations=result.pool.n_citations(),
                           disciplines=sorted(result.by_discipline))
    print(f"synthesized {len(result.pool.publications)} publications, "
          f"{result.pool.n_citations()} citations, "
          f"{cfg.n_disciplines} disciplines under {run.out}")


def cmd_bench(run: Run) -> None:
    a = run.args
    algorithms = [alg for alg in a.algorithms.split(",") if alg]
    check_algorithms(algorithms)
    corpus, pool = run.inputs
    timings = benchmark_algorithms(corpus, pool, algorithms=algorithms, n_simulations=a.sims,
                                   master_seed=a.seed, umsj_max_retries=a.max_retries)
    run.timings.update(timings)
    run.write(write_rows, run.out / "bench.csv",
              ("algorithm", "n_simulations", "seconds", "sims_per_second"),
              [(alg, a.sims, secs, a.sims / secs if secs > 0 else float("inf"))
               for alg, secs in zip(algorithms, map(timings.get, algorithms))])
    run.diagnostics["n_simulations"] = a.sims
    print(f"{'algorithm':>10} {'sims':>6} {'seconds':>12}")
    for alg in algorithms:
        print(f"{alg:>10} {a.sims:>6} {timings[alg]:>12.3f}")


def cmd_pipeline(run: Run) -> None:
    """The outputs of observe, zscore, classify, hits, kld and compose, in that order."""
    run.write(write_pair_csv, run.observed, run.out / "observed_pairs.csv")
    run.write(write_pair_stats_csv, run.stats, run.out / "pair_stats.csv")
    run.write(write_summaries_csv, run.labeled, run.out / "classification.csv")
    run.write(write_hit_report_csv, run.report, run.out / "hit_report.csv")
    run.write(write_hit_tests_json, run.report, run.out / "hit_tests.json")
    row = run.divergence(run.sims)
    run.write(write_divergence_csv, [row], run.out / "kld.csv")
    run.diagnostics["kld"] = row.kld
    run.write(write_composition_csv, run.compose()[1], run.out / "composition.csv")
    print(f"pipeline complete: {len(run.labeled)} publications classified, "
          f"threshold {run.diagnostics['threshold']:.4f}, "
          f"kld({row.background}) {row.kld:.4f} bits")
    print(format_hit_grid(run.report))


def cmd_rerun(args: argparse.Namespace) -> int:
    manifest = RunManifest.load(args.manifest)
    for path, digest in manifest.input_digests.items():
        if not Path(path).exists():
            raise ValueError(f"manifest input {path} is missing")
        if file_digest(path) != digest:
            raise ValueError(f"manifest input {path} has changed since the recorded run")
    new_argv = list(manifest.argv)
    if args.out:
        new_argv += ["--out", args.out]
    recorded = COMMANDS.get(manifest.command)
    if args.workers is not None and recorded and "workers" in recorded[2]:
        new_argv += ["--workers", str(args.workers)]
    return main(new_argv)


def _int_or_list(text: str):
    if "," in text:
        return [int(v) for v in text.split(",") if v]
    return int(text)


# Every flag, declared once in its group; a subcommand takes the groups it reads.
FLAG_GROUPS: dict[str, list[tuple[str, dict]]] = {
    "corpus": [
        ("--pubs", {"required": True, "help": "publications TSV"}),
        ("--refs", {"required": True, "help": "references TSV"}),
        ("--cites", {"required": True, "help": "citations TSV"}),
        ("--slice-year", {"type": int, "default": None}),
    ],
    "pool": [
        ("--pool-pubs", {"help": "substitution-pool publications TSV"}),
        ("--pool-refs", {"help": "substitution-pool references TSV"}),
        ("--pool-cites", {"help": "substitution-pool citations TSV"}),
    ],
    "background": [("--background", {"choices": BACKGROUNDS, "default": SimConfig.background})],
    "algorithm": [("--algorithm", {"choices": ALGORITHMS, "default": SimConfig.algorithm})],
    "shuffle": [
        ("--seed", {"type": int, "default": SimConfig.master_seed}),
        ("--max-retries", {"type": int, "default": SimConfig.umsj_max_retries}),
    ],
    "sims": [("--sims", {"type": int, "default": SimConfig.n_simulations})],
    "workers": [("--workers", {"type": int, "default": os.cpu_count() or 1})],
    "tag": [("--tag", {"default": "corpus", "help": "corpus label used in output rows"})],
    "novelty": [("--novelty-pct", {"type": int, "choices": NOVELTY_PERCENTILES,
                                   "default": ClassifyConfig.novelty_percentile})],
    "hit": [("--hit-pct", {"type": int, "choices": HIT_PERCENTILES,
                           "default": HitConfig.hit_percentile})],
    "epsilon": [("--epsilon", {"type": float, "default": DEFAULT_EPSILON})],
    "pair-stats": [("--pair-stats", {"required": True, "help": "pair_stats.csv from zscore"})],
    "classification": [("--classification", {"required": True,
                                             "help": "classification.csv from classify"})],
    "compose": [
        ("--survivors-only", {"action": "store_true",
                              "help": "count only publications surviving error correction"}),
        ("--dump-shuffled", {"default": None,
                             "help": "directory for a TSV dump of the shuffled corpus"}),
    ],
    "bench": [("--algorithms", {"default": ",".join(ALGORITHMS)})],
    # Each dest is the SynthConfig field the flag sets; its default is that field's.
    "synth": [
        (flag, {"dest": dest, "type": kind, "default": getattr(SynthConfig, dest)})
        for flag, dest, kind in (
            ("--disciplines", "n_disciplines", int),
            ("--journals-per-discipline", "journals_per_discipline", int),
            ("--pubs-per-discipline", "pubs_per_discipline", _int_or_list),
            ("--ref-pool", "ref_pool_per_discipline", _int_or_list),
            ("--refs-mean", "refs_mean", float),
            ("--refs-dispersion", "refs_dispersion", float),
            ("--p-intra", "p_intra", float),
            ("--skew", "skew", float),
            ("--year", "slice_year", int),
            ("--ref-years", "n_ref_years", int),
            ("--seed", "seed", int),
        )
    ],
}

SIMULATING = ["corpus", "pool", "background", "algorithm", "shuffle", "sims", "workers"]

# Subcommand: (handler, help, flag groups). Each also takes --out.
COMMANDS = {
    "ingest": (cmd_ingest, "validate and normalize a corpus", ["corpus"]),
    "summarize": (cmd_summarize, "corpus size statistics", ["corpus", "tag"]),
    "observe": (cmd_observe, "observed journal-pair frequencies", ["corpus"]),
    "simulate": (cmd_simulate, "expected pair frequencies over N shuffles", SIMULATING),
    "zscore": (cmd_zscore, "pair z-scores against the null model", SIMULATING),
    "classify": (cmd_classify, "novelty/conventionality categories",
                 ["corpus", "pair-stats", "novelty"]),
    "hits": (cmd_hits, "hit rates and goodness-of-fit tests",
             ["corpus", "classification", "hit"]),
    "kld": (cmd_kld, "observed-vs-simulated divergence per background",
            ["corpus", "pool", "algorithm", "shuffle", "sims", "workers", "epsilon", "tag"]),
    "compose": (cmd_compose, "subject composition before/after one shuffle",
                ["corpus", "pool", "background", "algorithm", "shuffle", "compose"]),
    "synth": (cmd_synth, "generate a synthetic corpus", ["synth"]),
    "bench": (cmd_bench, "time the shuffle algorithms",
              ["corpus", "pool", "background", "shuffle", "sims", "bench"]),
    "pipeline": (cmd_pipeline, "run the whole chain",
                 SIMULATING + ["novelty", "hit", "epsilon", "tag"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocite",
        description="Journal co-citation novelty analysis with constrained null models",
    )
    parser.add_argument("--version", action="version", version=f"cocite {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # No abbreviations: a prefix such as bench's --algorithm would silently
    # mean --algorithms.
    for name, (_, help_text, groups) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for group in groups:
            for flag, options in FLAG_GROUPS[group]:
                p.add_argument(flag, **options)
        p.add_argument("--out", required=True, help="output directory (created if missing)")

    p = sub.add_parser("rerun", help="re-execute the run recorded in a manifest",
                       allow_abbrev=False)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--workers", type=int, default=None,
                   help="override the worker count of a subcommand that takes --workers")
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand --config key=value files in place; explicit flags win.

    Config entries are spliced in right after the subcommand so that
    anything the user typed later overrides them.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ValueError("--config requires a file path")
    path = argv[i + 1]
    expanded: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: config lines must be key=value, got {line!r}")
            key, value = line.split("=", 1)
            expanded += [f"--{key.strip()}", value.strip()]
    rest = argv[:i] + argv[i + 2:]
    if not rest:
        return expanded
    return [rest[0]] + expanded + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        args = build_parser().parse_args(argv)
        if args.command == "rerun":
            return cmd_rerun(args)
        run = Run(args, argv)
        COMMANDS[args.command][0](run)
        run.save()
        return 0
    except (IngestError, ValueError, OSError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
