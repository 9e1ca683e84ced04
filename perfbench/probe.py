"""Child process of the benchmark: set-up timing and the traced pipeline.

``setup`` imports cocite, ingests the corpus (and the pool) and builds the
permutation groups, which is everything ``cocite pipeline`` does before
its first shuffle; the parent times the process from launch to exit.

``trace`` calls each module's public functions in the order
``cocite.cli.cmd_pipeline`` uses, wrapping every call in a span, writes
the same seven outputs, then probes single layers: the four steps inside
one simulation and ``run_simulations`` at 1 and 2 workers. Spans are
kept in memory and written as JSON when the process ends. Timestamps are
``time.monotonic()``, the clock the parent uses, so the parent can place
them against the launch of this process.

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import WORKLOADS

from cocite.classify import ClassifyConfig, classify_corpus, corpus_summaries, index_pair_stats
from cocite.classify import write_summaries_csv
from cocite.corpus import IngestConfig, ingest
from cocite.diverge import composition_fold, kl_divergence
from cocite.diverge import write_composition_csv, write_divergence_csv
from cocite.impact import HitConfig, designate_hits, hit_report
from cocite.impact import write_hit_report_csv, write_hit_tests_json
from cocite.pairs import observed_frequencies, write_pair_csv
from cocite.shuffle import build_groups, repcs_shuffle
from cocite.simulate import SimConfig, run_simulations, undefined_pair_count, zscores
from cocite.simulate import write_pair_stats_csv


class Tracer:
    """Spans of one traced pipeline run: name, start, end and parent span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.monotonic(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.monotonic()


def rss_hwm_mb() -> float:
    """High-water mark of this process and its reaped children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def load(wl, corpus_dir: Path):
    pubs, refs, cites = wl.corpus_paths(corpus_dir)
    corpus = ingest(pubs, refs, cites, IngestConfig(background_tag="local"))
    pool = None
    if wl.background == "global":
        pool = ingest(corpus_dir / "publications.tsv", corpus_dir / "references.tsv",
                      corpus_dir / "citations.tsv", IngestConfig(background_tag="global"))
    return corpus, pool


def cmd_setup(wl, corpus_dir: Path) -> None:
    corpus, pool = load(wl, corpus_dir)
    build_groups(corpus, pool)


def traced_pipeline(t: Tracer, wl, corpus_dir: Path, seed: int, out: Path, counters: dict):
    """cmd_pipeline's calls, in its order, each inside a span."""
    out.mkdir(parents=True, exist_ok=True)
    with t.span("corpus.ingest"):
        corpus, pool = load(wl, corpus_dir)
    counters["corpus.rss_hwm_mb"] = rss_hwm_mb()

    with t.span("pairs.observed"):
        observed = observed_frequencies(corpus)
    counters["pairs.pair_instances"] = observed.total_pairs
    with t.span("cli.write"):
        write_pair_csv(observed, out / "observed_pairs.csv")

    cfg = SimConfig(n_simulations=wl.sims, master_seed=seed, background=wl.background,
                    algorithm="repcs", workers=wl.workers)
    with t.span("simulate.run"):
        sims = run_simulations(corpus, pool, cfg)
    counters["simulate.rss_hwm_mb"] = rss_hwm_mb()
    counters["per_sim_deleted"] = sims.per_sim_deleted
    counters["per_sim_total_pairs"] = sims.per_sim_total_pairs
    counters["n_publications"] = len(corpus.publications)

    with t.span("simulate.zscores"):
        stats = zscores(observed, sims)
        undefined_pair_count(stats)
    with t.span("cli.write"):
        write_pair_stats_csv(stats, out / "pair_stats.csv")

    with t.span("classify.summaries"):
        summaries, _ = corpus_summaries(corpus, index_pair_stats(stats))
    with t.span("classify.label"):
        labeled, _ = classify_corpus(summaries, ClassifyConfig(10))
    counters["classify.rss_hwm_mb"] = rss_hwm_mb()
    with t.span("cli.write"):
        write_summaries_csv(labeled, out / "classification.csv")

    with t.span("impact.hits"):
        report = hit_report(labeled, designate_hits(corpus.publications, HitConfig(10)))
    with t.span("cli.write"):
        write_hit_report_csv(report, out / "hit_report.csv")
        write_hit_tests_json(report, out / "hit_tests.json")

    with t.span("diverge.kld"):
        row = kl_divergence(observed, sims, corpus.journals(), 1e-12, corpus_tag="corpus",
                            background=wl.background, year=corpus.slice_year)
    with t.span("cli.write"):
        write_divergence_csv([row], out / "kld.csv")

    with t.span("diverge.compose"):
        with t.span("indexing.build"):
            plan = build_groups(corpus, pool)
        with t.span("shuffle.repcs"):
            outcome = repcs_shuffle(plan, seed)
        with t.span("diverge.composition_fold"):
            rows = composition_fold(corpus, outcome)
    with t.span("cli.write"):
        write_composition_csv(rows, out / "composition.csv")
    return corpus, pool, plan


def probe_layers(t: Tracer, plan, seed: int, n_sims: int, counters: dict) -> None:
    """The four steps of one repcs simulation, each timed on the same assignment.

    ``ShuffleOutcome`` exposes its slot assignment only as ``_assignment``;
    the index methods below are the ones ``_run_sim_range`` calls.
    """
    idx = plan.index
    written = 0
    with t.span("probe.layers"):
        for s in range(n_sims):
            with t.span("shuffle.repcs"):
                outcome = repcs_shuffle(plan, seed, sim_index=s)
            assignment = outcome._assignment
            with t.span("indexing.dedupe"):
                deleted = idx.duplicate_pub_rows(assignment)
            with t.span("indexing.fixed_points"):
                idx.fixed_points(assignment)
            with t.span("indexing.pair_count"):
                _, counts = idx.pair_key_counts(assignment, exclude_rows=deleted)
            # int64 arrays pair_key_counts allocates: per surviving slot the
            # row selection (only when rows are excluded), the gathered
            # assignment and the journal ranks; per pair instance the two
            # triu gathers, min, max, lo*n_journals, the key and its
            # concatenation; plus the dense bincount table.
            slots = int(idx.c_counts.sum() - idx.c_counts[deleted].sum())
            pairs = int(counts.sum())
            per_slot = 3 if len(deleted) else 2
            written += 8 * (per_slot * slots + 7 * pairs + idx.n_journals ** 2)
    counters["pair_count_bytes_computed"] = written / n_sims


def probe_scaling(t: Tracer, wl, corpus, pool, seed: int) -> None:
    for workers in (1, 2):
        cfg = SimConfig(n_simulations=wl.scaling_sims, master_seed=seed,
                        background=wl.background, algorithm="repcs", workers=workers)
        with t.span(f"simulate.run_w{workers}"):
            run_simulations(corpus, pool, cfg)


def cmd_trace(wl, corpus_dir: Path, seed: int, out: Path, trace_out: Path) -> None:
    t = Tracer()
    counters: dict = {}
    corpus, pool, plan = traced_pipeline(t, wl, corpus_dir, seed, out, counters)
    replica_end = time.monotonic()
    probe_layers(t, plan, seed, wl.probe_sims, counters)
    probe_scaling(t, wl, corpus, pool, seed)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"replica_end": replica_end, "counters": counters, "spans": t.spans}, fh)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=["setup", "trace"])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--corpus-dir", required=True, type=Path)
    p.add_argument("--sim-seed", type=int, default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--trace-out", type=Path)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.mode == "setup":
        cmd_setup(wl, args.corpus_dir)
    else:
        cmd_trace(wl, args.corpus_dir, args.sim_seed, args.out, args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
