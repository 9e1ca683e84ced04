"""Benchmark workloads: frozen synthetic corpora and the pipeline run on each.

Every input is produced by ``cocite synth`` from a fixed corpus seed, so a
workload is the same traffic on every commit; ``frozen.json`` holds the
sha256 of each generated TSV and the benchmark refuses to time a corpus
whose regenerated files differ. The benchmark's own ``--seed n`` sets the
pipeline's simulation seed (``--seed`` of ``cocite pipeline``) to
``n % SIM_SEEDS``; reference output digests are frozen for each of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Simulation seeds with frozen reference outputs; --seed n selects n % SIM_SEEDS.
SIM_SEEDS = 8

# Arguments of ``cocite synth`` per corpus. S is the ROADMAP's scenario S;
# L8 is scenario L at an eighth of its publications and reference pools.
CORPORA: dict[str, dict[str, str]] = {
    "S": {
        "--disciplines": "4",
        "--pubs-per-discipline": "2500",
        "--ref-pool": "4000",
        "--journals-per-discipline": "4",
        "--refs-mean": "10",
        "--seed": "77",
    },
    "L8": {
        "--disciplines": "4",
        "--pubs-per-discipline": "3250",
        "--ref-pool": "2500",
        "--journals-per-discipline": "6",
        "--refs-mean": "10",
        "--seed": "88",
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # key of CORPORA
    subcorpus: str | None  # analyzed sub-corpus directory; None means the pool itself
    background: str
    sims: int
    workers: int
    probe_sims: int  # simulations timed layer by layer in the traced run
    scaling_sims: int  # simulation range timed at 1 and 2 workers in the traced run

    def corpus_paths(self, corpus_dir: Path) -> tuple[Path, Path, Path]:
        d = corpus_dir if self.subcorpus is None else corpus_dir / self.subcorpus
        return d / "publications.tsv", d / "references.tsv", d / "citations.tsv"

    def pipeline_args(self, corpus_dir: Path, sim_seed: int, out: Path,
                      workers: int | None = None) -> list[str]:
        pubs, refs, cites = self.corpus_paths(corpus_dir)
        args = ["pipeline", "--pubs", str(pubs), "--refs", str(refs), "--cites", str(cites)]
        if self.background == "global":
            args += ["--pool-pubs", str(corpus_dir / "publications.tsv"),
                     "--pool-refs", str(corpus_dir / "references.tsv"),
                     "--pool-cites", str(corpus_dir / "citations.tsv")]
        args += ["--background", self.background, "--algorithm", "repcs",
                 "--sims", str(self.sims), "--seed", str(sim_seed),
                 "--workers", str(workers or self.workers),
                 "--novelty-pct", "10", "--hit-pct", "10", "--out", str(out)]
        return args


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sims-S-local", "S", None, "local", sims=300, workers=2,
                 probe_sims=100, scaling_sims=200),
        Workload("analysis-L-local", "L8", None, "local", sims=20, workers=1,
                 probe_sims=20, scaling_sims=20),
        Workload("sims-D00-global", "S", "D00", "global", sims=400, workers=2,
                 probe_sims=100, scaling_sims=200),
    )
}


def synth_args(corpus: str, out: Path) -> list[str]:
    args = ["synth"]
    for flag, value in CORPORA[corpus].items():
        args += [flag, value]
    return args + ["--out", str(out)]


def corpus_tsvs(corpus_dir: Path) -> list[str]:
    """Relative paths of every TSV the synth run wrote, in a fixed order."""
    return sorted(p.relative_to(corpus_dir).as_posix() for p in corpus_dir.rglob("*.tsv"))
