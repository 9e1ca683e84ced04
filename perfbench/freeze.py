"""Regenerate ``frozen.json``: input digests and reference output digests.

    python3 perfbench/freeze.py

Generates every corpus, records the sha256 of its TSVs, then runs
``cocite pipeline`` once per workload and simulation seed at one worker
and records the sha256 of the seven outputs. Each reference run must
pass the invariant half of the gate, and seed 0 is run again at two
workers to confirm the outputs do not depend on the worker count.
Freezing accepts the current program's outputs as correct, so run it
only on a commit whose outputs are known good, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
from run import BENCH_DIR, WORK, cocite, generate_corpus
from workloads import CORPORA, SIM_SEEDS, WORKLOADS


def main() -> int:
    work = WORK / "freeze"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "children.log"
    frozen: dict = {"inputs": {}, "outputs": {}}
    for corpus in CORPORA:
        frozen["inputs"][corpus] = generate_corpus(corpus, work / corpus, log)
    for wl in WORKLOADS.values():
        corpus_dir = work / wl.corpus
        pubs, _, cites = wl.corpus_paths(corpus_dir)
        expected = gate.expected_from_tsvs(pubs, cites)
        refs = frozen["outputs"][wl.name] = {}
        for seed in range(SIM_SEEDS):
            out = work / "out" / f"{wl.name}-{seed}"
            res = cocite(wl.pipeline_args(corpus_dir, seed, out, workers=1), log)
            if res["returncode"] != 0:
                print(f"{wl.name} seed {seed}: pipeline failed (see {log})", file=sys.stderr)
                return 1
            refs[str(seed)] = gate.digests(out)
            problems = gate.check_outputs(out, expected, refs[str(seed)])
            if problems:
                print(f"{wl.name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            print(f"{wl.name} seed {seed}: {res['wall_s']:.2f} s at 1 worker")
        out = work / "out" / f"{wl.name}-0-w2"
        res = cocite(wl.pipeline_args(corpus_dir, 0, out, workers=2), log)
        if res["returncode"] != 0 or gate.digests(out) != refs["0"]:
            print(f"{wl.name}: outputs at 2 workers differ from 1 worker", file=sys.stderr)
            return 1
    with open(BENCH_DIR / "frozen.json", "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
