"""The benchmark's traced mode runs against the library as it stands.

``perfbench/probe.py`` calls library functions and ``CorpusIndex`` methods
by name; a renamed one would break ``perfbench/run.py --trace 1`` without
failing any other test. This runs the probe's trace in process on a tiny
corpus, once with a local and once with a global background.
"""

import json
import sys
from pathlib import Path

import pytest

from cocite.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import probe  # noqa: E402
import workloads  # noqa: E402

OUTPUTS = ["observed_pairs.csv", "pair_stats.csv", "classification.csv", "hit_report.csv",
           "hit_tests.json", "kld.csv", "composition.csv"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--disciplines", "2", "--pubs-per-discipline", "60",
                 "--ref-pool", "200", "--seed", "31", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("background,subcorpus,n_pubs",
                         [("local", None, 120), ("global", "D00", 60)])
def test_trace_runs_every_probe_on_a_tiny_corpus(tmp_path, corpus_dir, background, subcorpus,
                                                 n_pubs):
    wl = workloads.Workload(f"tiny-{background}", "S", subcorpus, background, sims=6,
                            workers=1, probe_sims=3, scaling_sims=4)
    out, trace_out = tmp_path / "out", tmp_path / "trace.json"
    probe.cmd_trace(wl, corpus_dir, 1, out, trace_out)
    trace = json.loads(trace_out.read_text(encoding="utf-8"))
    names = {span["name"] for span in trace["spans"]}
    assert {"probe.layers", "indexing.dedupe", "indexing.pair_count",
            "simulate.run_w1", "simulate.run_w2"} <= names
    assert all(span["end"] is not None for span in trace["spans"])
    assert trace["counters"]["n_publications"] == n_pubs
    for name in OUTPUTS:
        assert (out / name).stat().st_size > 0
