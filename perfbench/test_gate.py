"""Self-check of the correctness gate in ``gate.py``.

    python3 -m pytest -q perfbench/test_gate.py
    python3 perfbench/test_gate.py

Runs ``cocite pipeline`` once on a small synthetic corpus, takes its
outputs as the reference, and checks that the gate passes them, trips on
one flipped byte in pair_stats.csv, and trips on a dropped
classification row through both its digest and its invariant checks.
"""

from __future__ import annotations

import shutil
import sys
from functools import cache
from pathlib import Path

import gate
from run import WORK, cocite

SELF_CHECK = WORK / "gate-self-check"


@cache
def good_run() -> tuple[Path, gate.Expected, dict[str, str]]:
    shutil.rmtree(SELF_CHECK, ignore_errors=True)
    data, out = SELF_CHECK / "data" / "D00", SELF_CHECK / "good"
    log = SELF_CHECK / "children.log"
    SELF_CHECK.mkdir(parents=True)
    assert cocite(["synth", "--disciplines", "2", "--pubs-per-discipline", "60",
                   "--ref-pool", "200", "--seed", "31", "--out", str(data.parent)],
                  log)["returncode"] == 0
    assert cocite(["pipeline", "--pubs", str(data / "publications.tsv"),
                   "--refs", str(data / "references.tsv"),
                   "--cites", str(data / "citations.tsv"),
                   "--sims", "20", "--seed", "3", "--workers", "1", "--out", str(out)],
                  log)["returncode"] == 0
    expected = gate.expected_from_tsvs(data / "publications.tsv", data / "citations.tsv")
    return out, expected, gate.digests(out)


def mutated_copy(name: str) -> Path:
    src = good_run()[0]
    dst = SELF_CHECK / name
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def test_gate_passes_reference_outputs():
    out, expected, reference = good_run()
    assert gate.check_outputs(out, expected, reference) == []


def test_gate_trips_on_one_flipped_byte_in_pair_stats():
    _, expected, reference = good_run()
    out = mutated_copy("flipped")
    path = out / "pair_stats.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    problems = gate.check_outputs(out, expected, reference)
    assert any(p.startswith("pair_stats.csv") for p in problems), problems


def test_gate_trips_on_a_dropped_classification_row():
    _, expected, reference = good_run()
    out = mutated_copy("dropped")
    path = out / "classification.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    problems = gate.check_outputs(out, expected, reference)
    assert any(p.startswith("classification.csv: sha256") for p in problems), problems
    # The invariants alone catch it too, with the digest check satisfied.
    invariant_only = gate.check_outputs(out, expected, gate.digests(out))
    assert any("publications missing" in p for p in invariant_only), invariant_only
    assert any(p.startswith("hit_report.csv") for p in invariant_only), invariant_only


def test_percentile_cutoff_matches_numpy():
    import numpy as np

    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 100, 1001):
        values = rng.integers(0, 50, size=n).tolist()
        for pct in (90.0, 95.0, 98.0, 99.0):
            assert gate.percentile_cutoff(values, pct) == float(np.percentile(values, pct))


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    shutil.rmtree(SELF_CHECK, ignore_errors=True)
    sys.exit(0)
