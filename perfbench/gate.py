"""Correctness gate for one pipeline output directory.

Two independent checks; a run passes only if both find nothing:

* digests: each output file's sha256 equals the frozen reference for the
  workload and simulation seed (the determinism contract makes outputs
  byte-identical for any worker count);
* invariants: recomputed here from the input TSVs without importing
  cocite. Sum of f_obs equals the sum of C(n_i, 2) over publications,
  every publication is classified exactly once with a valid category, and
  the hit counts agree with a top-percentile cut of the citation counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

OUTPUTS = ("observed_pairs.csv", "pair_stats.csv", "classification.csv",
           "hit_report.csv", "hit_tests.json", "kld.csv", "composition.csv")
CATEGORIES = ("LNLC", "LNHC", "HNLC", "HNHC")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digests(out_dir: Path) -> dict[str, str]:
    return {name: sha256(out_dir / name) for name in OUTPUTS}


@dataclass(frozen=True)
class Expected:
    """Facts about the analyzed corpus that any correct run must reproduce."""

    pair_instances: int  # sum over publications of C(n_i, 2)
    pub_ids: frozenset[str]
    hits: frozenset[str]  # publications at or above the hit percentile cutoff


def _tsv_rows(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        next(reader)
        yield from reader


def percentile_cutoff(values: list[int], pct: float) -> float:
    """Linear-interpolation percentile, as numpy's default method defines it.

    Like numpy, interpolates from the upper neighbour when the fraction is
    at least one half, so the two agree to the last bit.
    """
    a = sorted(values)
    pos = (len(a) - 1) * (pct / 100.0)
    lo = math.floor(pos)
    if lo + 1 >= len(a):
        return float(a[-1])
    t = pos - lo
    diff = a[lo + 1] - a[lo]
    return a[lo + 1] - diff * (1.0 - t) if t >= 0.5 else a[lo] + diff * t


def expected_from_tsvs(pubs_tsv: Path, cites_tsv: Path, hit_pct: int = 10) -> Expected:
    citations = {row[0]: int(row[3]) for row in _tsv_rows(pubs_tsv)}
    n_refs = Counter(row[0] for row in _tsv_rows(cites_tsv))
    cutoff = percentile_cutoff(list(citations.values()), 100.0 - hit_pct)
    return Expected(
        pair_instances=sum(n * (n - 1) // 2 for n in n_refs.values()),
        pub_ids=frozenset(citations),
        hits=frozenset(p for p, c in citations.items() if c >= cutoff),
    )


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _invariant_problems(out_dir: Path, exp: Expected) -> list[str]:
    problems = []
    f_obs = sum(int(r[2]) for r in _csv_rows(out_dir / "observed_pairs.csv"))
    if f_obs != exp.pair_instances:
        problems.append(f"observed_pairs.csv: sum of frequency {f_obs} != {exp.pair_instances}")
    f_obs = sum(int(r[2]) for r in _csv_rows(out_dir / "pair_stats.csv"))
    if f_obs != exp.pair_instances:
        problems.append(f"pair_stats.csv: sum of f_obs {f_obs} != {exp.pair_instances}")

    rows = _csv_rows(out_dir / "classification.csv")
    ids = Counter(r[0] for r in rows)
    repeated = [p for p, k in ids.items() if k > 1]
    if repeated:
        problems.append(f"classification.csv: {len(repeated)} publications listed twice")
    if set(ids) != exp.pub_ids:
        missing = len(exp.pub_ids - set(ids))
        extra = len(set(ids) - exp.pub_ids)
        problems.append(f"classification.csv: {missing} publications missing, {extra} unknown")
    bad = [r[0] for r in rows if r[4] not in CATEGORIES]
    if bad:
        problems.append(f"classification.csv: {len(bad)} rows without a valid category")

    articles = Counter(r[4] for r in rows)
    hits = Counter(r[4] for r in rows if r[0] in exp.hits)
    for r in _csv_rows(out_dir / "hit_report.csv"):
        if (int(r[1]), int(r[2])) != (articles[r[0]], hits[r[0]]):
            problems.append(f"hit_report.csv: {r[0]} has {r[1]} articles/{r[2]} hits, "
                            f"expected {articles[r[0]]}/{hits[r[0]]}")
    with open(out_dir / "hit_tests.json", encoding="utf-8") as fh:
        tests = json.load(fh)
    if (tests["total_articles"], tests["total_hits"]) != (len(rows), sum(hits.values())):
        problems.append(f"hit_tests.json: totals {tests['total_articles']}/{tests['total_hits']}"
                        f" != {len(rows)}/{sum(hits.values())}")
    return problems


def check_outputs(out_dir: Path, exp: Expected, reference: dict[str, str]) -> list[str]:
    """Every problem found in ``out_dir``; an empty list means the run is correct."""
    problems = []
    for name in OUTPUTS:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
        elif sha256(path) != reference[name]:
            problems.append(f"{name}: sha256 differs from the reference")
    if any(p.endswith("missing") for p in problems):
        return problems
    try:
        problems += _invariant_problems(out_dir, exp)
    except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
