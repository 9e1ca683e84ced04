"""Alternate ``cocite`` runs of two source trees and compare wall, CPU and peak RSS.

Usage, from anywhere::

    python tools/ab.py BASE_TREE CHANGE_TREE [--runs N] [--work DIR] -- COCITE_ARGS...

Each tree is a checkout whose package sits in ``<tree>/src``. The two trees
run ``python -m cocite.cli COCITE_ARGS --out <work>/<side>`` alternately,
base first, ``--runs`` times each, with ``PYTHONPATH=<tree>/src``. Each run's
wall seconds, user plus system CPU seconds and ``ru_maxrss`` come from
``os.wait4`` on the child. The script prints every run, then each side's
median and quartiles per metric and how many pairs the change won, and
finally whether the two sides' last outputs (every file but
``run.manifest``) are byte-identical. It exits non-zero when the outputs
differ, and at once when a run fails. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

METRICS = ("wall_s", "cpu_s", "maxrss_mb")


def run_once(tree: Path, args: list[str], out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "cocite.cli", *args, "--out", str(out)],
                            env=env, stdout=subprocess.DEVNULL)
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": time.monotonic() - start, "cpu_s": ru.ru_utime + ru.ru_stime,
            "maxrss_mb": ru.ru_maxrss / 1024.0, "returncode": proc.returncode}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def differing_outputs(a: Path, b: Path) -> list[str]:
    """Names of the files, ``run.manifest`` aside, that differ or exist on one side only."""
    names = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    names.discard("run.manifest")
    return sorted(n for n in names if not ((a / n).is_file() and (b / n).is_file()
                                           and filecmp.cmp(a / n, b / n, shallow=False)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=5, help="runs per tree (default 5)")
    parser.add_argument("--work", type=Path, help="output directory (default: a temporary one)")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    a = parser.parse_args(argv[:cut])
    args = argv[cut + 1:]
    if a.runs < 1 or not args:
        parser.error("need --runs of at least 1 and cocite arguments after --")
    trees = {"base": a.base.resolve(), "change": a.change.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        work = a.work or Path(tmp)
        runs: dict[str, list[dict]] = {side: [] for side in trees}
        print(f"{'run':>4} {'side':>6} " + " ".join(f"{m:>10}" for m in METRICS))
        for i in range(a.runs):
            for side, tree in trees.items():
                res = run_once(tree, args, work / side)
                runs[side].append(res)
                print(f"{i:>4} {side:>6} " + " ".join(f"{res[m]:>10.3f}" for m in METRICS)
                      + ("" if res["returncode"] == 0 else f"  exit {res['returncode']}"),
                      flush=True)
                if res["returncode"]:
                    return 1
        print(f"{'metric':>10} {'side':>6} {'q1':>10} {'median':>10} {'q3':>10}")
        for m in METRICS:
            for side in trees:
                q1, med, q3 = quartiles([r[m] for r in runs[side]])
                print(f"{m:>10} {side:>6} {q1:>10.3f} {med:>10.3f} {q3:>10.3f}")
            wins = sum(c[m] < b[m] for b, c in zip(runs["base"], runs["change"]))
            print(f"{m:>10} change lower in {wins} of {a.runs} pairs")
        differ = differing_outputs(work / "base", work / "change")
        print("outputs: " + (f"differ: {', '.join(differ)}" if differ else "byte-identical"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
