"""Benchmark of ``cocite pipeline`` on frozen synthetic workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload sims-S-local --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` every timed operation is one ``cocite pipeline`` run in
a fresh process, checked by ``gate.py``. After one untimed warm-up run,
the end-to-end metrics are the medians over at least three runs,
repeated while a typical run still ends within ``--seconds`` seconds.
With ``--trace 1`` it makes untraced runs for half the time, then one
traced run (``probe.py trace``) that yields the per-layer metrics.
The last line of standard output is the JSON result; see README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from workloads import SIM_SEEDS, WORKLOADS, corpus_tsvs, synth_args

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
MIN_RUNS = 3
WARMUP_RUNS = 1
SETUP_REPEATS = 5


class InputsChanged(RuntimeError):
    """The regenerated corpus differs from the frozen one."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args: list[str], log: Path) -> dict:
    """Run ``python3 <args>`` to completion; wall time, rusage and exit code."""
    with open(log, "ab") as fh:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": start, "wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "maxrss_mb": ru.ru_maxrss / 1024.0, "returncode": proc.returncode}


def cocite(args: list[str], log: Path) -> dict:
    return run_child(["-m", "cocite.cli", *args], log)


def load_frozen() -> dict:
    with open(BENCH_DIR / "frozen.json", encoding="utf-8") as fh:
        return json.load(fh)


def generate_corpus(corpus: str, out: Path, log: Path) -> dict[str, str]:
    """Run ``cocite synth`` for a corpus; sha256 of every TSV it wrote."""
    res = cocite(synth_args(corpus, out), log)
    if res["returncode"] != 0:
        raise InputsChanged(f"cocite synth failed for corpus {corpus} (see {log})")
    return {name: gate.sha256(out / name) for name in corpus_tsvs(out)}


def prepare_inputs(corpus: str, out: Path, log: Path, frozen: dict) -> None:
    got = generate_corpus(corpus, out, log)
    want = frozen["inputs"][corpus]
    if got != want:
        changed = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        raise InputsChanged(f"regenerated corpus {corpus} differs from the frozen inputs: "
                            f"{', '.join(changed)}")


def environment() -> dict:
    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "machine": platform.machine()}


class Session:
    """One workload at one seed: inputs, references and every child run."""

    def __init__(self, wl, seed: int, frozen: dict):
        self.wl = wl
        self.sim_seed = seed % SIM_SEEDS
        self.work = WORK / f"{wl.name}-{os.getpid()}"
        self.corpus_dir = self.work / "corpus"
        self.log = self.work / "children.log"
        self.reference = frozen["outputs"][wl.name][str(self.sim_seed)]
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            prepare_inputs(wl.corpus, self.corpus_dir, self.log, frozen)
        except InputsChanged:
            self.close()
            raise
        pubs, _, cites = wl.corpus_paths(self.corpus_dir)
        self.expected = gate.expected_from_tsvs(pubs, cites)
        self.runs: list[dict] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def check(self, res: dict, out: Path) -> None:
        if res["returncode"] != 0:
            res["problems"] = [f"exit code {res['returncode']}"]
        else:
            res["problems"] = gate.check_outputs(out, self.expected, self.reference)
        if res["problems"]:
            print(f"run failed: {'; '.join(res['problems'])}", file=sys.stderr)
        self.runs.append(res)

    def pipeline(self) -> dict:
        out = self.work / f"run{len(self.runs)}"
        loadavg = os.getloadavg()
        res = cocite(self.wl.pipeline_args(self.corpus_dir, self.sim_seed, out), self.log)
        res["loadavg_before"] = loadavg
        self.check(res, out)
        shutil.rmtree(out, ignore_errors=True)
        return res

    def pipelines_for(self, seconds: float, min_runs: int) -> list[dict]:
        """At least ``min_runs`` runs, then more while a typical run still ends in time."""
        deadline = time.monotonic() + seconds
        done: list[dict] = []
        while len(done) < min_runs or (
                time.monotonic() + statistics.median(r["wall_s"] for r in done) <= deadline):
            done.append(self.pipeline())
        return done

    def setup_times(self) -> list[float]:
        walls = []
        for _ in range(SETUP_REPEATS):
            res = run_child([str(BENCH_DIR / "probe.py"), "setup", "--workload", self.wl.name,
                             "--corpus-dir", str(self.corpus_dir)], self.log)
            if res["returncode"] != 0:
                res["problems"] = [f"set-up probe exit code {res['returncode']}"]
                self.runs.append(res)
            walls.append(res["wall_s"])
        return walls

    def traced(self) -> tuple[dict, dict]:
        out = self.work / "traced"
        trace_file = self.work / "trace.json"
        res = run_child([str(BENCH_DIR / "probe.py"), "trace", "--workload", self.wl.name,
                         "--corpus-dir", str(self.corpus_dir), "--sim-seed", str(self.sim_seed),
                         "--out", str(out), "--trace-out", str(trace_file)], self.log)
        self.check(res, out)
        trace = {}
        if res["returncode"] == 0:
            with open(trace_file, encoding="utf-8") as fh:
                trace = json.load(fh)
            trace["bytes_written"] = sum(p.stat().st_size for p in (out / n for n in gate.OUTPUTS)
                                         if p.is_file())
        return res, trace


def passed(runs: list[dict]) -> list[dict]:
    good = [r for r in runs if not r["problems"]]
    return good or runs


def end_to_end(sess: Session, seconds: float) -> dict[str, float]:
    for _ in range(WARMUP_RUNS):
        sess.pipeline()
    setup = sess.setup_times()
    runs = passed(sess.pipelines_for(seconds, MIN_RUNS))
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in runs),
    }


def per_layer(sess: Session, seconds: float) -> dict[str, float]:
    for _ in range(WARMUP_RUNS):
        sess.pipeline()
    untraced = passed(sess.pipelines_for(seconds / 2, 2))
    res, trace = sess.traced()
    if not trace:
        raise RuntimeError(f"traced run failed with exit code {res['returncode']}")
    return layer_metrics(sess.wl, res, trace,
                         statistics.median(r["wall_s"] for r in untraced))


def layer_metrics(wl, res: dict, trace: dict, untraced_wall: float) -> dict[str, float]:
    spans = trace["spans"]
    c = trace["counters"]

    def total(name: str, parent=...) -> float:
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] == name and (parent is ... or s["parent"] == parent))

    probe = next(s["id"] for s in spans if s["name"] == "probe.layers")
    k = wl.probe_sims
    repcs = total("shuffle.repcs", probe) / k * 1e3
    dedupe = total("indexing.dedupe", probe) / k * 1e3
    fixed = total("indexing.fixed_points", probe) / k * 1e3
    count = total("indexing.pair_count", probe) / k * 1e3
    permute = repcs - dedupe - fixed
    w1, w2 = total("simulate.run_w1"), total("simulate.run_w2")
    ms_per_sim = w1 / wl.scaling_sims * 1e3
    deleted = statistics.fmean(c["per_sim_deleted"])
    traced_wall = trace["replica_end"] - res["start"]
    top = sum(s["end"] - s["start"] for s in spans
              if s["parent"] is None and s["end"] <= trace["replica_end"])
    return {
        "corpus.ingest_s": total("corpus.ingest"),
        "pairs.observed_s": total("pairs.observed"),
        "pairs.pair_instances": c["pairs.pair_instances"],
        "indexing.build_s": total("indexing.build"),
        "shuffle.repcs_ms_per_sim": repcs,
        "shuffle.permute_ms_per_sim": permute,
        "indexing.dedupe_ms_per_sim": dedupe,
        "indexing.pair_count_ms_per_sim": count,
        "indexing.pair_instances_per_sim": statistics.fmean(c["per_sim_total_pairs"]),
        "indexing.pair_count_bytes_computed": c["pair_count_bytes_computed"],
        "simulate.ms_per_sim": ms_per_sim,
        "simulate.accumulate_ms_per_sim": ms_per_sim - permute - dedupe - count,
        "simulate.sims_per_s": wl.sims / total("simulate.run"),
        "simulate.parallel_efficiency": w1 / (2 * w2),
        "shuffle.deleted_pubs_per_sim": deleted,
        "shuffle.survivor_ratio": 1.0 - deleted / c["n_publications"],
        "simulate.zscores_s": total("simulate.zscores"),
        "classify.summaries_s": total("classify.summaries"),
        "classify.label_s": total("classify.label"),
        "impact.hits_s": total("impact.hits"),
        "diverge.kld_s": total("diverge.kld"),
        "diverge.compose_s": total("diverge.compose"),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": trace["bytes_written"],
        "corpus.rss_hwm_mb": c["corpus.rss_hwm_mb"],
        "simulate.rss_hwm_mb": c["simulate.rss_hwm_mb"],
        "classify.rss_hwm_mb": c["classify.rss_hwm_mb"],
        "trace.unaccounted_s": traced_wall - top,
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 bench: dict, frozen: dict) -> dict:
    wl = WORKLOADS[name]
    env = environment()
    print(f"workload {name}: seed {seed} (simulation seed {seed % SIM_SEEDS}), "
          f"trace {int(trace)}, {seconds:g} s")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    sess = Session(wl, seed, frozen)
    try:
        values = per_layer(sess, seconds) if trace else end_to_end(sess, seconds)
    finally:
        sess.close()
    specs = bench["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    failed = sum(1 for r in sess.runs if r["problems"])
    loads = [r["loadavg_before"][0] for r in sess.runs if "loadavg_before" in r]
    for m, v in metrics.items():
        print(f"  {m:36s} {v['value']:>16.6g} {v['unit']}")
    print(f"  {'failed_frac':36s} {failed / len(sess.runs):>16.6g} "
          f"({failed} of {len(sess.runs)} runs)")
    if loads:
        print(f"  1-min load average before runs: {min(loads):.2f} to {max(loads):.2f}")
    record = {"workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
              "environment": env, "runs": sess.runs, "metrics": metrics,
              "failed_frac": failed / len(sess.runs)}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(results / f"{name}-seed{seed}-trace{int(trace)}-{stamp}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": failed == 0, "attempted": len(sess.runs), "failed": failed,
            "metrics": metrics}


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description="Benchmark cocite pipeline on frozen workloads.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (SRC / "cocite" / "__init__.py").is_file():
        print(f"error: cocite sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    frozen = load_frozen()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, seconds, bool(args.trace),
                                         bench, frozen)
    except InputsChanged as exc:
        print(f"error: refusing to time: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
