import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cocite
import cocite.corpus as corpus_module
from cocite.cli import main
from cocite.corpus import Publication, ReferenceRecord
from cocite.manifest import RunManifest
from cocite.pairs import PairStats


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    code = main([
        "synth", "--disciplines", "2", "--pubs-per-discipline", "40",
        "--ref-pool", "140", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    return out


def corpus_flags(base):
    return [
        "--pubs", str(base / "publications.tsv"),
        "--refs", str(base / "references.tsv"),
        "--cites", str(base / "citations.tsv"),
    ]


def pool_flags(base):
    return [
        "--pool-pubs", str(base / "publications.tsv"),
        "--pool-refs", str(base / "references.tsv"),
        "--pool-cites", str(base / "citations.tsv"),
    ]


def test_synth_writes_discipline_subdirs(synth_dir):
    for name in ("publications.tsv", "references.tsv", "citations.tsv", "run.manifest"):
        assert (synth_dir / name).exists()
    for label in ("D00", "D01"):
        assert (synth_dir / label / "publications.tsv").exists()


def test_pipeline_outputs_and_manifest(synth_dir, tmp_path):
    out = tmp_path / "run"
    code = main([
        "pipeline", *corpus_flags(synth_dir / "D00"),
        "--sims", "25", "--seed", "3", "--workers", "1", "--out", str(out),
    ])
    assert code == 0
    for name in ("observed_pairs.csv", "pair_stats.csv", "classification.csv",
                 "hit_report.csv", "hit_tests.json", "kld.csv", "composition.csv",
                 "run.manifest"):
        assert (out / name).exists(), name
    manifest = RunManifest.load(out / "run.manifest")
    assert manifest.command == "pipeline"
    assert manifest.master_seed == 3
    assert len(manifest.input_digests) == 3
    assert "simulate" in manifest.timings
    assert "threshold" in manifest.diagnostics
    d = manifest.diagnostics
    assert d["deleted_pubs_mean"] == d["deleted_pubs_total"] / 25
    assert 0 <= d["deleted_pubs_p50"] <= d["deleted_pubs_p99"] <= d["deleted_pubs_max"]


def test_workers_do_not_change_output_bytes(synth_dir, tmp_path):
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        code = main([
            "pipeline", *corpus_flags(synth_dir / "D00"),
            "--sims", "20", "--seed", "5", "--workers", str(workers), "--out", str(out),
        ])
        assert code == 0
        outputs.append({
            name: (out / name).read_bytes()
            for name in ("pair_stats.csv", "classification.csv", "hit_report.csv")
        })
    assert outputs[0] == outputs[1]


def test_rerun_reproduces_bytes(synth_dir, tmp_path):
    first = tmp_path / "first"
    assert main([
        "zscore", *corpus_flags(synth_dir / "D00"),
        "--sims", "20", "--seed", "9", "--workers", "1", "--out", str(first),
    ]) == 0
    second = tmp_path / "second"
    assert main([
        "rerun", "--manifest", str(first / "run.manifest"),
        "--out", str(second), "--workers", "2",
    ]) == 0
    assert (first / "pair_stats.csv").read_bytes() == (second / "pair_stats.csv").read_bytes()


def test_rerun_detects_changed_inputs(synth_dir, tmp_path, capsys):
    first = tmp_path / "first"
    assert main([
        "observe", *corpus_flags(synth_dir / "D01"), "--out", str(first),
    ]) == 0
    manifest = RunManifest.load(first / "run.manifest")
    target = next(iter(manifest.input_digests))
    original = open(target, "rb").read()
    rerun = ["rerun", "--manifest", str(first / "run.manifest"), "--out", str(tmp_path / "again")]
    try:
        with open(target, "ab") as fh:
            fh.write(b"p999\t1995\tJX\t0\n")
        code = main(rerun)
        assert code == 1
        assert "has changed since the recorded run" in capsys.readouterr().err
        Path(target).unlink()
        assert main(rerun) == 1
        assert f"manifest input {target} is missing" in capsys.readouterr().err
    finally:
        with open(target, "wb") as fh:
            fh.write(original)


def test_global_pipeline_uses_pool(synth_dir, tmp_path):
    out = tmp_path / "global"
    code = main([
        "pipeline", *corpus_flags(synth_dir / "D00"), *pool_flags(synth_dir),
        "--background", "global", "--sims", "20", "--seed", "2",
        "--workers", "1", "--out", str(out),
    ])
    assert code == 0
    kld = (out / "kld.csv").read_text().splitlines()
    assert kld[0].split(",")[:3] == ["corpus", "year", "background"]
    assert kld[1].split(",")[2] == "global"


def test_kld_emits_both_rows_and_ratio(synth_dir, tmp_path):
    out = tmp_path / "kld"
    code = main([
        "kld", *corpus_flags(synth_dir / "D00"), *pool_flags(synth_dir),
        "--sims", "20", "--seed", "4", "--workers", "1",
        "--tag", "D00", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "kld.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "local"
    assert lines[2].split(",")[2] == "global"
    assert lines[2].split(",")[1] == "1995"
    assert lines[2].split(",")[-1] != ""


def test_bench_writes_timing_table(synth_dir, tmp_path):
    out = tmp_path / "bench"
    code = main([
        "bench", *corpus_flags(synth_dir / "D00"),
        "--sims", "3", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "algorithm,n_simulations,seconds,sims_per_second"
    assert {row.split(",")[0] for row in lines[1:]} == {"repcs", "umsj"}


@pytest.mark.parametrize("algorithms,message", [
    ("repcs,repcs", "algorithm 'repcs' is listed twice"),
    ("repcs,bogus", "unknown algorithm 'bogus'"),
    ("", "no algorithm to benchmark"),
])
def test_bench_refuses_bad_algorithm_list_before_reading(tmp_path, capsys, algorithms,
                                                          message):
    # The corpus files do not exist, so reading them first would fail differently.
    code = main(["bench", *corpus_flags(tmp_path / "missing"), "--algorithms", algorithms,
                 "--sims", "2", "--out", str(tmp_path / "o")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "bench.csv").exists()


@pytest.mark.parametrize("sims", ["0", "-3"])
def test_bench_refuses_fewer_than_one_simulation(synth_dir, tmp_path, capsys, sims):
    code = main(["bench", *corpus_flags(synth_dir / "D00"), "--sims", sims,
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error: n_simulations must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o" / "bench.csv").exists()


def test_classify_and_hits_compose_from_files(synth_dir, tmp_path):
    zdir = tmp_path / "z"
    assert main([
        "zscore", *corpus_flags(synth_dir / "D00"),
        "--sims", "25", "--seed", "6", "--workers", "1", "--out", str(zdir),
    ]) == 0
    cdir = tmp_path / "c"
    assert main([
        "classify", *corpus_flags(synth_dir / "D00"),
        "--pair-stats", str(zdir / "pair_stats.csv"), "--out", str(cdir),
    ]) == 0
    hdir = tmp_path / "h"
    assert main([
        "hits", *corpus_flags(synth_dir / "D00"),
        "--classification", str(cdir / "classification.csv"),
        "--hit-pct", "10", "--out", str(hdir),
    ]) == 0
    tests = json.loads((hdir / "hit_tests.json").read_text())
    assert set(tests) >= {"four_category", "novelty", "conventionality"}


def test_manifest_times_reads_and_writes_apart_from_stages(synth_dir, tmp_path, monkeypatch):
    import time

    import cocite.cli as cli

    zdir, cdir = tmp_path / "z", tmp_path / "c"
    assert main(["zscore", *corpus_flags(synth_dir / "D00"), "--sims", "5", "--workers", "1",
                 "--out", str(zdir)]) == 0
    diagnostics = RunManifest.load(zdir / "run.manifest").diagnostics
    assert diagnostics["write_s"] > 0 and "read_s" not in diagnostics
    # A classify stage slowed by 0.3 s is resolved before classification.csv
    # is written, so the delay shows in its timing and not in write_s.
    label = cli.classify_corpus
    monkeypatch.setattr(cli, "classify_corpus", lambda *a: time.sleep(0.3) or label(*a))
    assert main(["classify", *corpus_flags(synth_dir / "D00"),
                 "--pair-stats", str(zdir / "pair_stats.csv"), "--out", str(cdir)]) == 0
    manifest = RunManifest.load(cdir / "run.manifest")
    assert set(manifest.timings) == {"load", "classify"}
    assert manifest.timings["classify"] >= 0.3
    assert 0 < manifest.diagnostics["read_s"] < 0.3
    assert 0 < manifest.diagnostics["write_s"] < 0.3


def test_manifest_times_the_index_build_apart_from_the_stages(synth_dir, tmp_path, monkeypatch):
    import time

    import cocite.cli as cli

    # An index build slowed by 0.3 s runs before the observe stage's timer.
    build = cli.build_groups
    monkeypatch.setattr(cli, "build_groups", lambda *a: time.sleep(0.3) or build(*a))
    out = tmp_path / "o"
    assert main(["observe", *corpus_flags(synth_dir / "D00"), "--out", str(out)]) == 0
    manifest = RunManifest.load(out / "run.manifest")
    assert set(manifest.timings) == {"load", "observe"}
    assert manifest.diagnostics["index_s"] >= 0.3
    assert manifest.timings["observe"] < 0.3


def test_compose_can_dump_shuffled_corpus(synth_dir, tmp_path):
    out = tmp_path / "comp"
    dump = tmp_path / "dump"
    code = main([
        "compose", *corpus_flags(synth_dir / "D00"),
        "--seed", "5", "--out", str(out), "--dump-shuffled", str(dump),
    ])
    assert code == 0
    assert (out / "composition.csv").exists()
    assert (dump / "publications.tsv").exists()


def test_config_file_flags_win(synth_dir, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("sims=20\nseed=11\nworkers=1\n")
    out = tmp_path / "cfg"
    code = main([
        "zscore", *corpus_flags(synth_dir / "D00"),
        "--config", str(cfgfile), "--seed", "12", "--out", str(out),
    ])
    assert code == 0
    manifest = RunManifest.load(out / "run.manifest")
    assert manifest.master_seed == 12  # explicit flag beats the config file
    assert main(["zscore", *corpus_flags(synth_dir / "D00"), "--config"]) == 1
    assert "--config requires a file path" in capsys.readouterr().err


def test_a_bare_config_key_sets_a_flag_without_a_value(synth_dir, tmp_path):
    # On this corpus and seed, --survivors-only changes composition.csv.
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# compose\n\nsurvivors-only\n")
    written = {}
    for name, flags in (("all", []), ("flag", ["--survivors-only"]),
                        ("config", ["--config", str(cfgfile)])):
        out = tmp_path / name
        assert main(["compose", *corpus_flags(synth_dir / "D00"), "--seed", "1", *flags,
                     "--out", str(out)]) == 0
        written[name] = (out / "composition.csv").read_bytes()
    assert written["config"] == written["flag"] != written["all"]


def test_synth_takes_one_size_per_discipline(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "--disciplines", "2", "--pubs-per-discipline", "30,20",
                 "--ref-pool", "140,120", "--seed", "7", "--out", str(out)]) == 0
    for label, n_pubs in (("D00", 30), ("D01", 20)):
        lines = (out / label / "publications.tsv").read_text().splitlines()
        assert len(lines) == 1 + n_pubs, label


def test_usage_error_exits_2(synth_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--definitely-not-a-flag"])
    assert exc.value.code == 2
    # A bare config key of a flag that takes a value.
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed\n")
    with pytest.raises(SystemExit) as exc:
        main(["compose", "--config", str(cfgfile), *corpus_flags(synth_dir / "D00"),
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --seed: expected one argument" in capsys.readouterr().err
    # A config file with no subcommand around it.
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfgfile)])
    assert exc.value.code == 2


def test_validation_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("pub_id\tyear\tjournal_id\tcitations_8yr\np1\tnope\tJ\t0\n")
    refs = tmp_path / "refs.tsv"
    refs.write_text("ref_id\tyear\tjournal_id\tsubject\n")
    cites = tmp_path / "cites.tsv"
    cites.write_text("pub_id\tref_id\n")
    code = main([
        "summarize", "--pubs", str(bad), "--refs", str(refs), "--cites", str(cites),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "non-integer year" in err


def test_compose_of_a_corpus_with_no_subjects_writes_a_header(tmp_path, capsys):
    flags = []
    for name, header in (("pubs", "pub_id\tyear\tjournal_id\tcitations_8yr"),
                         ("refs", "ref_id\tyear\tjournal_id\tsubject"),
                         ("cites", "pub_id\tref_id")):
        path = tmp_path / f"{name}.tsv"
        path.write_text(header + "\n")
        flags += [f"--{name}", str(path)]
    out = tmp_path / "o"
    assert main(["compose", *flags, "--out", str(out)]) == 0
    assert (out / "composition.csv").read_text().splitlines() == ["subject,o,s,fold"]
    assert RunManifest.load(out / "run.manifest").diagnostics["max_fold"] is None
    assert "composition over 0 subjects" in capsys.readouterr().out


def test_csv_rows_match_header_width_for_a_quoted_tag(synth_dir, tmp_path):
    tag = "D00, 1995"
    corpus = corpus_flags(synth_dir / "D00")
    out = tmp_path / "out"
    assert main(["summarize", *corpus, "--tag", tag, "--out", str(out / "summarize")]) == 0
    assert main(["pipeline", *corpus, "--tag", tag, "--sims", "10", "--workers", "1",
                 "--out", str(out / "pipeline")]) == 0
    assert main(["bench", *corpus, "--sims", "2", "--out", str(out / "bench")]) == 0
    written = sorted(out.rglob("*.csv"))
    assert len(written) == 8
    for path in written:
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows, path
        assert all(len(row) == len(header) for row in rows), path
    with open(out / "summarize" / "summary.csv", encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh))[1][0] == tag


@pytest.fixture(scope="module")
def pipeline_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    assert main(["pipeline", *corpus_flags(synth_dir / "D00"), "--sims", "10",
                 "--workers", "1", "--out", str(out)]) == 0
    return out


def _corrupt(src, dst, lineno, edit):
    """Copy a CSV with ``edit`` applied to the fields of one line."""
    lines = src.read_text().splitlines(keepends=True)
    fields = lines[lineno - 1].rstrip("\n").split(",")
    lines[lineno - 1] = ",".join(edit(fields)) + "\n"
    dst.write_text("".join(lines))
    return dst


@pytest.mark.parametrize("command,flag,name,edit", [
    ("classify", "--pair-stats", "pair_stats.csv", lambda f: f[:-1]),
    ("classify", "--pair-stats", "pair_stats.csv", lambda f: f[:3] + ["many"] + f[4:]),
    ("classify", "--pair-stats", "pair_stats.csv", lambda f: f[:-1] + ["yes"]),
    # Line 2 holds the pair (J00-00, J00-00) and line 3 (J00-00, J00-01).
    ("classify", "--pair-stats", "pair_stats.csv", lambda f: [f[1], f[0]] + f[2:]),
    ("classify", "--pair-stats", "pair_stats.csv", lambda f: [f[0], f[0]] + f[2:]),
    ("classify", "--pair-stats", "pair_stats.csv", lambda f: f[:-1] + ["0"]),
    ("classify", "--pair-stats", "pair_stats.csv", lambda f: f[:2] + [str(1 << 63)] + f[3:]),
    ("hits", "--classification", "classification.csv", lambda f: f[:-1]),
    ("hits", "--classification", "classification.csv", lambda f: f[:4] + ["XX"] + f[5:]),
    ("hits", "--classification", "classification.csv", lambda f: f[:-1] + [str(1 << 63)]),
    ("hits", "--classification", "classification.csv", lambda f: [f[0], "many"] + f[2:]),
], ids=["truncated-pair-stats", "non-numeric-f_exp", "non-binary-defined_flag",
        "reversed-pair", "repeated-pair", "z-with-defined_flag-0", "f_obs-past-int64",
        "truncated-classification", "unknown-category", "n_defined_pairs-past-int64",
        "non-numeric-z_median"])
def test_bad_table_row_exits_1_with_its_line(synth_dir, pipeline_dir, tmp_path, capsys,
                                             monkeypatch, command, flag, name, edit):
    bad = _corrupt(pipeline_dir / name, tmp_path / name, 3, edit)
    # The default block holds line 3; 16-byte blocks hold one line each.
    for block_bytes in (corpus_module._BLOCK_BYTES, 16):
        monkeypatch.setattr(corpus_module, "_BLOCK_BYTES", block_bytes)
        capsys.readouterr()
        assert main([command, *corpus_flags(synth_dir / "D00"), flag, str(bad),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"{bad}:3:" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command,flag,name,line_3,line_4", [
    ("classify", "--pair-stats", "pair_stats.csv",
     lambda f: f[:4] + ["many"] + f[5:], lambda f: f[:2] + ["many"] + f[3:]),
    ("classify", "--pair-stats", "pair_stats.csv",
     lambda f: f[:-1] + ["yes"], lambda f: f[:2] + ["many"] + f[3:]),
    ("hits", "--classification", "classification.csv",
     lambda f: f[:-1] + ["many"], lambda f: [f[0], "many"] + f[2:]),
    ("hits", "--classification", "classification.csv",
     lambda f: f[:4] + ["XX"] + f[5:], lambda f: [f[0], "many"] + f[2:]),
], ids=["sigma-before-f_obs", "defined_flag-before-f_obs", "n_defined_pairs-before-z_median",
        "category-before-z_median"])
def test_an_earlier_rows_later_column_fault_comes_first(synth_dir, pipeline_dir, tmp_path,
                                                       capsys, command, flag, name,
                                                       line_3, line_4):
    # Both faulty lines sit in the first block; line 4's column comes first.
    bad = tmp_path / name
    _corrupt(_corrupt(pipeline_dir / name, bad, 3, line_3), bad, 4, line_4)
    capsys.readouterr()
    assert main([command, *corpus_flags(synth_dir / "D00"), flag, str(bad),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:3:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("block_bytes", [64, None], ids=["64-byte-blocks", "no-csv-fallback"])
def test_classify_and_hits_read_the_pipelines_tables(synth_dir, pipeline_dir, tmp_path,
                                                     monkeypatch, block_bytes):
    # With small blocks, every table is read across many blocks. Without
    # small blocks, the csv fallback is replaced, so a well-formed table
    # that reached it fails.
    if block_bytes is None:
        def refuse(path, *args):
            raise AssertionError(f"{path} was read by the csv fallback")
        monkeypatch.setattr(corpus_module, "_read_csv", refuse)
    else:
        monkeypatch.setattr(corpus_module, "_BLOCK_BYTES", block_bytes)
    corpus, out = corpus_flags(synth_dir / "D00"), tmp_path / "o"
    assert main(["classify", *corpus, "--pair-stats", str(pipeline_dir / "pair_stats.csv"),
                 "--out", str(out)]) == 0
    assert main(["hits", *corpus, "--classification",
                 str(pipeline_dir / "classification.csv"), "--out", str(out)]) == 0
    for name in ("classification.csv", "hit_report.csv", "hit_tests.json"):
        assert (out / name).read_bytes() == (pipeline_dir / name).read_bytes(), name


def test_hits_refuses_a_classification_of_another_corpus(synth_dir, pipeline_dir, tmp_path,
                                                         capsys):
    # pipeline_dir classified D00; D01 holds none of its publications.
    first = (pipeline_dir / "classification.csv").read_text().splitlines()[1].split(",")[0]
    capsys.readouterr()
    assert main(["hits", *corpus_flags(synth_dir / "D01"), "--classification",
                 str(pipeline_dir / "classification.csv"), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"classified publication {first!r} is not in the corpus" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "hit_report.csv").exists()


def test_hits_refuses_a_classification_that_repeats_a_publication(synth_dir, pipeline_dir,
                                                                  tmp_path, capsys):
    lines = (pipeline_dir / "classification.csv").read_text().splitlines(keepends=True)
    bad = tmp_path / "classification.csv"
    bad.write_text("".join(lines + lines[1:]))
    capsys.readouterr()
    assert main(["hits", *corpus_flags(synth_dir / "D00"), "--classification", str(bad),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    first = lines[1].split(",")[0]
    assert f"{bad}:{len(lines) + 1}: duplicate pub_id {first!r} (first seen at line 2)" in err
    assert "Traceback" not in err


CHAIN_FILES = ("observed_pairs.csv", "pair_stats.csv", "classification.csv",
               "hit_report.csv", "hit_tests.json", "composition.csv")


@pytest.mark.parametrize("background", ["local", "global"])
def test_subcommand_chain_matches_pipeline(synth_dir, tmp_path, background):
    corpus = corpus_flags(synth_dir / "D00")
    shuffle = [*(pool_flags(synth_dir) if background == "global" else []),
               "--background", background, "--seed", "8"]
    sims = ["--sims", "20", "--workers", "1"]
    pipe, chain = tmp_path / "pipeline", tmp_path / "chain"
    assert main(["pipeline", *corpus, *shuffle, *sims, "--out", str(pipe)]) == 0
    assert main(["observe", *corpus, "--out", str(chain)]) == 0
    assert main(["zscore", *corpus, *shuffle, *sims, "--out", str(chain)]) == 0
    assert main(["classify", *corpus, "--pair-stats", str(chain / "pair_stats.csv"),
                 "--out", str(chain)]) == 0
    assert main(["hits", *corpus, "--classification", str(chain / "classification.csv"),
                 "--out", str(chain)]) == 0
    assert main(["compose", *corpus, *shuffle, "--out", str(chain)]) == 0
    for name in CHAIN_FILES:
        assert (chain / name).read_bytes() == (pipe / name).read_bytes(), name


def test_manifest_times_each_stage_that_ran(synth_dir, tmp_path):
    out = tmp_path / "z"
    assert main(["zscore", *corpus_flags(synth_dir / "D00"), "--sims", "5",
                 "--workers", "1", "--out", str(out)]) == 0
    manifest = RunManifest.load(out / "run.manifest")
    assert set(manifest.timings) == {"load", "observe", "simulate", "zscore"}
    assert manifest.diagnostics["sigma_zero_pairs"] >= 0
    # One memory high-water mark per timed stage, read after it ran, so it never falls.
    assert set(manifest.peak_rss_mb) == set(manifest.timings)
    peaks = [manifest.peak_rss_mb[stage] for stage in ("load", "observe", "simulate", "zscore")]
    assert peaks[0] > 0
    assert peaks == sorted(peaks)
    # CPU seconds of each timed stage, its reaped workers' included, and
    # of the process before the first stage.
    assert set(manifest.cpu_s) == set(manifest.timings)
    assert all(v >= 0 for v in manifest.cpu_s.values())
    assert manifest.diagnostics["startup_cpu_s"] >= 0


def test_manifest_records_the_memory_held_before_the_first_stage(synth_dir, tmp_path):
    out = tmp_path / "o"
    assert main(["observe", *corpus_flags(synth_dir / "D00"), "--out", str(out)]) == 0
    manifest = RunManifest.load(out / "run.manifest")
    assert set(manifest.peak_rss_mb) == {"load", "observe"}
    startup = manifest.diagnostics["startup_rss_mb"]
    assert 0 < startup <= min(manifest.peak_rss_mb.values())


# Flags that these subcommands never read; argparse must refuse them.
UNREAD_FLAGS = [(command, "--tag", "x") for command in (
    "ingest", "observe", "simulate", "zscore", "classify", "hits", "compose", "synth", "bench")]
UNREAD_FLAGS += [("kld", "--background", "global"), ("compose", "--sims", "7"),
                 ("compose", "--workers", "9"), ("bench", "--algorithm", "umsj"),
                 ("bench", "--workers", "9")]


@pytest.mark.parametrize("command,flag,value", UNREAD_FLAGS)
def test_unread_flag_is_a_usage_error(synth_dir, tmp_path, capsys, command, flag, value):
    argv = [command, flag, value, "--out", str(tmp_path / "o")]
    if command != "synth":
        argv += corpus_flags(synth_dir / "D00")
    if command == "classify":
        argv += ["--pair-stats", "pair_stats.csv"]
    if command == "hits":
        argv += ["--classification", "classification.csv"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "zscore", "compose", "bench", "pipeline"])
def test_pool_flags_with_local_background_exit_1(synth_dir, tmp_path, capsys, command):
    code = main([command, *corpus_flags(synth_dir / "D00"), *pool_flags(synth_dir),
                 "--background", "local", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "--pool-pubs, --pool-refs, and --pool-cites" in capsys.readouterr().err
    assert not (tmp_path / "o" / "run.manifest").exists()


@pytest.mark.parametrize("command", ["simulate", "compose", "bench", "pipeline"])
def test_pool_flags_not_given_together_exit_1(synth_dir, tmp_path, capsys, command):
    code = main([command, *corpus_flags(synth_dir / "D00"), *pool_flags(synth_dir)[:4],
                 "--background", "global", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "--pool-cites must be given together" in capsys.readouterr().err
    assert not (tmp_path / "o" / "run.manifest").exists()


@pytest.mark.parametrize("command", ["simulate", "compose", "bench", "pipeline"])
def test_global_background_without_a_pool_exits_1(synth_dir, tmp_path, capsys, command):
    code = main([command, *corpus_flags(synth_dir / "D00"), "--background", "global",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "global background requires --pool-* files" in capsys.readouterr().err
    assert not (tmp_path / "o" / "run.manifest").exists()


def test_manifest_records_the_pools_dropped_rows(synth_dir, tmp_path):
    # The pool is D00 plus one reference without a journal and two citation
    # rows whose pub_id is on no publication row.
    d00, pool = synth_dir / "D00", tmp_path / "pool"
    pool.mkdir()
    extra = {"publications.tsv": "", "references.tsv": "r-extra\t1990\t\tphys\n",
             "citations.tsv": "p-missing\tr-extra\np-missing\tr-other\n"}
    for name, rows in extra.items():
        (pool / name).write_text((d00 / name).read_text(encoding="utf-8") + rows,
                                 encoding="utf-8")
    out = tmp_path / "o"
    assert main(["compose", *corpus_flags(d00), *pool_flags(pool), "--background", "global",
                 "--out", str(out)]) == 0
    diagnostics = RunManifest.load(out / "run.manifest").diagnostics
    assert diagnostics["dropped"] == {}
    assert diagnostics["pool_dropped"] == {"reference_missing_journal": 1,
                                           "citation_unresolved_pub": 2}


def test_rerun_workers_override_skips_commands_without_workers(synth_dir, tmp_path):
    first = tmp_path / "first"
    assert main(["observe", *corpus_flags(synth_dir / "D00"), "--out", str(first)]) == 0
    second = tmp_path / "second"
    assert main(["rerun", "--manifest", str(first / "run.manifest"),
                 "--out", str(second), "--workers", "2"]) == 0
    assert ((first / "observed_pairs.csv").read_bytes()
            == (second / "observed_pairs.csv").read_bytes())
    assert "--workers" not in RunManifest.load(second / "run.manifest").argv


def test_dead_simulation_worker_exits_1(synth_dir, tmp_path, capsys, monkeypatch, time_limit):
    import os

    import cocite.simulate as simulate

    monkeypatch.setattr(simulate, "_run_sim_range", lambda *args: os._exit(3))
    with time_limit(60):
        code = main(["zscore", *corpus_flags(synth_dir / "D00"), "--sims", "4",
                     "--workers", "2", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error: a simulation worker died" in capsys.readouterr().err


def per_stage_outputs(synth_dir, out, command, background, seed, sims):
    """The run's CSVs from the library functions that take a corpus, each
    of which builds its own index."""
    from cocite import (ClassifyConfig, SimConfig, build_groups, classify_corpus,
                        composition_fold, corpus_summaries, kl_divergence,
                        observed_frequencies, repcs_shuffle, run_simulations, zscores)
    from cocite.classify import write_summaries_csv
    from cocite.corpus import IngestConfig, ingest
    from cocite.diverge import write_composition_csv, write_divergence_csv
    from cocite.pairs import write_pair_csv
    from cocite.simulate import write_pair_stats_csv

    def load(base, tag):
        paths = (base / "publications.tsv", base / "references.tsv", base / "citations.tsv")
        return ingest(*paths, IngestConfig(background_tag=tag))

    out.mkdir()
    corpus, pool = load(synth_dir / "D00", "local"), load(synth_dir, "global")
    observed = observed_frequencies(corpus)

    def simulate(bg):
        cfg = SimConfig(n_simulations=sims, master_seed=seed, background=bg, workers=1)
        return run_simulations(corpus, pool if bg == "global" else None, cfg)

    def divergence(result):
        return kl_divergence(observed, result, corpus.journals(), 1e-12, corpus_tag="corpus",
                             background=result.background, year=corpus.slice_year)

    if command == "kld":
        rows = [divergence(simulate("local")), divergence(simulate("global"))]
        write_divergence_csv(rows, out / "kld.csv", ratio=rows[1].kld / rows[0].kld)
        return
    write_pair_csv(observed, out / "observed_pairs.csv")
    sims_result = simulate(background)
    stats = zscores(observed, sims_result)
    write_pair_stats_csv(stats, out / "pair_stats.csv")
    summaries, _ = corpus_summaries(corpus, stats)
    write_summaries_csv(classify_corpus(summaries, ClassifyConfig())[0],
                        out / "classification.csv")
    write_divergence_csv([divergence(sims_result)], out / "kld.csv")
    idx = build_groups(corpus, pool if background == "global" else None)
    write_composition_csv(composition_fold(corpus, repcs_shuffle(idx, seed)),
                          out / "composition.csv")


@pytest.mark.parametrize("command,background,builds", [
    ("pipeline", "local", 1), ("pipeline", "global", 1), ("kld", None, 2)])
def test_run_builds_one_index_per_background(synth_dir, tmp_path, monkeypatch,
                                             command, background, builds):
    from cocite.indexing import CorpusIndex

    calls = []
    init = CorpusIndex.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    argv = [command, *corpus_flags(synth_dir / "D00"), "--sims", "12", "--seed", "6",
            "--workers", "1", "--out", str(tmp_path / "run")]
    if background != "local":
        argv += pool_flags(synth_dir)
    if background:
        argv += ["--background", background]
    monkeypatch.setattr(CorpusIndex, "__init__", counting_init)
    assert main(argv) == 0
    assert len(calls) == builds
    monkeypatch.undo()

    per_stage_outputs(synth_dir, tmp_path / "ref", command, background, seed=6, sims=12)
    written = sorted(p.name for p in (tmp_path / "ref").iterdir())
    assert written == (["kld.csv"] if command == "kld" else sorted(
        ("observed_pairs.csv", "pair_stats.csv", "classification.csv", "kld.csv",
         "composition.csv")))
    for name in written:
        assert (tmp_path / "ref" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_manifest_times_each_simulation_layer(synth_dir, tmp_path, workers):
    out = tmp_path / "run"
    assert main(["pipeline", *corpus_flags(synth_dir / "D00"), *pool_flags(synth_dir),
                 "--background", "global", "--sims", "30", "--workers", str(workers),
                 "--out", str(out)]) == 0
    manifest = RunManifest.load(out / "run.manifest")
    layers = manifest.diagnostics["sim_layer_s"]
    assert set(layers) == {"permute", "dedupe", "pair_count", "accumulate"}
    assert all(v >= 0 for v in layers.values())
    assert 0 < sum(layers.values()) <= manifest.timings["simulate"] * workers


@pytest.mark.parametrize("path", ["local", "global", "classify", "hits"])
def test_pipeline_builds_no_row_objects(synth_dir, pipeline_dir, tmp_path, monkeypatch, path):
    # Ingest, the index and every stage read the corpus and pair arrays;
    # building a row view anywhere on the pipeline path, or on classify and
    # hits from their input tables, fails the run.
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} was built")

    for row_type in (Publication, ReferenceRecord, PairStats):
        monkeypatch.setattr(row_type, "__init__", refuse)
    argv = {
        "local": ["pipeline", "--background", "local"],
        "global": ["pipeline", *pool_flags(synth_dir), "--background", "global"],
        "classify": ["classify", "--pair-stats", str(pipeline_dir / "pair_stats.csv")],
        "hits": ["hits", "--classification", str(pipeline_dir / "classification.csv")],
    }[path]
    if argv[0] == "pipeline":
        argv += ["--sims", "20", "--seed", "2", "--workers", "1"]
    assert main([*argv, *corpus_flags(synth_dir / "D00"), "--out", str(tmp_path / path)]) == 0


def run_python(code: str, **env_vars) -> str:
    """Standard output of ``python -c code`` with cocite importable and
    ``env_vars`` set in the environment; one set to None is removed."""
    src = str(Path(cocite.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for name, value in env_vars.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.strip()


def test_importing_the_cli_leaves_the_worker_pool_unimported():
    # A run at one worker never starts a pool, so it should not pay for
    # importing one.
    code = ("import sys, cocite.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    assert run_python(code) == "[]"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_a_process_that_imports_cocite_counts_pairs_on_one_thread():
    # numpy's BLAS, left to choose, starts a thread pool on a machine of
    # more than one CPU; cocite's only parallelism is its forked workers.
    code = ("import os, cocite; "
            "from cocite.indexing import CorpusIndex; "
            "idx = CorpusIndex(cocite.generate(cocite.SynthConfig(seed=3)).pool); "
            "assert idx.counts_by_product(); "
            "idx.pair_key_counts(idx.c_tokens); "
            "print(len(os.listdir('/proc/self/task')))")
    # OpenBLAS also reads these two where its own variable is unset.
    assert run_python(code, OPENBLAS_NUM_THREADS=None, GOTO_NUM_THREADS=None,
                      OMP_NUM_THREADS=None) == "1"


def test_importing_cocite_keeps_a_blas_thread_count_the_user_set():
    code = "import os, cocite; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2"
