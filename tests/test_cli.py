import json

import pytest

from cocite.cli import main
from cocite.manifest import RunManifest


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


def test_rerun_detects_changed_inputs(synth_dir, tmp_path):
    first = tmp_path / "first"
    assert main([
        "observe", *corpus_flags(synth_dir / "D01"), "--out", str(first),
    ]) == 0
    manifest = RunManifest.load(first / "run.manifest")
    target = next(iter(manifest.input_digests))
    original = open(target, "rb").read()
    try:
        with open(target, "ab") as fh:
            fh.write(b"p999\t1995\tJX\t0\n")
        code = main(["rerun", "--manifest", str(first / "run.manifest"),
                     "--out", str(tmp_path / "again")])
        assert code == 1
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


def test_config_file_flags_win(synth_dir, tmp_path):
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


def test_usage_error_exits_2(synth_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--definitely-not-a-flag"])
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
