"""Pipeline output bytes pinned to recorded sha256 digests.

Each case synthesizes a small corpus, runs ``cocite pipeline`` at 1 and 2
workers and compares the seven output files with digests recorded when
the outputs were last changed on purpose. A drift in any random stream,
slot layout or float rounding changes a digest. When outputs change
deliberately, re-record the digests and log the change in CHANGES.md.
"""

import hashlib

import pytest

from cocite.cli import main

OUTPUTS = ("observed_pairs.csv", "pair_stats.csv", "classification.csv", "hit_report.csv",
           "hit_tests.json", "kld.csv", "composition.csv")

# case: (synth flags, analyzed corpus, background, algorithm)
CASES = {
    # Twenty reference years: duplicates are found by same-year slot pairs.
    "local": (["--disciplines", "2", "--pubs-per-discipline", "60", "--ref-pool", "90",
               "--ref-years", "20", "--seed", "31"], None, "local", "repcs"),
    # One reference year: duplicates are found by sorting each publication.
    "D00-global": (["--disciplines", "3", "--pubs-per-discipline", "50", "--ref-pool", "80",
                    "--ref-years", "1", "--seed", "32"], "D00", "global", "repcs"),
    # umsj walks the pool's slots group by group, five reference years
    # making five groups with a stream each, and reads back D01's slots.
    "D01-global-umsj": (["--disciplines", "3", "--pubs-per-discipline", "50", "--ref-pool", "80",
                         "--ref-years", "5", "--seed", "34"], "D01", "global", "umsj"),
}

# sha256 of each output, identical at 1 and 2 workers.
GOLDEN = {
    "local": {
        "observed_pairs.csv": "4552d8eab9bb1d09336732f48a480af4ddee12e260ca190229a37f6cf7873f66",
        "pair_stats.csv": "5fb54e9d42c772fec05b32bca59fd9308f4bcb556a6a649d691eca906e7b6d7d",
        "classification.csv": "11981ee187c8234be46c8edec0c5ca5a7f62c17af1e336f3da93609551fb82e0",
        "hit_report.csv": "f05cb54185c721edc3ee18a9c9dacf9afa26ac6b970b7c8abac3fe3db3316951",
        "hit_tests.json": "66e4368ec6a59412529ee84234d4be348cd56e0b1ffb6fecaf6ac344c6094458",
        "kld.csv": "5428814e21b8746ec0cfcdb7733d755cb60d40aaa43d0da7d890b8c6b1d3b373",
        "composition.csv": "c1bf91fc382ff9163760856c30c1420f5f638c2976e7d50fe65ad23e0e2c2e68",
    },
    "D00-global": {
        "observed_pairs.csv": "5e0a1794c93094dacd936cb21a40bf822afcdfe5d8aa71dfa262c2fbc0e51dfc",
        "pair_stats.csv": "f3386a758aa5c5c3ed886663e253cd02e3aa5ebe48f1f830988ab23e3db6d821",
        "classification.csv": "66439004586a919789c079654a295409731de7037eec0a5b11b05439dab5ac3b",
        "hit_report.csv": "31df86d187e56cb0271e28744466e403ec10b32b11b12fda106eaafe62ac8154",
        "hit_tests.json": "3d31f8a52c8b2bcd9721b9e42aafc13cc02c8ca33262ca9a4def1fb9c4859043",
        "kld.csv": "ede894cfde704ca77c7bcb79392423160601f90c9ff78d56f4e728e0fa4d3371",
        "composition.csv": "b92129424acae85a63ae7dbd75ea8aef0b0a52b7c9b91923ed57608c2339543c",
    },
    "D01-global-umsj": {
        "observed_pairs.csv": "e1c7ea8d245d8563993aad22c795ae8efa2f5b224f4ff632553ae533fb9796ef",
        "pair_stats.csv": "1b39b0659c703cc1e80f77db275051dd50a0af726d6500278f187a52e15b7af4",
        "classification.csv": "882ffb83b2623ba53b95dd88908bac7285eeb0138f75d00ec124867f8f8eb74d",
        "hit_report.csv": "8e76ea2f79f584d1869d6a9ae51654c5babd0daa37c5d96fbf7970e7cd19eb66",
        "hit_tests.json": "6e0b12e53aab767047d5d3e733e5b26f4615e4961f27795ce9d64675de227c31",
        "kld.csv": "dc3f5770ff55b13e58c6b823c93e2a049eb21d3415dcf40b187db1c36a93f0e8",
        "composition.csv": "9d261f7a94928304803d4418b549413a3dcae88503c608639422e719fcdccc43",
    },
}

# compose --algorithm umsj --dump-shuffled on the D01-global-umsj case.
COMPOSE_GOLDEN = {
    "composition.csv": "9d261f7a94928304803d4418b549413a3dcae88503c608639422e719fcdccc43",
    "shuffled/citations.tsv": "4c15811121ee28b1b582abe78b987116e451d6f1dd387a7cd82b20adb4893f7f",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def input_flags(case, base):
    """The case's corpus flags, and its pool flags for a global background,
    synthesizing the corpus under ``base`` on first use."""
    synth_flags, analyzed, background = case[:3]
    pool_dir = base / "corpus"
    if not pool_dir.exists():
        assert main(["synth", *synth_flags, "--out", str(pool_dir)]) == 0
    corpus_dir = pool_dir if analyzed is None else pool_dir / analyzed
    args = []
    files = {"pubs": "publications.tsv", "refs": "references.tsv", "cites": "citations.tsv"}
    for flag, name in files.items():
        args += [f"--{flag}", str(corpus_dir / name)]
    if background == "global":
        for flag, name in files.items():
            args += [f"--pool-{flag}", str(pool_dir / name)]
    return args


def run_case(case, base, workers):
    background, algorithm = CASES[case][2:]
    out = base / f"w{workers}"
    assert main(["pipeline", *input_flags(CASES[case], base), "--background", background,
                 "--algorithm", algorithm,
                 "--sims", "40", "--seed", "5", "--workers", str(workers),
                 "--out", str(out)]) == 0
    return {name: sha256(out / name) for name in OUTPUTS}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pipeline_outputs_match_recorded_digests(tmp_path, case):
    for workers in (1, 2):
        assert run_case(case, tmp_path, workers) == GOLDEN[case]


def test_umsj_compose_dump_matches_recorded_digests(tmp_path):
    out = tmp_path / "compose"
    assert main(["compose", *input_flags(CASES["D01-global-umsj"], tmp_path),
                 "--background", "global", "--algorithm", "umsj", "--seed", "5",
                 "--dump-shuffled", str(out / "shuffled"), "--out", str(out)]) == 0
    got = {name: sha256(out / name) for name in ("composition.csv", "shuffled/citations.tsv")}
    assert got == COMPOSE_GOLDEN


def test_sparse_pair_path_matches_recorded_digests(tmp_path, monkeypatch):
    # A dense limit of 0 sends observed and simulated counts down the sorted
    # key path and the simulations into _SparseAccumulator, which compacts
    # many times per worker at this threshold.
    import cocite.indexing as indexing
    import cocite.simulate as simulate

    monkeypatch.setattr(indexing, "DENSE_PAIR_LIMIT", 0)
    monkeypatch.setattr(simulate._SparseAccumulator, "_COMPACT_AT", 64)
    for workers in (1, 2):
        assert run_case("local", tmp_path, workers) == GOLDEN["local"]


# Outputs the pipeline does not write: simulate's pair means, kld against
# both backgrounds (two rows and their ratio), and classify reading the
# pair_stats.csv that zscore wrote. Every D00 publication cites its own
# discipline only, so the pool has journals the corpus lacks: the global
# pair tables hold pairs that kld filters out and that classify cannot match.
SUBCOMMAND_CASE = (["--disciplines", "3", "--pubs-per-discipline", "50", "--ref-pool", "80",
                    "--ref-years", "4", "--p-intra", "1", "--seed", "33"], "D00", "global")
SUBCOMMAND_GOLDEN = {
    "pair_means.csv": "8113fe57e34b7ac860d4f62179007d72af08f2827e31ba8b523769a68c850572",
    "kld.csv": "6d2b144b9d85a3abba6b2b62e54947cb323bdd4e395262714c57c87cb387d825",
    "classification.csv": "57e471083ca80aa497d35359aaf34311fa1763c3241dfd711bdbdf3ce389ae3f",
}


def test_subcommand_outputs_match_recorded_digests(tmp_path):
    flags = input_flags(SUBCOMMAND_CASE, tmp_path)
    corpus = flags[:6]
    run = ["--sims", "40", "--seed", "5", "--workers", "1"]
    assert main(["simulate", *flags, "--background", "global", *run,
                 "--out", str(tmp_path / "simulate")]) == 0
    assert main(["kld", *flags, *run, "--out", str(tmp_path / "kld")]) == 0
    assert main(["zscore", *flags, "--background", "global", *run,
                 "--out", str(tmp_path / "zscore")]) == 0
    assert main(["classify", *corpus, "--pair-stats", str(tmp_path / "zscore" / "pair_stats.csv"),
                 "--out", str(tmp_path / "classify")]) == 0
    got = {name: sha256(tmp_path / stage / name) for stage, name in (
        ("simulate", "pair_means.csv"), ("kld", "kld.csv"), ("classify", "classification.csv"))}
    assert got == SUBCOMMAND_GOLDEN
