import csv
import io
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cocite import (
    IngestConfig,
    IngestError,
    export_corpus,
    ingest,
    summarize,
    validate_corpus,
)
from cocite.corpus import (
    DROP_CITE_DUPLICATE,
    DROP_CITE_OF_DROPPED_PUB,
    DROP_CITE_UNKNOWN_PUB,
    DROP_CITE_UNKNOWN_REF,
    DROP_PUB_NO_JOURNAL,
    DROP_PUB_YEAR,
    DROP_REF_NO_JOURNAL,
    DROP_REF_NO_SUBJECT,
    DROP_TOO_FEW_REFS,
    Corpus,
    Publication,
    ReferenceRecord,
    write_columns,
)
from cocite.synth import SynthConfig, generate

REFS_BASIC = [
    ("r1", 1990, "J-A", "phys"),
    ("r2", 1991, "J-B", "phys"),
    ("r3", 1991, "J-C", "bio"),
]


def test_publication_with_one_reference_dropped(write_tsvs):
    pubs = [("p1", 1995, "J-A", 3), ("p2", 1995, "J-A", 0), ("p3", 1995, "J-B", 1)]
    cites = [
        ("p1", "r1"), ("p1", "r2"),
        ("p2", "r1"),
        ("p3", "r2"), ("p3", "r3"),
    ]
    corpus = ingest(*write_tsvs(pubs, REFS_BASIC, cites))
    assert [p.pub_id for p in corpus.publications] == ["p1", "p3"]
    assert corpus.diagnostics.dropped[DROP_TOO_FEW_REFS] == 1


def test_journal_alias_collapses_to_most_frequent(write_tsvs):
    refs = [(f"r{i}", 1990, "1234-5678", "phys") for i in range(9)]
    refs += [(f"s{i}", 1990, "1234-567X", "phys") for i in range(2)]
    pubs = [("p1", 1995, "J-A", 0)]
    cites = [("p1", "r0"), ("p1", "s0")]
    corpus = ingest(*write_tsvs(pubs, refs, cites))
    journals = {rec.journal_id for rec in corpus.references.values()}
    assert journals == {"1234-5678"}
    assert corpus.diagnostics.journal_aliases_collapsed == 1


def test_distinct_plain_ids_are_not_merged(write_tsvs):
    refs = [("r1", 1990, "J001", "phys"), ("r2", 1990, "J002", "phys")]
    pubs = [("p1", 1995, "J001", 0)]
    cites = [("p1", "r1"), ("p1", "r2")]
    corpus = ingest(*write_tsvs(pubs, refs, cites))
    assert {rec.journal_id for rec in corpus.references.values()} == {"J001", "J002"}


def test_roundtrip_is_idempotent(tmp_path):
    result = generate(SynthConfig(n_disciplines=2, pubs_per_discipline=500,
                                  ref_pool_per_discipline=900, seed=21))
    first_dir = tmp_path / "first"
    export_corpus(result.pool, first_dir)
    once = ingest(first_dir / "publications.tsv", first_dir / "references.tsv",
                  first_dir / "citations.tsv")
    assert len(once.publications) == 1000
    second_dir = tmp_path / "second"
    export_corpus(once, second_dir)
    twice = ingest(second_dir / "publications.tsv", second_dir / "references.tsv",
                   second_dir / "citations.tsv")
    assert once == twice
    assert once != "not a corpus"
    assert once.diagnostics.total_dropped() == 0
    assert twice.diagnostics.total_dropped() == 0


def test_every_ingested_publication_has_two_distinct_refs(write_tsvs):
    pubs = [("p1", 1995, "J-A", 0), ("p2", 1995, "J-A", 0)]
    cites = [
        ("p1", "r1"), ("p1", "r1"), ("p1", "r2"),
        ("p2", "r3"), ("p2", "r3"),
    ]
    corpus = ingest(*write_tsvs(pubs, REFS_BASIC, cites))
    # p2 collapses to a single reference once the duplicate row is removed.
    assert [p.pub_id for p in corpus.publications] == ["p1"]
    assert corpus.diagnostics.dropped[DROP_CITE_DUPLICATE] == 2
    assert corpus.diagnostics.dropped[DROP_TOO_FEW_REFS] == 1
    for p in corpus.publications:
        assert len(set(p.refs)) == len(p.refs) >= 2


def test_summarize_counts():
    result = generate(SynthConfig(n_disciplines=1, pubs_per_discipline=20,
                                  ref_pool_per_discipline=100, seed=2))
    s = summarize(result.pool)
    assert s.total_references == sum(len(p.refs) for p in result.pool.publications)
    assert s.unique_publications == 20


def test_summarize_small_corpus(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J-X", ["A", "B"], 0), ("p2", "J-X", ["B", "C"], 0)],
        refs={"A": (1990, "J-A", "s"), "B": (1990, "J-B", "s"), "C": (1990, "J-C", "s")},
    )
    s = summarize(corpus)
    assert (s.unique_publications, s.unique_references, s.total_references) == (2, 3, 4)
    assert s.ratio == pytest.approx(4 / 3)


def test_summarize_empty_corpus(make_corpus):
    s = summarize(make_corpus(pubs=[], refs={}))
    assert (s.unique_publications, s.unique_references, s.total_references) == (0, 0, 0)
    assert s.ratio == 0.0


def test_wrong_column_count_names_file_and_line(write_tsvs, tmp_path):
    paths = write_tsvs([("p1", 1995, "J-A", 0)], REFS_BASIC, [("p1", "r1"), ("p1", "r2")])
    bad = paths[0].read_text().splitlines()
    bad.append("p2\t1995\tJ-A")
    paths[0].write_text("\n".join(bad) + "\n")
    with pytest.raises(IngestError, match=r"publications\.tsv:3"):
        ingest(*paths)


def test_non_integer_year_is_an_error(write_tsvs):
    paths = write_tsvs([("p1", "200x", "J-A", 0)], REFS_BASIC, [("p1", "r1")])
    with pytest.raises(IngestError, match="non-integer year"):
        ingest(*paths)


def test_duplicate_pub_id_is_an_error(write_tsvs):
    pubs = [("p1", 1995, "J-A", 0), ("p1", 1995, "J-B", 0)]
    paths = write_tsvs(pubs, REFS_BASIC, [])
    with pytest.raises(IngestError, match="duplicate pub_id"):
        ingest(*paths)


def test_duplicate_ref_id_is_an_error(write_tsvs):
    refs = [("r1", 1990, "J-A", "s"), ("r1", 1991, "J-B", "s")]
    paths = write_tsvs([("p1", 1995, "J-A", 0)], refs, [])
    with pytest.raises(IngestError, match="duplicate ref_id"):
        ingest(*paths)


@pytest.mark.parametrize("column, pubs, refs", [
    ("pub_id", [("p1", 1995, "", 0), ("p1", 1995, "J-A", 0)], REFS_BASIC),
    ("ref_id", [("p1", 1995, "J-A", 0)], [("r1", 1990, "", "phys")] + REFS_BASIC),
], ids=["pub_id", "ref_id"])
def test_duplicate_id_of_a_dropped_row_is_an_error(write_tsvs, column, pubs, refs):
    # Line 2 is dropped for its empty journal; its id is still taken.
    paths = write_tsvs(pubs, refs, [("p1", "r1"), ("p1", "r2")])
    name = "publications" if column == "pub_id" else "references"
    with pytest.raises(IngestError, match=rf"{name}\.tsv:3: duplicate {column} '[pr]1' "
                                          r"\(first seen at line 2\)"):
        ingest(*paths)


def test_incomplete_records_and_unknown_pubs_dropped_and_counted(write_tsvs):
    refs = REFS_BASIC + [("r4", 1990, "J-A", "")]
    pubs = [("p1", 1995, "J-A", 0), ("p2", 1995, "", 0), ("p3", 1995, "J-B", 2)]
    cites = [
        ("p1", "r3"), ("p1", "r4"), ("p1", "r1"),
        ("p2", "r1"), ("p2", "r2"),
        ("p3", "r2"), ("p9", "r1"), ("p3", "r1"),
    ]
    corpus = ingest(*write_tsvs(pubs, refs, cites))
    assert corpus.diagnostics.dropped == Counter({
        DROP_PUB_NO_JOURNAL: 1,
        DROP_REF_NO_SUBJECT: 1,
        DROP_CITE_UNKNOWN_PUB: 3,
        DROP_CITE_UNKNOWN_REF: 1,
    })
    assert [(p.pub_id, p.refs) for p in corpus.publications] == [
        ("p1", ("r3", "r1")),
        ("p3", ("r2", "r1")),
    ]


def test_reference_without_journal_dropped_and_counted(write_tsvs):
    refs = REFS_BASIC + [("r4", 1990, "", "phys")]
    pubs = [("p1", 1995, "J-A", 0)]
    cites = [("p1", "r1"), ("p1", "r2"), ("p1", "r4")]
    corpus = ingest(*write_tsvs(pubs, refs, cites))
    assert corpus.diagnostics.dropped[DROP_REF_NO_JOURNAL] == 1
    assert corpus.diagnostics.dropped[DROP_CITE_UNKNOWN_REF] == 1
    assert corpus.publications[0].refs == ("r1", "r2")


def test_every_citation_row_is_kept_or_tallied_once(write_tsvs):
    refs = REFS_BASIC + [("r4", 1990, "", "phys")]
    pubs = [("p1", 1995, "J-A", 0), ("p2", 1996, "J-A", 0), ("p3", 1995, "J-B", 0),
            ("p4", 1995, "", 0), ("p5", 1995, "J-C", 0)]
    cites = [
        ("p1", "r1"), ("p1", "r2"), ("p1", "r1"), ("p1", "r4"),
        ("p2", "r1"), ("p2", "r2"), ("p2", "r3"),
        ("p3", "r3"), ("p3", "r9"), ("p3", "r3"),
        ("p4", "r1"), ("p9", "r2"),
    ]
    corpus = ingest(*write_tsvs(pubs, refs, cites), IngestConfig(slice_year=1995))
    dropped = corpus.diagnostics.dropped
    assert [p.pub_id for p in corpus.publications] == ["p1"]
    assert dropped[DROP_PUB_YEAR] == 1
    assert dropped[DROP_TOO_FEW_REFS] == 2
    # p2's three rows and p3's one resolved row; p5 cites nothing.
    assert dropped[DROP_CITE_OF_DROPPED_PUB] == 4
    cite_tallies = sum(n for key, n in dropped.items() if key.startswith("citation_"))
    assert corpus.n_citations() + cite_tallies == len(cites)


def test_mixed_years_require_slice_year(write_tsvs):
    pubs = [("p1", 1995, "J-A", 0), ("p2", 1996, "J-A", 0)]
    cites = [("p1", "r1"), ("p1", "r2"), ("p2", "r1"), ("p2", "r2")]
    paths = write_tsvs(pubs, REFS_BASIC, cites)
    with pytest.raises(IngestError, match="slice_year"):
        ingest(*paths)
    corpus = ingest(*paths, IngestConfig(slice_year=1995))
    assert [p.pub_id for p in corpus.publications] == ["p1"]
    assert corpus.diagnostics.dropped[DROP_PUB_YEAR] == 1


def test_validate_corpus_accepts_synth_output():
    result = generate(SynthConfig(seed=4))
    validate_corpus(result.pool)
    for sub in result.by_discipline.values():
        validate_corpus(sub)


def test_validate_corpus_rejects_duplicate_refs(make_corpus):
    corpus = make_corpus(
        pubs=[("p1", "J-X", ["A", "A"], 0)],
        refs={"A": (1990, "J-A", "s")},
    )
    with pytest.raises(ValueError, match="more than once"):
        validate_corpus(corpus)
    # Each other invariant, broken alone.
    refs = {"A": (1990, "J-A", "s"), "B": (1991, "J-B", "t")}
    for pubs, refs, slice_year, match in [
        ([("p1", "J-X", ["A", "B"], 0), ("p1", "J-X", ["B", "A"], 0)], refs, 1995,
         "duplicate pub_id 'p1'"),
        ([("p1", "J-X", ["A", "B"], 0)], refs, 1996,
         "publication 'p1' has year 1995, corpus slice is 1996"),
        ([("p1", "J-X", ["A"], 0)], refs, 1995, "publication 'p1' has fewer than two references"),
        ([("p1", "J-X", ["A", "B"], 0)], {**refs, "B": (1991, "", "t")}, 1995,
         "reference 'B' has an empty journal id"),
        ([("p1", "J-X", ["A", "B"], 0)], {**refs, "A": (1990, "J-A", "")}, 1995,
         "reference 'A' has an empty subject label"),
    ]:
        corpus = replace(make_corpus(pubs=pubs, refs=refs), slice_year=slice_year)
        with pytest.raises(ValueError, match=match):
            validate_corpus(corpus)


def test_from_records_refuses_a_reference_keyed_by_another_id():
    references = {"A": ReferenceRecord("A", 1990, "J-A", "s"),
                  "B": ReferenceRecord("C", 1990, "J-A", "s")}
    publications = [Publication("p1", 1995, "J-X", ("A", "B"), 0)]
    with pytest.raises(ValueError, match="reference map key 'B' does not match record id 'C'"):
        Corpus.from_records(1995, publications, references)


def test_twenty_thousand_subjects_are_coded_in_sorted_order(write_tsvs):
    # Subjects in a scrambled order, and one used only by a dropped reference.
    n = 20_000
    subject = {f"r{i}": f"s{i * 7919 % n:05d}" for i in range(n)}
    refs = [(rid, 1990, "J-A", s) for rid, s in subject.items()] + [("r-x", 1990, "", "s-x")]
    corpus = ingest(*write_tsvs([("p1", 1995, "J-A", 0)], refs, [("p1", "r0"), ("p1", "r1")]))
    assert corpus.subject_ids == sorted(subject.values())
    got = dict(zip(corpus.ref_ids, (corpus.subject_ids[s] for s in corpus.ref_subject.tolist())))
    assert got == subject


@pytest.mark.parametrize("delimiter", [",", "\t"], ids=["comma", "tab"])
def test_write_columns_writes_the_bytes_csv_writes_for_the_rows(tmp_path, delimiter):
    # An int64 column; a float64 one holding repeats of 0.1 + 0.2, both
    # zeros, both infinities, NaNs of two payloads, 1e-300 and 2.5e17; a
    # None column; and strings holding the delimiters, a quote and a newline.
    nan_payload = np.array([0x7FF8_0000_0000_0001], np.int64).view(np.float64)[0]
    floats = np.array([0.1 + 0.2, -0.0, 0.0, float("inf"), -float("inf"), float("nan"),
                       nan_payload, 1e-300, 2.5e17])
    n = 3 * len(floats)
    ints = (np.arange(n, dtype=np.int64) - 5) * (1 << 40)
    reals = floats[np.arange(n) * 4 % len(floats)]
    assert len(np.unique(reals.view(np.int64))) == len(floats)
    texts = [f"j{i}" + ["", ",", "\t", '"', "\n", 'a"b,c\td\ne'][i % 6] for i in range(n)]
    header = ("n", "x", "none", "name")
    path = tmp_path / "table.csv"
    write_columns(path, header, (ints, reals, [None] * n, texts), delimiter)
    want = io.StringIO(newline="")
    w = csv.writer(want, delimiter=delimiter, lineterminator="\n")
    w.writerow(header)
    w.writerows(zip(ints.tolist(), reals.tolist(), [None] * n, texts))
    assert path.read_bytes() == want.getvalue().encode("utf-8")


def test_write_columns_writes_only_the_header_of_a_table_without_rows(tmp_path):
    path = tmp_path / "table.csv"
    write_columns(path, ("a", "b", "c"), (np.zeros(0, np.int64), np.zeros(0), []))
    assert path.read_bytes() == b"a,b,c\n"
    write_columns(path, ("a", "b"), zip(*[]), "\t")
    assert path.read_bytes() == b"a\tb\n"
