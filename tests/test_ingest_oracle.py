"""``cocite.ingest`` against the row-at-a-time reader it replaced.

Each case draws a publications, references and citations TSV triple from
a seeded numpy generator, renders it the way real exports vary (quoted
fields, CRLF line ends, blank lines, a missing final newline), often
breaks one thing in it, and reads it with both readers, once with the
default block size and once with blocks of a few bytes. The corpus rows,
the drop tallies and the exact error text must agree.
"""

import csv
import io
import re

import numpy as np
import pytest

import cocite.corpus as corpus_module
from cocite.cli import main
from cocite.corpus import IngestConfig, IngestError, export_corpus, ingest
from cocite.synth import SynthConfig, generate
from ingest_oracle import ingest as oracle_ingest
from ingest_oracle import read_rows as oracle_read_rows

JOURNALS = ["J-A", "J-B", "J-C", "1234-5678", "1234-567X", "12345678", ""]
SUBJECTS = ["phys", "bio", "chem", ""]
# Each case applies one of these, in turn, besides what it draws at random.
FAULTS = ["none", "width", "empty_file", "bad_header", "duplicate_id", "duplicate_dropped_id",
          "non_integer", "negative", "quote", "crlf", "blank_lines", "no_final_newline",
          "mixed_years"]


def draw_tables(rng, fault):
    """Rows (lists of fields) of the three tables, and the slice year to ask for."""
    n_refs, n_pubs = int(rng.integers(0, 14)), int(rng.integers(0, 10))
    refs = [[f"r{i}", str(int(rng.integers(1985, 1995))), str(rng.choice(JOURNALS)),
             str(rng.choice(SUBJECTS, p=[0.4, 0.3, 0.2, 0.1]))] for i in range(n_refs)]
    years = [1995, 1996] if fault == "mixed_years" or rng.random() < 0.15 else [1995]
    journal_p = [0.3, 0.2, 0.2, 0.1, 0.05, 0.05, 0.1]
    pubs = [[f"p{i}", str(int(rng.choice(years))), str(rng.choice(JOURNALS, p=journal_p)),
             str(int(rng.integers(0, 30)))] for i in range(n_pubs)]
    pub_ids = [p[0] for p in pubs] + ["p-unknown"]
    ref_ids = [r[0] for r in refs] + ["r-unknown"]
    cites = []
    for _ in range(int(rng.integers(0, 40))):
        row = [str(rng.choice(pub_ids)), str(rng.choice(ref_ids))]
        cites.append(row)
        if rng.random() < 0.1:
            cites.append(list(row))  # a repeated citation row
    tables = {"publications": pubs, "references": refs, "citations": cites}
    if (fault == "quote" or rng.random() < 0.1) and (pubs or refs):
        # An id that csv quotes, renamed in every table that holds it.
        table, cite_col = (pubs, 0) if pubs and (not refs or rng.random() < 0.5) else (refs, 1)
        old = table[int(rng.integers(len(table)))][0]
        new = old + str(rng.choice(['"', "\t", "\n", '""x']))
        for rows, c in ((table, 0), (cites, cite_col)):
            for row in rows:
                if row[c] == old:
                    row[c] = new
    name = str(rng.choice(list(tables)))
    rows = tables[name]
    if fault == "width" and rows:
        row = rows[int(rng.integers(len(rows)))]
        if rng.random() < 0.5:
            row.append("extra")
        else:
            row.pop()
    elif fault in ("duplicate_id", "duplicate_dropped_id"):
        table = pubs if rng.random() < 0.5 else refs
        if table:
            first = table[int(rng.integers(len(table)))]
            if fault == "duplicate_dropped_id":
                first[2] = ""  # the first row is dropped for its empty journal
            table.insert(int(rng.integers(table.index(first) + 1, len(table) + 1)), list(first))
    elif fault == "non_integer" and (pubs or refs):
        table = pubs if pubs and (not refs or rng.random() < 0.5) else refs
        col = 3 if table is pubs and rng.random() < 0.5 else 1
        table[int(rng.integers(len(table)))][col] = str(rng.choice(["19x5", "3.5", "", "-"]))
    elif fault == "negative" and pubs:
        pubs[int(rng.integers(len(pubs)))][3] = str(-int(rng.integers(1, 5)))
    slice_year = None if rng.random() < 0.5 else 1995
    return tables, slice_year


def render(rng, header, rows, fault):
    """A table's bytes: csv quoting for fields that need it or are drawn to
    have it, and the drawn line ends, blank lines and final newline."""
    quote = fault == "quote" or rng.random() < 0.1
    crlf = fault == "crlf" or rng.random() < 0.1
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter="\t", lineterminator="\r\n" if crlf else "\n",
                        quoting=csv.QUOTE_ALL if quote and rng.random() < 0.5
                        else csv.QUOTE_MINIMAL)
    writer.writerow(header)
    for row in rows:
        if fault == "blank_lines" or rng.random() < 0.05:
            buf.write("\r\n" if crlf else "\n")
        writer.writerow(row)
    text = buf.getvalue()
    if fault == "no_final_newline" or rng.random() < 0.1:
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


def draw_case(rng, fault, base):
    tables, slice_year = draw_tables(rng, fault)
    headers = {"publications": corpus_module.PUB_COLUMNS,
               "references": corpus_module.REF_COLUMNS,
               "citations": corpus_module.CITE_COLUMNS}
    victim = str(rng.choice(list(tables)))
    paths = []
    for name in ("publications", "references", "citations"):
        header = list(headers[name])
        file_fault = fault if name == victim or fault in ("blank_lines", "crlf") else "none"
        if file_fault == "bad_header":
            header[int(rng.integers(len(header)))] += "x"
        data = render(rng, header, tables[name], file_fault)
        if file_fault == "empty_file":
            data = b""
        path = base / f"{name}.tsv"
        path.write_bytes(data)
        paths.append(path)
    return paths, IngestConfig(slice_year=slice_year)


def outcome(reader, paths, config):
    try:
        c = reader(*paths, config)
    except IngestError as exc:
        return "error", str(exc)
    return ("corpus", c.slice_year, list(c.publications), dict(c.references),
            dict(c.diagnostics.dropped), c.diagnostics.journal_aliases_collapsed)


@pytest.mark.parametrize("block_bytes", [None, 7], ids=["default-blocks", "7-byte-blocks"])
def test_ingest_matches_the_row_reader_on_random_tables(tmp_path, monkeypatch, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(corpus_module, "_BLOCK_BYTES", block_bytes)
    seen = {"corpus": 0, "error": 0}
    errors = set()
    for seed in range(len(FAULTS) * 24):
        fault = FAULTS[seed % len(FAULTS)]
        base = tmp_path / str(seed)
        base.mkdir()
        rng = np.random.default_rng(seed)
        paths, config = draw_case(rng, fault, base)
        got = outcome(ingest, paths, config)
        assert got == outcome(oracle_ingest, paths, config), (seed, fault)
        seen[got[0]] += 1
        if got[0] == "error":
            errors.add(got[1].split(": ")[1].split(" ")[0])
    # Both outcomes occur, and the errors cover every structural check.
    assert min(seen.values()) >= 50, seen
    assert {"empty", "bad", "expected", "duplicate", "non-integer", "negative",
            "publications"} <= errors, errors


def test_ingest_matches_the_row_reader_on_a_corpus_with_every_feature(tmp_path, monkeypatch):
    # Quoted ids holding a tab, a newline and a quote, CRLF line ends, blank
    # lines, no final newline, every drop reason and two ISSN aliases, all
    # at once. The citations' first quote is on line 5, so small blocks read
    # the lines before it split and the rest through csv.
    pubs = ("pub_id\tyear\tjournal_id\tcitations_8yr\r\n"
            "p1\t1995\t1234-5678\t4\r\n\r\n"
            "\"p\t2\"\t1995\tJ-A\t0\r\n"
            "p3\t1996\tJ-B\t2\r\n"
            "p4\t1995\t\t1\r\n"
            "\"p\n5\"\t1995\t1234-567X\t7")
    refs = ("ref_id\tyear\tjournal_id\tsubject\n"
            "r1\t1990\t1234-5678\tphys\n"
            "r2\t1991\t12345678\tbio\n\n"
            "\"r\"\"3\"\t1991\tJ-A\tbio\n"
            "r4\t1992\t\tbio\n"
            "r5\t1992\tJ-C\t\n")
    cites = ("pub_id\tref_id\n"
             "p1\tr1\np1\tr2\np1\tr1\n"
             "\"p\t2\"\t\"r\"\"3\"\n\"p\t2\"\tr4\n"
             "p3\tr1\np3\tr2\n"
             "p4\tr1\np9\tr1\np1\tr9\n"
             "\"p\n5\"\tr1\n\"p\n5\"\t\"r\"\"3\"\n")
    paths = []
    for name, text in (("publications", pubs), ("references", refs), ("citations", cites)):
        paths.append(tmp_path / f"{name}.tsv")
        paths[-1].write_text(text, encoding="utf-8", newline="")
    for block_bytes in (1 << 20, 5):
        monkeypatch.setattr(corpus_module, "_BLOCK_BYTES", block_bytes)
        config = IngestConfig(slice_year=1995)
        got = outcome(ingest, paths, config)
        assert got == outcome(oracle_ingest, paths, config)
        assert [(p.pub_id, p.journal_id, p.refs) for p in got[2]] == [
            ("p1", "1234-5678", ("r1", "r2")), ("p\n5", "1234-5678", ("r1", 'r"3'))]
        assert got[4] == {
            corpus_module.DROP_REF_NO_JOURNAL: 1, corpus_module.DROP_REF_NO_SUBJECT: 1,
            corpus_module.DROP_PUB_NO_JOURNAL: 1, corpus_module.DROP_CITE_UNKNOWN_PUB: 2,
            corpus_module.DROP_CITE_UNKNOWN_REF: 2, corpus_module.DROP_CITE_DUPLICATE: 1,
            corpus_module.DROP_PUB_YEAR: 1, corpus_module.DROP_TOO_FEW_REFS: 1,
            corpus_module.DROP_CITE_OF_DROPPED_PUB: 3,
        }
        assert got[5] == 2  # 12345678 and 1234-567X become 1234-5678


@pytest.mark.parametrize("where", ["header", "first block", "later block"])
def test_undecodable_byte_names_its_file_and_line(tmp_path, write_tsvs, monkeypatch, where):
    cites = [(f"p{i}", "r1") for i in range(40)]
    paths = write_tsvs([("p1", 1995, "J-A", 0)], [("r1", 1990, "J-A", "s")], cites)
    lines = paths[2].read_bytes().split(b"\n")
    line = {"header": 1, "first block": 3, "later block": 35}[where]
    lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
    paths[2].write_bytes(b"\n".join(lines))
    monkeypatch.setattr(corpus_module, "_BLOCK_BYTES", 64)
    with pytest.raises(IngestError, match=rf"citations\.tsv:{line}: not UTF-8 text "
                                          r"\(invalid start byte, byte 0xff\)"):
        ingest(*paths)


def test_a_fault_before_an_undecodable_byte_is_raised_first(tmp_path, write_tsvs):
    paths = write_tsvs([("p1", 1995, "J-A", 0)], [("r1", 1990, "J-A", "s")],
                       [("p1", "r1"), ("p1",), ("p1", "r1")])
    paths[2].write_bytes(paths[2].read_bytes() + b"p\xff\tr1\n")
    with pytest.raises(IngestError, match=r"citations\.tsv:3: expected 2 columns, found 1"):
        ingest(*paths)


# Line 2 starts a quoted pub_id that holds a newline, so the row of line 4
# is the third record.
QUOTED_NEWLINE = b'pub_id\tyear\tjournal_id\tcitations_8yr\n"P1\nX"\t2000\tJ1\t5\nP2\t2000\tJ1\t-1\n'


def test_read_blocks_numbers_a_row_by_the_line_it_starts_on(tmp_path):
    path = tmp_path / "publications.tsv"
    path.write_bytes(QUOTED_NEWLINE)
    rows = []
    read_block_rows(path, rows, corpus_module.PUB_COLUMNS, "\t")
    assert [line for line, _ in rows] == [2, 4]
    assert rows[0][1] == ["P1\nX", "2000", "J1", "5"]


@pytest.mark.parametrize("block_bytes", [None, 4], ids=["default-blocks", "4-byte-blocks"])
def test_ingest_names_the_file_line_after_a_quoted_newline(write_tsvs, monkeypatch,
                                                          block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(corpus_module, "_BLOCK_BYTES", block_bytes)
    paths = write_tsvs([], [], [])
    paths[0].write_bytes(QUOTED_NEWLINE)
    with pytest.raises(IngestError, match=r"publications\.tsv:4: negative citations_8yr: -1"):
        ingest(*paths)


def read_block_rows(path, rows, columns=("a", "b"), delimiter=","):
    """Extend ``rows`` with the (line, fields) of each row ``read_blocks``
    yields, by default for a two-column CSV, until it ends or raises."""
    for lines, cols in corpus_module.read_blocks(path, columns, delimiter):
        rows.extend(zip(lines.tolist(), map(list, zip(*cols))))


@pytest.mark.parametrize("block_bytes", [None, 4], ids=["default-blocks", "4-byte-blocks"])
def test_read_blocks_names_the_line_of_an_undecodable_byte(tmp_path, monkeypatch, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(corpus_module, "_BLOCK_BYTES", block_bytes)
    path = tmp_path / "table.csv"
    path.write_bytes(b"a,b\n1,2\n3,\xc3\n")
    rows = []
    with pytest.raises(IngestError, match=r"table\.csv:3: not UTF-8 text"):
        read_block_rows(path, rows)
    assert rows == [(2, ["1", "2"])]


@pytest.mark.parametrize("block_bytes", [None, 4], ids=["default-blocks", "4-byte-blocks"])
@pytest.mark.parametrize("data, match", [
    (b"a,b\n1,2\n3\n4,\xff\n", r"table\.csv:3: expected 2 columns, found 1"),
    (b"a,\xff\n1,2\n", r"table\.csv:1: not UTF-8 text"),
], ids=["width first", "header"])
def test_read_blocks_raises_the_first_fault_in_row_order(tmp_path, monkeypatch, block_bytes,
                                                         data, match):
    if block_bytes is not None:
        monkeypatch.setattr(corpus_module, "_BLOCK_BYTES", block_bytes)
    path = tmp_path / "table.csv"
    path.write_bytes(data)
    rows = []
    with pytest.raises(IngestError, match=match):
        read_block_rows(path, rows)
    assert rows == ([(2, ["1", "2"])] if b"3" in data else [])


@pytest.mark.parametrize("block_bytes", [None, 4], ids=["default-blocks", "4-byte-blocks"])
def test_a_byte_order_mark_before_the_header_is_dropped(tmp_path, monkeypatch, block_bytes):
    # LF, CRLF and quoted-header files read the same with a leading UTF-8
    # byte order mark; a mark anywhere else is data.
    if block_bytes is not None:
        monkeypatch.setattr(corpus_module, "_BLOCK_BYTES", block_bytes)
    bom = "\ufeff".encode()
    path = tmp_path / "table.csv"
    for text in (b"a,b\n1,2\n3,4\n", b"a,b\r\n1,2\r\n3,4\r\n", b'"a",b\n1,"2"\n3,4\n'):
        plain, marked = [], []
        path.write_bytes(text)
        read_block_rows(path, plain)
        path.write_bytes(bom + text)
        read_block_rows(path, marked)
        assert marked == plain == [(2, ["1", "2"]), (3, ["3", "4"])], text
    path.write_bytes(b"a,b\n" + bom + b"1,2\n3," + bom + b"\n")
    rows = []
    read_block_rows(path, rows)
    assert rows == [(2, ["\ufeff1", "2"]), (3, ["3", "\ufeff"])]
    path.write_bytes(bom + bom + b"a,b\n1,2\n")
    with pytest.raises(IngestError, match=re.escape("table.csv:1: bad header ['\\ufeffa', 'b']")):
        read_block_rows(path, [])


def test_read_blocks_reads_a_tab_in_a_csv_field_as_text(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"a,b\n1,2\nx\ty,3\n")
    rows = []
    read_block_rows(path, rows)
    assert rows == [(2, ["1", "2"]), (3, ["x\ty", "3"])]


def test_the_csv_fallback_starts_at_the_refused_blocks_first_line(tmp_path, monkeypatch):
    # Every line but the header and line 30 is 8 bytes, so 64-byte blocks
    # hold lines 2-9, 10-17 and 18-25, which split; the quote on line 30
    # makes the block from line 26 the first refused, and csv is fed each
    # line from there on once.
    monkeypatch.setattr(corpus_module, "_BLOCK_BYTES", 64)
    lines = [f"p{i:02d}\tr{i:02d}\n" for i in range(2, 60)]
    lines[30 - 2] = '"p30"\tr30\n'
    path = tmp_path / "table.tsv"
    path.write_text("a\tb\n" + "".join(lines), encoding="utf-8")
    fed = []
    reader = csv.reader

    def spy(source, **kwargs):
        return reader((fed.append(line) or line for line in source), **kwargs)

    monkeypatch.setattr(csv, "reader", spy)
    rows = []
    read_block_rows(path, rows, ("a", "b"), "\t")
    assert "".join(fed) == "".join(lines[26 - 2:])
    assert rows == [(i, [f"p{i:02d}", f"r{i:02d}"]) for i in range(2, 60)]


@pytest.mark.parametrize("block_bytes", [4, 64, None],
                         ids=["4-byte-blocks", "64-byte-blocks", "default-blocks"])
def test_read_blocks_matches_a_whole_file_csv_read(tmp_path, monkeypatch, block_bytes):
    # About 300 KB of plain lines, so that even a default block that reads
    # on is a later one, then a blank CRLF line, a lone CR, a quote around
    # a CRLF, a CRLF line, a blank line and a quoted newline, each followed
    # by plain lines. The header and the plain lines end in LF, in CRLF, or
    # in either in turn, one file each. csv yields its rows 3 at a time.
    monkeypatch.setattr(corpus_module, "_CSV_BLOCK_ROWS", 3)
    if block_bytes is not None:
        monkeypatch.setattr(corpus_module, "_BLOCK_BYTES", block_bytes)
    columns = corpus_module.CITE_COLUMNS
    late = ["\r\n", "p0\tr0\n", "pa\tra\rpb\trb\n", '"p""\r\nq"\tr1\n', "p2\tr2\n", "p3\tr3\r\n",
            "p4\tr4\n", "\n", "p5\tr5\n", '"p\n6"\tr6\n', "p7\tr7\n", "p8\tr8"]
    for ends in (["\n"], ["\r\n"], ["\r\n", "\n", "\n"]):
        plain = [f"p{i}\t{'r' * 140}{i}{ends[i % len(ends)]}" for i in range(2000)]
        path = tmp_path / "citations.tsv"
        path.write_bytes(("\t".join(columns) + ends[0] + "".join(plain + late)).encode())
        rows = []
        read_block_rows(path, rows, columns, "\t")
        assert rows == list(oracle_read_rows(path, columns, "\t")), ends
        assert rows[1998:] == [
            (2000, ["p1998", "r" * 140 + "1998"]), (2001, ["p1999", "r" * 140 + "1999"]),
            (2003, ["p0", "r0"]), (2004, ["pa", "ra"]), (2005, ["pb", "rb"]),
            (2006, ['p"\r\nq', "r1"]), (2008, ["p2", "r2"]), (2009, ["p3", "r3"]),
            (2010, ["p4", "r4"]), (2012, ["p5", "r5"]), (2013, ["p\n6", "r6"]),
            (2015, ["p7", "r7"]), (2016, ["p8", "r8"])]


def test_an_all_crlf_export_is_split_without_csv(tmp_path, monkeypatch):
    # Scenario S's three tables with CRLF line ends read as the same corpus
    # as with LF, and no block of them is handed to csv.
    pool = generate(SynthConfig(n_disciplines=4, journals_per_discipline=4,
                                pubs_per_discipline=2500, ref_pool_per_discipline=4000,
                                refs_mean=10, seed=77)).pool
    lf = list(export_corpus(pool, tmp_path / "lf").values())
    crlf = [tmp_path / path.name for path in lf]
    for src, dst in zip(lf, crlf):
        dst.write_bytes(src.read_bytes().replace(b"\n", b"\r\n"))
    want = ingest(*lf)

    def refuse(path, *args):
        raise AssertionError(f"{path} was read by csv")

    monkeypatch.setattr(corpus_module, "_read_csv", refuse)
    assert ingest(*crlf) == want
    assert want.n_citations() == 100_108


@pytest.mark.parametrize("form", ["quoted", "crlf", "split"])
def test_a_field_past_csvs_limit_names_its_line(write_tsvs, tmp_path, capsys, form):
    # One journal id of 200,002 characters on line 3: quoted, or unquoted
    # with CRLF line ends, are read by csv, and unquoted with LF line ends
    # would split; all three are refused at that line.
    journal = "J1" + "x" * 200_000
    paths = write_tsvs([("p1", 1995, "J-A", 0), ("p2", 1995, journal, 0)],
                       [("r1", 1990, "J-A", "s")], [])
    text = paths[0].read_text(encoding="utf-8")
    if form == "quoted":
        text = text.replace(journal, f'"{journal}"')
    elif form == "crlf":
        text = text.replace("\n", "\r\n")
    paths[0].write_text(text, encoding="utf-8", newline="")
    with pytest.raises(IngestError, match=r"publications\.tsv:3: field larger than field limit"):
        ingest(*paths)
    capsys.readouterr()
    assert main(["ingest", "--pubs", str(paths[0]), "--refs", str(paths[1]),
                 "--cites", str(paths[2]), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{paths[0]}:3: field larger than field limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("journal", ["J" * 131_072, "é" * 100_000], ids=["at-limit", "multibyte"])
def test_a_field_within_csvs_limit_is_read(write_tsvs, journal):
    # "é" * 100,000 is 200,000 bytes, so the split path hands its block to
    # csv, which counts 100,000 characters.
    paths = write_tsvs([("p1", 1995, journal, 0)],
                       [("r1", 1990, journal, "s"), ("r2", 1990, "J-A", "s")],
                       [("p1", "r1"), ("p1", "r2")])
    corpus = ingest(*paths)
    assert corpus.journal_ids == sorted([journal, "J-A"])
    assert corpus.journal_ids[corpus.pub_journal[0]] == journal


@pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv"])
def test_an_earlier_rows_fault_comes_before_a_later_rows_width(tmp_path, write_tsvs, quoted):
    # Line 3 repeats line 2's id and line 5 has a column too many; with a
    # quoted id the file is read by csv, which stops at line 5 first.
    name = '"p 1"' if quoted else "p1"
    paths = write_tsvs([(name, 1995, "J-A", 0), (name, 1995, "J-A", 0), ("p2", 1995, "J-A", 0),
                        ("p3", 1995, "J-A", 0, "extra")], [("r1", 1990, "J-A", "s")], [])
    match = r"publications\.tsv:3: duplicate pub_id '(p 1|p1)' \(first seen at line 2\)"
    with pytest.raises(IngestError, match=match):
        ingest(*paths)
    with pytest.raises(IngestError, match=match):
        oracle_ingest(*paths)


@pytest.mark.parametrize("column, value", [("year", str(1 << 63)), ("citations_8yr", "9" * 30)])
def test_a_number_past_int64_names_its_line(write_tsvs, column, value):
    pub = {"year": (value, 0), "citations_8yr": (1995, value)}[column]
    paths = write_tsvs([("p1", 1995, "J-A", 0), ("p2", pub[0], "J-A", pub[1])],
                       [("r1", 1990, "J-A", "s")], [])
    with pytest.raises(IngestError, match=rf"publications\.tsv:3: {column} out of range: "):
        ingest(*paths)
