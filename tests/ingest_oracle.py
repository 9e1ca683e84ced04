"""The row-at-a-time corpus reader that the array ingest replaced, kept as
the oracle that ``tests/test_ingest_oracle.py`` compares ``cocite.ingest``
against.

``ingest`` below is the former ``cocite.corpus.ingest`` with its helpers,
unchanged except that it returns its rows in a namespace instead of a
``Corpus``: publications as a list of ``Publication``, references as a
dict of ``ReferenceRecord`` in file order, and the diagnostics.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator

from cocite.corpus import (
    CITE_COLUMNS,
    DROP_CITE_DUPLICATE,
    DROP_CITE_OF_DROPPED_PUB,
    DROP_CITE_UNKNOWN_PUB,
    DROP_CITE_UNKNOWN_REF,
    DROP_PUB_NO_JOURNAL,
    DROP_PUB_YEAR,
    DROP_REF_NO_JOURNAL,
    DROP_REF_NO_SUBJECT,
    DROP_TOO_FEW_REFS,
    PUB_COLUMNS,
    REF_COLUMNS,
    IngestConfig,
    IngestDiagnostics,
    IngestError,
    Publication,
    ReferenceRecord,
)

_ISSN_SHAPE = re.compile(r"^\d{4}-?\d{3}[\dXx]$")


def read_rows(path: str | Path, columns: tuple[str, ...],
              delimiter: str = ",") -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, fields) for a table file, validating the header.

    A row's line number is the file line it starts on. Blank lines are
    skipped; a row of the wrong width raises IngestError.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}:1: empty file, expected header {columns}") from None
        if tuple(header) != columns:
            raise IngestError(f"{path}:1: bad header {header!r}, expected {list(columns)}")
        while True:
            lineno = reader.line_num + 1
            row = next(reader, None)
            if row is None:
                return
            if not row:
                continue
            if len(row) != len(columns):
                raise IngestError(
                    f"{path}:{lineno}: expected {len(columns)} columns, found {len(row)}"
                )
            yield lineno, row


def _parse_int(value: str, path: Path, lineno: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise IngestError(f"{path}:{lineno}: non-integer {what}: {value!r}") from None


def _alias_key(journal_id: str) -> str:
    """Equivalence key under which raw journal identifiers are aliases.

    ISSN-shaped identifiers that differ only in the trailing check
    character denote the same serial; anything else is its own key.
    """
    if _ISSN_SHAPE.match(journal_id):
        return journal_id.replace("-", "").upper()[:7]
    return journal_id


def _canonical_journal_map(raw_counts: Counter) -> tuple[dict[str, str], int]:
    """Map each raw journal id to the most frequent form of its alias class."""
    classes: dict[str, list[str]] = {}
    for raw in raw_counts:
        classes.setdefault(_alias_key(raw), []).append(raw)
    mapping: dict[str, str] = {}
    collapsed = 0
    for members in classes.values():
        canon = max(members, key=lambda r: (raw_counts[r], r))
        for raw in members:
            mapping[raw] = canon
            if raw != canon:
                collapsed += 1
    return mapping, collapsed


def _unique_id_rows(path: Path, columns: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """``read_rows`` of a TSV keyed by its first column, which must be unique.

    A repeated id raises IngestError against the line it was first seen
    at, whether or not that earlier row was kept.
    """
    first_line: dict[str, int] = {}
    for lineno, row in read_rows(path, columns, "\t"):
        first = first_line.setdefault(row[0], lineno)
        if first != lineno:
            raise IngestError(
                f"{path}:{lineno}: duplicate {columns[0]} {row[0]!r} (first seen at line {first})"
            )
        yield lineno, row


def ingest(pub_file: str | Path, ref_file: str | Path, cite_file: str | Path,
           config: IngestConfig = IngestConfig()) -> SimpleNamespace:
    """Read and validate a corpus from its three TSV files.

    Recoverable defects (incomplete records, citations that do not
    resolve or repeat an earlier row, publications outside the slice year
    or left with fewer than two references, and those publications'
    citations) drop the affected rows and are tallied in the returned
    corpus's diagnostics. Structural defects (malformed rows,
    duplicate identifiers) raise IngestError naming the file and line.
    """
    pub_path, ref_path, cite_path = Path(pub_file), Path(ref_file), Path(cite_file)
    diags = IngestDiagnostics()

    raw_refs: dict[str, tuple[int, str, str]] = {}
    journal_counts: Counter = Counter()
    for lineno, (ref_id, year_s, journal_id, subject) in _unique_id_rows(ref_path, REF_COLUMNS):
        year = _parse_int(year_s, ref_path, lineno, "year")
        if not journal_id:
            diags.dropped[DROP_REF_NO_JOURNAL] += 1
            continue
        if not subject:
            diags.dropped[DROP_REF_NO_SUBJECT] += 1
            continue
        raw_refs[ref_id] = (year, journal_id, subject)
        journal_counts[journal_id] += 1

    # Each publication's references are the keys of its own dict, in
    # citation-row order; a repeated citation row is one membership test.
    raw_pubs: dict[str, tuple[int, str, int, dict[str, None]]] = {}
    for lineno, (pub_id, year_s, journal_id, cites_s) in _unique_id_rows(pub_path, PUB_COLUMNS):
        year = _parse_int(year_s, pub_path, lineno, "year")
        cites = _parse_int(cites_s, pub_path, lineno, "citations_8yr")
        if cites < 0:
            raise IngestError(f"{pub_path}:{lineno}: negative citations_8yr: {cites}")
        if not journal_id:
            diags.dropped[DROP_PUB_NO_JOURNAL] += 1
            continue
        raw_pubs[pub_id] = (year, journal_id, cites, {})
        journal_counts[journal_id] += 1

    slice_year = config.slice_year
    if slice_year is None:
        years = {raw[0] for raw in raw_pubs.values()}
        if len(years) > 1:
            raise IngestError(
                f"{pub_path}: publications span years {sorted(years)}; "
                "set slice_year to select one"
            )
        slice_year = years.pop() if years else 0

    journal_map, collapsed = _canonical_journal_map(journal_counts)
    diags.journal_aliases_collapsed = collapsed

    references = {
        rid: ReferenceRecord(rid, year, journal_map[journal], subject)
        for rid, (year, journal, subject) in raw_refs.items()
    }

    for _, (pub_id, ref_id) in read_rows(cite_path, CITE_COLUMNS, "\t"):
        raw = raw_pubs.get(pub_id)
        if raw is None:
            diags.dropped[DROP_CITE_UNKNOWN_PUB] += 1
        elif ref_id not in references:
            diags.dropped[DROP_CITE_UNKNOWN_REF] += 1
        elif ref_id in raw[3]:
            diags.dropped[DROP_CITE_DUPLICATE] += 1
        else:
            raw[3][ref_id] = None

    publications: list[Publication] = []
    for pub_id, (year, journal, cites, refs) in raw_pubs.items():
        if year != slice_year or len(refs) < 2:
            diags.dropped[DROP_PUB_YEAR if year != slice_year else DROP_TOO_FEW_REFS] += 1
            if refs:
                diags.dropped[DROP_CITE_OF_DROPPED_PUB] += len(refs)
            continue
        publications.append(Publication(pub_id, year, journal_map[journal], tuple(refs), cites))

    return SimpleNamespace(
        slice_year=slice_year,
        publications=publications,
        references=references,
        background_tag=config.background_tag,
        diagnostics=diags,
    )
