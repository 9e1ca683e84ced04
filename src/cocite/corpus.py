"""Corpus data model, TSV ingestion, validation filters, and summaries.

A corpus is a single-year slice of publications together with the
reference records their citations resolve to. Ingestion reads three
tab-separated files (publications, references, citations), applies the
completeness filters, collapses journal identifier aliases to the most
frequent form, and counts every dropped row by reason.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

PUB_COLUMNS = ("pub_id", "year", "journal_id", "citations_8yr")
REF_COLUMNS = ("ref_id", "year", "journal_id", "subject")
CITE_COLUMNS = ("pub_id", "ref_id")

# Drop-reason keys used in IngestDiagnostics.dropped.
DROP_TOO_FEW_REFS = "publication_fewer_than_two_references"
DROP_PUB_YEAR = "publication_outside_slice_year"
DROP_PUB_NO_JOURNAL = "publication_missing_journal"
DROP_REF_NO_JOURNAL = "reference_missing_journal"
DROP_REF_NO_SUBJECT = "reference_missing_subject"
DROP_CITE_UNKNOWN_PUB = "citation_unresolved_pub"
DROP_CITE_UNKNOWN_REF = "citation_unresolved_ref"
DROP_CITE_DUPLICATE = "citation_duplicate_row"
DROP_CITE_OF_DROPPED_PUB = "citation_of_dropped_publication"

_ISSN_SHAPE = re.compile(r"^\d{4}-?\d{3}[\dXx]$")


class IngestError(ValueError):
    """Unrecoverable defect in an input file, reported as path:line."""


@dataclass(frozen=True)
class ReferenceRecord:
    """A cited document with complete publication data."""

    ref_id: str
    year: int
    journal_id: str
    subject: str


@dataclass(frozen=True)
class Publication:
    """A citing article and the ordered references it cites."""

    pub_id: str
    year: int
    journal_id: str
    refs: tuple[str, ...]
    citations_8yr: int


@dataclass
class IngestDiagnostics:
    """Row-level accounting for one ingestion run."""

    dropped: Counter = field(default_factory=Counter)
    journal_aliases_collapsed: int = 0

    def total_dropped(self) -> int:
        return sum(self.dropped.values())


@dataclass
class Corpus:
    """A year slice of publications plus the references they resolve to.

    ``background_tag`` records which substitution pool the corpus stands
    for when it is used by the shuffling machinery: ``local`` for a
    disciplinary network, ``global`` for an enclosing universe.
    Immutable by convention once constructed; every analysis takes a
    corpus read-only.
    """

    slice_year: int
    publications: list[Publication]
    references: dict[str, ReferenceRecord]
    background_tag: str = "local"
    diagnostics: IngestDiagnostics | None = field(default=None, compare=False)

    def journals(self) -> set[str]:
        """Journal ids appearing on this corpus's references."""
        return {rec.journal_id for rec in self.references.values()}

    def n_citations(self) -> int:
        return sum(len(p.refs) for p in self.publications)


@dataclass(frozen=True)
class IngestConfig:
    slice_year: int | None = None
    background_tag: str = "local"


@dataclass(frozen=True)
class CorpusSummary:
    unique_publications: int
    unique_references: int
    total_references: int
    ratio: float


def read_rows(path: str | Path, columns: tuple[str, ...],
              delimiter: str = ",") -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, fields) for a table file, validating the header.

    Blank lines are skipped; a row of the wrong width raises IngestError.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}:1: empty file, expected header {columns}") from None
        if tuple(header) != columns:
            raise IngestError(f"{path}:1: bad header {header!r}, expected {list(columns)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise IngestError(
                    f"{path}:{lineno}: expected {len(columns)} columns, found {len(row)}"
                )
            yield lineno, row


def write_rows(path: str | Path, columns: tuple[str, ...], rows: Iterable[Sequence],
               delimiter: str = ",") -> None:
    """Write a header and rows: UTF-8, ``\\n`` line ends, minimal quoting.

    ``csv`` writes a float as its shortest round-trip repr and None as an
    empty field.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)


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
           config: IngestConfig = IngestConfig()) -> Corpus:
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

    return Corpus(
        slice_year=slice_year,
        publications=publications,
        references=references,
        background_tag=config.background_tag,
        diagnostics=diags,
    )


def export_corpus(corpus: Corpus, out_dir: str | Path) -> dict[str, Path]:
    """Write a corpus back out as the three TSV files.

    Publications keep corpus order, references are sorted by id, so
    identical corpora export byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "publications": out / "publications.tsv",
        "references": out / "references.tsv",
        "citations": out / "citations.tsv",
    }
    write_rows(paths["publications"], PUB_COLUMNS,
               ((p.pub_id, p.year, p.journal_id, p.citations_8yr) for p in corpus.publications),
               "\t")
    refs = (corpus.references[rid] for rid in sorted(corpus.references))
    write_rows(paths["references"], REF_COLUMNS,
               ((r.ref_id, r.year, r.journal_id, r.subject) for r in refs), "\t")
    write_rows(paths["citations"], CITE_COLUMNS,
               ((p.pub_id, rid) for p in corpus.publications for rid in p.refs), "\t")
    return paths


def summarize(corpus: Corpus) -> CorpusSummary:
    """Publication/reference counts and the total-to-unique reference ratio."""
    cited: set[str] = set()
    total = 0
    for p in corpus.publications:
        cited.update(p.refs)
        total += len(p.refs)
    ratio = total / len(cited) if cited else 0.0
    return CorpusSummary(len(corpus.publications), len(cited), total, ratio)


def validate_corpus(corpus: Corpus) -> None:
    """Raise ValueError on any violated corpus invariant."""
    seen: set[str] = set()
    for p in corpus.publications:
        if p.pub_id in seen:
            raise ValueError(f"duplicate pub_id {p.pub_id!r}")
        seen.add(p.pub_id)
        if p.year != corpus.slice_year:
            raise ValueError(
                f"publication {p.pub_id!r} has year {p.year}, corpus slice is {corpus.slice_year}"
            )
        if len(p.refs) < 2:
            raise ValueError(f"publication {p.pub_id!r} has fewer than two references")
        if len(set(p.refs)) != len(p.refs):
            raise ValueError(f"publication {p.pub_id!r} cites a reference more than once")
        for rid in p.refs:
            if rid not in corpus.references:
                raise ValueError(f"publication {p.pub_id!r} cites unknown reference {rid!r}")
    for rid, rec in corpus.references.items():
        if rec.ref_id != rid:
            raise ValueError(f"reference map key {rid!r} does not match record id {rec.ref_id!r}")
        if not rec.journal_id:
            raise ValueError(f"reference {rid!r} has an empty journal id")
        if not rec.subject:
            raise ValueError(f"reference {rid!r} has an empty subject label")
