"""Corpus data model, TSV ingestion, validation filters, and summaries.

A corpus is a single-year slice of publications together with the
reference records their citations resolve to, held as arrays of integer
codes with the string ids kept as lookup tables. Ingestion reads three
tab-separated files (publications, references, citations) in blocks,
applies the completeness filters, collapses journal identifier aliases to
the most frequent form, and counts every dropped row by reason.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

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

# Ingest reads the TSV files in blocks of about this many bytes, turning
# each block into codes before reading the next. Ingesting the L8 corpus
# of perfbench/workloads.py peaked at 47 MiB RSS with 256 KiB blocks and at
# 55 MiB with 1 MiB blocks, in the same time.
_BLOCK_BYTES = 1 << 18
# Rows per block where ingest reads a table with ``csv``.
_CSV_BLOCK_ROWS = 1 << 14


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

    def tally(self, reason: str, n: int) -> None:
        """Count n dropped rows; a reason with none is left out."""
        if n:
            self.dropped[reason] += int(n)


def _ptr(counts: np.ndarray) -> np.ndarray:
    """CSR offsets of consecutive runs of the given lengths."""
    return np.concatenate([np.zeros(1, np.int64), np.cumsum(counts, dtype=np.int64)])


def _codes(values: Iterable, table: Sequence[str]) -> np.ndarray:
    """Each value's position in ``table``, -1 for a value not in it."""
    pos = dict(zip(table, count()))
    return np.fromiter(map(pos.get, values, repeat(-1)), np.int64)


def _merged_tables(a: list[str], b: list[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """One sorted table holding two, and each one's codes in it."""
    if a == b:
        same = np.arange(len(a), dtype=np.int64)
        return a, same, same
    table = sorted(set(a) | set(b))
    return table, _codes(a, table), _codes(b, table)


@dataclass(eq=False)
class Corpus:
    """A year slice of publications plus the references they resolve to.

    Publication row i has id ``pub_ids[i]``, year ``pub_year[i]``, journal
    ``journal_ids[pub_journal[i]]`` and ``citations_8yr[i]``. Its
    references, in citation order, are the codes
    ``slot_ref[pub_ptr[i]:pub_ptr[i + 1]]``. Reference code r has id
    ``ref_ids[r]``, year ``ref_year[r]``, journal
    ``journal_ids[ref_journal[r]]`` and subject
    ``subject_ids[ref_subject[r]]``. The three string tables are sorted and
    hold no id twice; the journal and subject tables may hold ids that no
    row uses. Every column is an int64 array.

    ``publications`` and ``references`` are read-only row views, built on
    first use; ``from_records`` builds a corpus from such rows.

    ``background_tag`` records which substitution pool the corpus stands
    for when it is used by the shuffling machinery: ``local`` for a
    disciplinary network, ``global`` for an enclosing universe.
    Immutable by convention once constructed; every analysis takes a
    corpus read-only.
    """

    slice_year: int
    pub_ids: list[str]
    pub_year: np.ndarray
    pub_journal: np.ndarray
    citations_8yr: np.ndarray
    pub_ptr: np.ndarray
    slot_ref: np.ndarray
    ref_ids: list[str]
    ref_year: np.ndarray
    ref_journal: np.ndarray
    ref_subject: np.ndarray
    journal_ids: list[str]
    subject_ids: list[str]
    background_tag: str = "local"
    diagnostics: IngestDiagnostics | None = None

    @classmethod
    def from_records(cls, slice_year: int, publications: Iterable[Publication],
                     references: Mapping[str, ReferenceRecord], background_tag: str = "local",
                     diagnostics: IngestDiagnostics | None = None) -> "Corpus":
        """A corpus of publications, in order, and reference records by id.

        Raises ValueError when a record's id differs from its key or a
        publication cites an id without a record.
        """
        ref_ids = sorted(references)
        recs = [references[rid] for rid in ref_ids]
        for rid, rec in zip(ref_ids, recs):
            if rec.ref_id != rid:
                raise ValueError(f"reference map key {rid!r} does not match record id {rec.ref_id!r}")
        pubs = list(publications)
        for p in pubs:
            for rid in p.refs:
                if rid not in references:
                    raise ValueError(f"publication {p.pub_id!r} cites unknown reference {rid!r}")
        journal_ids = sorted({p.journal_id for p in pubs} | {r.journal_id for r in recs})
        subject_ids = sorted({r.subject for r in recs})
        return cls(
            slice_year=slice_year,
            pub_ids=[p.pub_id for p in pubs],
            pub_year=np.fromiter((p.year for p in pubs), np.int64),
            pub_journal=_codes((p.journal_id for p in pubs), journal_ids),
            citations_8yr=np.fromiter((p.citations_8yr for p in pubs), np.int64),
            pub_ptr=_ptr(np.fromiter((len(p.refs) for p in pubs), np.int64)),
            slot_ref=_codes((rid for p in pubs for rid in p.refs), ref_ids),
            ref_ids=ref_ids,
            ref_year=np.fromiter((r.year for r in recs), np.int64),
            ref_journal=_codes((r.journal_id for r in recs), journal_ids),
            ref_subject=_codes((r.subject for r in recs), subject_ids),
            journal_ids=journal_ids,
            subject_ids=subject_ids,
            background_tag=background_tag,
            diagnostics=diagnostics,
        )

    @classmethod
    def cited_subset(cls, pubs: "Corpus", rows: np.ndarray, slot_ref: np.ndarray,
                     refs: "Corpus", background_tag: str) -> "Corpus":
        """Publication rows ``rows`` of ``pubs``, in that order, citing the
        codes ``slot_ref`` of ``refs``'s reference table, row after row;
        their references are the ones cited."""
        cited, slot = np.unique(slot_ref, return_inverse=True)
        journal_ids, pub_codes, ref_codes = _merged_tables(pubs.journal_ids, refs.journal_ids)
        return cls(
            slice_year=pubs.slice_year,
            pub_ids=[pubs.pub_ids[i] for i in rows.tolist()],
            pub_year=pubs.pub_year[rows],
            pub_journal=pub_codes[pubs.pub_journal[rows]],
            citations_8yr=pubs.citations_8yr[rows],
            pub_ptr=_ptr(np.diff(pubs.pub_ptr)[rows]),
            slot_ref=slot.astype(np.int64).reshape(-1),
            ref_ids=[refs.ref_ids[r] for r in cited.tolist()],
            ref_year=refs.ref_year[cited],
            ref_journal=ref_codes[refs.ref_journal[cited]],
            ref_subject=refs.ref_subject[cited],
            journal_ids=journal_ids,
            subject_ids=refs.subject_ids,
            background_tag=background_tag,
        )

    @cached_property
    def publications(self) -> tuple[Publication, ...]:
        """Row view: one ``Publication`` per row, in corpus order."""
        refs = [self.ref_ids[r] for r in self.slot_ref.tolist()]
        journals = self.journal_ids
        ptr = self.pub_ptr.tolist()
        return tuple(
            Publication(pid, year, journals[j], tuple(refs[lo:hi]), cites)
            for pid, year, j, cites, lo, hi in zip(
                self.pub_ids, self.pub_year.tolist(), self.pub_journal.tolist(),
                self.citations_8yr.tolist(), ptr[:-1], ptr[1:])
        )

    @cached_property
    def references(self) -> Mapping[str, ReferenceRecord]:
        """Row view: each ``ReferenceRecord`` by id, in id order."""
        journals, subjects = self.journal_ids, self.subject_ids
        return MappingProxyType({
            rid: ReferenceRecord(rid, year, journals[j], subjects[s])
            for rid, year, j, s in zip(self.ref_ids, self.ref_year.tolist(),
                                       self.ref_journal.tolist(), self.ref_subject.tolist())
        })

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return ((self.slice_year, self.background_tag, self.publications, dict(self.references))
                == (other.slice_year, other.background_tag, other.publications,
                    dict(other.references)))

    def journals(self) -> set[str]:
        """Journal ids appearing on this corpus's references."""
        return {self.journal_ids[j] for j in np.flatnonzero(np.bincount(self.ref_journal)).tolist()}

    def n_citations(self) -> int:
        return len(self.slot_ref)


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


def float_texts(values: np.ndarray) -> np.ndarray:
    """The ``repr`` of each float64 value, as ``csv`` writes a float, in an
    object array: formatted once per distinct bit pattern, since the float
    columns of a wide table repeat a few values."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse]


def write_columns(path: str | Path, header: tuple[str, ...], columns: Iterable[Sequence],
                  delimiter: str = ",") -> None:
    """Write a header and one sequence per column: UTF-8, ``\\n`` line ends,
    minimal quoting, None as an empty field. A float64 array is written
    through ``float_texts``, any other array as its ``tolist()``."""
    lists = [(float_texts(c) if c.dtype == np.float64 else c).tolist()
             if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        w.writerow(header)
        w.writerows(zip(*lists))


def _split_block(raw: bytes, lineno: int, width: int, delimiter: str):
    """The line numbers and columns of a block of whole lines that starts
    at line ``lineno``, or None where a line does not hold ``width``
    fields, a field is longer than ``csv.field_size_limit()`` bytes, or
    the block is not UTF-8.

    Where every line holds ``width`` fields, the delimiters and the bytes
    below 11 are exactly ``width - 1`` delimiters and a newline per line,
    and one split of the text gives the columns.
    """
    if raw[-1] != 10:
        raw += b"\n"  # the final line has no newline
    b = np.frombuffer(raw, np.uint8)
    is_sep = b < 11
    if delimiter != "\t":
        is_sep |= b == ord(delimiter)
    at = np.flatnonzero(is_sep)
    sep = b[at]
    n = len(sep) // width
    template = np.full(width, ord(delimiter), np.uint8)
    template[-1] = 10
    if (len(sep) != n * width or not (sep.reshape(n, width) == template).all()
            or np.diff(at, prepend=-1).max() > csv.field_size_limit() + 1):
        return None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    flat = text.replace(delimiter, "\n").split("\n", n * width - 1)
    flat[-1] = flat[-1].rstrip("\n")
    return np.arange(lineno, lineno + n), [flat[c::width] for c in range(width)]


def _line_blocks(fh) -> Iterator[bytes]:
    """The rest of ``fh`` in blocks of whole lines of about ``_BLOCK_BYTES``."""
    carry = b""
    while chunk := fh.read(_BLOCK_BYTES):
        data = carry + chunk
        cut = data.rfind(b"\n") + 1
        if cut:
            yield data[:cut]
        carry = data[cut:]
    if carry:
        yield carry


def _read_csv(path: str | Path, columns: tuple[str, ...], delimiter: str, first_line: int,
              blocks: Iterable[bytes]) -> Iterator[tuple[np.ndarray, list[list[str]]]]:
    """``read_blocks`` from file line ``first_line`` on, given the file's
    bytes from there: one ``csv.reader`` over each block's lines in turn,
    split as ``newline=""`` splits them, yielded ``_CSV_BLOCK_ROWS`` rows at
    a time. Line 1 is the header."""
    undecodable = []

    def lines():
        at = first_line  # the file line the block starts on
        for block in blocks:
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                at += block.count(b"\n", 0, exc.start)
                undecodable.append(IngestError(f"{path}:{at}: not UTF-8 text ({exc.reason}, "
                                               f"byte 0x{block[exc.start]:02x})"))
                yield from io.StringIO(block[:block.rfind(b"\n", 0, exc.start) + 1].decode(),
                                       newline="")
                return
            yield from io.StringIO(text, newline="")
            at += block.count(b"\n")

    reader = csv.reader(lines(), delimiter=delimiter)
    numbers, rows, fault = [], [], None
    end = first_line - 1  # the file line the last row ended on
    try:
        for row in reader:
            line, end = end + 1, first_line - 1 + reader.line_num
            if line == 1:
                if tuple(row) != columns:
                    fault = IngestError(f"{path}:1: bad header {row!r}, expected {list(columns)}")
                    break
            elif row:
                if len(row) != len(columns):
                    fault = IngestError(
                        f"{path}:{line}: expected {len(columns)} columns, found {len(row)}")
                    break
                numbers.append(line)
                rows.append(row)
                if len(rows) == _CSV_BLOCK_ROWS:
                    yield np.asarray(numbers, np.int64), [list(c) for c in zip(*rows)]
                    numbers, rows = [], []
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        fault = IngestError(f"{path}:{end + 1}: {exc}")
    if rows:
        yield np.asarray(numbers, np.int64), [list(c) for c in zip(*rows)]
    if not (fault or undecodable or end):
        fault = IngestError(f"{path}:1: empty file, expected header {columns}")
    if fault or undecodable:
        raise fault or undecodable[0]


def read_blocks(path: str | Path, columns: tuple[str, ...],
                delimiter: str) -> Iterator[tuple[np.ndarray, list[list[str]]]]:
    """The rows of a table file, read once in blocks of about
    ``_BLOCK_BYTES``: each block's line numbers and its columns as lists of
    strings. Rows, line numbers and errors, each raised once the rows
    before it are yielded, are those of one ``csv.reader`` over the whole
    file: a row is numbered by the line it starts on, blank lines are
    skipped, and a wrong width, a field past ``csv.field_size_limit()`` or
    a byte that is not UTF-8 is an error.

    A block is split by ``_split_block``, its CRLF line ends read as LF.
    From the first block that it refuses, or that holds a quote or a lone
    carriage return, and from line 1 where the first line is not the
    header itself, ``_read_csv`` reads on from the file's own bytes. One
    UTF-8 byte order mark before the header is dropped.
    """
    header = delimiter.join(columns).encode()
    with open(path, "rb") as fh:
        head = fh.readline().removeprefix(b"\xef\xbb\xbf")
        blocks = _line_blocks(fh)
        if head not in (header, header + b"\n", header + b"\r\n"):
            yield from _read_csv(path, columns, delimiter, 1, chain([head], blocks))
            return
        lineno = 2
        for block in blocks:
            lf = block.replace(b"\r\n", b"\n") if b"\r" in block else block
            rows = (None if b'"' in block or b"\r" in lf
                    else _split_block(lf, lineno, len(columns), delimiter))
            if rows is None:
                yield from _read_csv(path, columns, delimiter, lineno, chain([block], blocks))
                return
            yield rows
            lineno += len(rows[0])


def float_or_nan(value: str) -> float:
    """``float(value)``, NaN for an empty value."""
    return float(value or "nan")


def _typed(values: list[str], what: str, kind) -> tuple[np.ndarray, tuple[int, str] | None]:
    """A column's values under ``kind`` (see ``read_columns``), or the values
    before the first that does not parse, or as ``int`` does not fit int64,
    and that one's (index, fault)."""
    if isinstance(kind, dict):
        return _intern(values, kind), None
    dtype = np.int64 if kind is int else np.float64
    try:
        return np.fromiter(map(kind, values), dtype, len(values)), None
    except (ValueError, OverflowError):
        pass
    parsed = []
    for i, value in enumerate(values):
        try:
            number = kind(value)
        except ValueError:
            shape = "non-integer" if kind is int else "non-numeric"
            return np.asarray(parsed, dtype), (i, f"{shape} {what}: {value!r}")
        if kind is int and not -(1 << 63) <= number < 1 << 63:
            return np.asarray(parsed, dtype), (i, f"{what} out of range: {value!r}")
        parsed.append(number)
    raise AssertionError("unreachable: every value parsed")


def _intern(values: list[str], table: dict[str, int]) -> np.ndarray:
    """Each value's code in ``table``, which new values join in turn."""
    for value in set(values).difference(table):
        table[value] = len(table)
    return np.fromiter(map(table.__getitem__, values), np.int64, len(values))


def read_columns(path: str | Path, columns: tuple[str, ...], kinds: Sequence, delimiter: str,
                 check=None) -> tuple[np.ndarray, dict[str, int], list]:
    """Each row's line number, the row of each key, and the typed columns
    of a table file read by ``read_blocks``.

    A column's kind is ``str`` for a unique key (the first column only),
    kept as strings; a dict that interns the values to codes, extended by
    new ones; or ``int``, ``float`` or ``float_or_nan``, parsed to int64 or
    float64. ``check(fields, typed)``, given a block's string columns and
    its typed ones cut before its first fault, returns a mask of faulty
    rows and the message of a row. A fault raises IngestError naming the
    first faulty row's line, and on it the first of a bad width, a repeated
    key (against the line it was first seen at), each column's and
    ``check``'s.
    """
    row_of: dict[str, int] = {}
    line_parts: list[np.ndarray] = []
    parts: list[list] = [[] for _ in columns]
    n0 = 0
    for lines, fields in read_blocks(path, columns, delimiter):
        k = len(lines)
        faults, typed = [], []
        for name, kind, values in zip(columns, kinds, fields):
            fault = None
            if kind is str:
                first = np.fromiter(map(row_of.setdefault, values, count(n0)), np.int64, k)
                repeated = np.flatnonzero(first != np.arange(n0, n0 + k))
                if len(repeated):
                    i = int(repeated[0])
                    seen = np.concatenate(line_parts + [lines])[first[i]]
                    fault = (i, f"duplicate {name} {values[i]!r} (first seen at line {seen})")
                column = values
            else:
                column, fault = _typed(values, name, kind)
            typed.append(column)
            if fault is not None:
                faults.append(fault)
        if check is not None:
            end = min((i for i, _ in faults), default=k)
            bad, message = check(fields, [c[:end] for c in typed])
            faults += [(i, message(i)) for i in np.flatnonzero(bad)[:1].tolist()]
        if faults:
            i, fault = min(faults, key=lambda f: f[0])
            raise IngestError(f"{path}:{lines[i]}: {fault}")
        for part, column in zip(parts, typed):
            part.append(column)
        line_parts.append(lines)
        n0 += k
    # Each column's blocks are let go as it is joined, so only one is held twice.
    for c, (name, kind, part) in enumerate(zip(columns, kinds, parts)):
        parts[c] = ([v for p in part for v in p] if kind is str
                    else np.concatenate(part) if part else _typed([], name, kind)[0])
    return np.concatenate(line_parts + [np.zeros(0, np.int64)]), row_of, parts


def _negative_citations(fields: list[list[str]], typed: list):
    return typed[3] < 0, lambda i: f"negative citations_8yr: {typed[3][i]}"


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


def ingest(pub_file: str | Path, ref_file: str | Path, cite_file: str | Path,
           config: IngestConfig = IngestConfig()) -> Corpus:
    """Read and validate a corpus from its three TSV files.

    Recoverable defects (incomplete records, citations that do not
    resolve or repeat an earlier row, publications outside the slice year
    or left with fewer than two references, and those publications'
    citations) drop the affected rows and are tallied in the returned
    corpus's diagnostics. Structural defects (malformed rows, duplicate
    identifiers, bytes that are not UTF-8) raise IngestError naming the
    file and line.

    Ids are interned to integer codes as the rows are read, a block at a
    time, and citations are kept as (publication row, reference code)
    arrays; a repeated citation row is found by one sort of their keys,
    which keeps each key's first row.
    """
    pub_path, ref_path, cite_path = Path(pub_file), Path(ref_file), Path(cite_file)
    diags = IngestDiagnostics()
    journals: dict[str, int] = {}  # raw journal id -> raw code
    subjects: dict[str, int] = {}

    _, ref_row_of, (ref_row_ids, ref_year, ref_jraw, ref_sraw) = read_columns(
        ref_path, REF_COLUMNS, (str, int, journals, subjects), "\t")
    ref_no_journal = ref_jraw == journals.get("", -1)
    ref_no_subject = ~ref_no_journal & (ref_sraw == subjects.get("", -1))
    diags.tally(DROP_REF_NO_JOURNAL, ref_no_journal.sum())
    diags.tally(DROP_REF_NO_SUBJECT, ref_no_subject.sum())
    ref_kept = np.flatnonzero(~(ref_no_journal | ref_no_subject))

    _, pub_row_of, (pub_row_ids, pub_year, pub_jraw, pub_cites) = read_columns(
        pub_path, PUB_COLUMNS, (str, int, journals, int), "\t", _negative_citations)
    pub_known = pub_jraw != journals.get("", -1)
    diags.tally(DROP_PUB_NO_JOURNAL, (~pub_known).sum())

    slice_year = config.slice_year
    if slice_year is None:
        # Not np.unique, whose first call in a process imports numpy.ma (20 ms).
        years = sorted(set(pub_year[pub_known].tolist()))
        if len(years) > 1:
            raise IngestError(
                f"{pub_path}: publications span years {years}; set slice_year to select one"
            )
        slice_year = years[0] if years else 0

    # Journal aliases collapse by the rows kept so far: references with a
    # journal and a subject, publications with a journal.
    raw_journals = list(journals)
    uses = (np.bincount(ref_jraw[ref_kept], minlength=len(raw_journals))
            + np.bincount(pub_jraw[pub_known], minlength=len(raw_journals)))
    journal_map, diags.journal_aliases_collapsed = _canonical_journal_map(
        Counter({raw_journals[j]: n for j, n in enumerate(uses.tolist()) if n}))
    journal_ids = sorted(set(journal_map.values()))
    journal_code = _codes(map(journal_map.get, raw_journals), journal_ids)
    raw_subjects = list(subjects)
    subject_ids = sorted(raw_subjects[s] for s in np.flatnonzero(
        np.bincount(ref_sraw[ref_kept], minlength=len(raw_subjects))).tolist())
    subject_code = _codes(raw_subjects, subject_ids)

    # Reference codes follow id order; the last entry of ref_code, which an
    # unknown id's -1 reads, marks a reference that is not kept.
    kept_ids = [ref_row_ids[i] for i in ref_kept.tolist()]
    ref_ids = sorted(kept_ids)
    ref_code = np.full(len(ref_row_ids) + 1, -1, np.int64)
    ref_code[ref_kept] = _codes(kept_ids, ref_ids)
    ref_row = np.empty(len(ref_ids), np.int64)
    ref_row[ref_code[ref_kept]] = ref_kept
    pub_live = np.append(pub_known, False)  # the -1 of an unknown id reads False

    cite_pub, cite_ref = [], []
    for _, (pubs, refs) in read_blocks(cite_path, CITE_COLUMNS, "\t"):
        p = np.fromiter(map(pub_row_of.get, pubs, repeat(-1)), np.int64, len(pubs))
        r = ref_code[np.fromiter(map(ref_row_of.get, refs, repeat(-1)), np.int64, len(refs))]
        live = pub_live[p]
        resolved = live & (r >= 0)
        diags.tally(DROP_CITE_UNKNOWN_PUB, len(p) - live.sum())
        diags.tally(DROP_CITE_UNKNOWN_REF, live.sum() - resolved.sum())
        cite_pub.append(p[resolved])
        cite_ref.append(r[resolved])
    p = np.concatenate(cite_pub) if cite_pub else np.zeros(0, np.int64)
    r = np.concatenate(cite_ref) if cite_ref else np.zeros(0, np.int64)
    del cite_pub, cite_ref

    # A stable sort of (publication, reference) keys puts each key's first
    # row first; every later row repeats it.
    key = p * len(ref_ids) + r
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(key), bool)
    first[1:] = key[1:] != key[:-1]
    del key
    diags.tally(DROP_CITE_DUPLICATE, len(first) - first.sum())
    keep = np.zeros(len(p), bool)
    keep[order[first]] = True
    del order, first
    p, r = p[keep], r[keep]

    n_refs = np.bincount(p, minlength=len(pub_row_ids))
    in_year = pub_year == slice_year
    out_of_year = pub_known & ~in_year
    too_few = pub_known & in_year & (n_refs < 2)
    diags.tally(DROP_PUB_YEAR, out_of_year.sum())
    diags.tally(DROP_TOO_FEW_REFS, too_few.sum())
    diags.tally(DROP_CITE_OF_DROPPED_PUB, n_refs[out_of_year | too_few].sum())
    rows = np.flatnonzero(pub_known & in_year & (n_refs >= 2))

    # Kept rows in row order; a stable sort keeps each one's citation order.
    new_row = np.full(len(pub_row_ids), -1, np.int64)
    new_row[rows] = np.arange(len(rows))
    slot_pub = new_row[p]
    kept = slot_pub >= 0
    slot_ref = r[kept][np.argsort(slot_pub[kept], kind="stable")]

    return Corpus(
        slice_year=slice_year,
        pub_ids=[pub_row_ids[i] for i in rows.tolist()],
        pub_year=pub_year[rows],
        pub_journal=journal_code[pub_jraw[rows]],
        citations_8yr=pub_cites[rows],
        pub_ptr=_ptr(n_refs[rows]),
        slot_ref=slot_ref,
        ref_ids=ref_ids,
        ref_year=ref_year[ref_row],
        ref_journal=journal_code[ref_jraw[ref_row]],
        ref_subject=subject_code[ref_sraw[ref_row]],
        journal_ids=journal_ids,
        subject_ids=subject_ids,
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
    journals = np.asarray(corpus.journal_ids, dtype=object)
    subjects = np.asarray(corpus.subject_ids, dtype=object)
    write_columns(paths["publications"], PUB_COLUMNS,
                  (corpus.pub_ids, corpus.pub_year, journals[corpus.pub_journal],
                   corpus.citations_8yr), "\t")
    write_columns(paths["references"], REF_COLUMNS,
                  (corpus.ref_ids, corpus.ref_year, journals[corpus.ref_journal],
                   subjects[corpus.ref_subject]), "\t")
    slot_pub = np.repeat(np.arange(len(corpus.pub_ids)), np.diff(corpus.pub_ptr))
    write_columns(paths["citations"], CITE_COLUMNS,
                  (np.asarray(corpus.pub_ids, dtype=object)[slot_pub],
                   np.asarray(corpus.ref_ids, dtype=object)[corpus.slot_ref]), "\t")
    return paths


def summarize(corpus: Corpus) -> CorpusSummary:
    """Publication/reference counts and the total-to-unique reference ratio."""
    total = corpus.n_citations()
    cited = int(np.count_nonzero(np.bincount(corpus.slot_ref)))
    ratio = total / cited if cited else 0.0
    return CorpusSummary(len(corpus.pub_ids), cited, total, ratio)


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
    for rid, rec in corpus.references.items():
        if not rec.journal_id:
            raise ValueError(f"reference {rid!r} has an empty journal id")
        if not rec.subject:
            raise ValueError(f"reference {rid!r} has an empty subject label")
