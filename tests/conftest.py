import signal
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import pytest

from cocite.classify import CATEGORIES, PubTable
from cocite.corpus import Corpus, Publication, ReferenceRecord
from cocite.rng import group_stream


@pytest.fixture
def make_corpus():
    """Factory for hand-built corpora.

    pubs: iterable of (pub_id, journal_id, refs, citations_8yr)
    refs: mapping ref_id -> (year, journal_id, subject)
    """

    def _make(pubs, refs, slice_year=1995, background_tag="local"):
        references = {
            rid: ReferenceRecord(rid, year, journal, subject)
            for rid, (year, journal, subject) in refs.items()
        }
        publications = [
            Publication(pid, slice_year, journal, tuple(rr), cites)
            for pid, journal, rr, cites in pubs
        ]
        return Corpus.from_records(slice_year, publications, references, background_tag)

    return _make


@pytest.fixture
def make_pub_table():
    """Factory for hand-built publication tables.

    rows: iterable of (pub_id, z_median, z_p10, z_p1, n_defined_pairs) or
    of those five and a category name; a row without one is unlabeled.
    """

    def _make(rows):
        rows = [(*row, None)[:6] for row in rows]
        pub_ids, med, p10, p1, n, labels = zip(*rows) if rows else [()] * 6
        return PubTable(
            list(pub_ids), *(np.array(c, np.float64) for c in (med, p10, p1)),
            np.array(n, np.int64),
            np.array([-1 if c is None else CATEGORIES.index(c) for c in labels], np.int64),
        )

    return _make


@pytest.fixture
def repcs_oracle():
    """Each analyzed publication's references after one repcs permutation.

    Built from the corpora alone: every pool slot is grouped by its
    reference's year (groups in year order, slots in pool order), each
    group of two or more slots takes the permutation
    ``group_stream(seed, sim, group).permutation(n)``, and the analyzed
    publications' references are read back from the full pool assignment.
    """

    def _refs(corpus, pool, seed, sim):
        pool = corpus if pool is None else pool
        slots = [r for p in pool.publications for r in p.refs]
        by_year = defaultdict(list)
        for i, r in enumerate(slots):
            by_year[pool.references[r].year].append(i)
        assignment = list(slots)
        for gi, year in enumerate(sorted(by_year)):
            group = by_year[year]
            if len(group) > 1:
                perm = group_stream(seed, sim, gi).permutation(len(group))
                for i, j in zip(group, perm.tolist()):
                    assignment[i] = slots[group[j]]
        by_id, offset = {}, 0
        for p in pool.publications:
            by_id[p.pub_id] = assignment[offset:offset + len(p.refs)]
            offset += len(p.refs)
        return [by_id[p.pub_id] for p in corpus.publications]

    return _refs


@pytest.fixture
def write_tsvs(tmp_path):
    """Write the three corpus TSV files and return their paths."""

    def _write(pubs, refs, cites, where=None):
        base = tmp_path if where is None else where
        base.mkdir(parents=True, exist_ok=True)

        def dump(name, header, rows):
            path = base / name
            lines = ["\t".join(header)]
            lines += ["\t".join(str(c) for c in row) for row in rows]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return path

        return (
            dump("publications.tsv", ("pub_id", "year", "journal_id", "citations_8yr"), pubs),
            dump("references.tsv", ("ref_id", "year", "journal_id", "subject"), refs),
            dump("citations.tsv", ("pub_id", "ref_id"), cites),
        )

    return _write


@pytest.fixture
def time_limit():
    """Context manager that raises TimeoutError in a block still running after N seconds."""

    @contextmanager
    def _limit(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return _limit


def pytest_configure(config):
    config._acceptance_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker and report.when == "call":
        key = (str(marker.args[0]), marker.args[1])
        if report.skipped:
            status = "SKIP"
        else:
            status = "PASS" if report.passed else "FAIL"
        item.config._acceptance_results[key] = status


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_acceptance_results", {})
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for (num, title), status in sorted(results.items()):
        terminalreporter.write_line(f"criterion {num:>3} [{status}] {title}")
