import signal
from contextlib import contextmanager

import pytest

from cocite.corpus import Corpus, Publication, ReferenceRecord


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
        return Corpus(slice_year, publications, references, background_tag)

    return _make


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
