"""Count the code lines of each ``src/cocite`` module.

Usage, from anywhere::

    python tools/loc.py

A line counts when it is not blank and its first non-space character is
not ``#``; docstrings count. Prints one ``count path`` line per module,
sorted by path, then ``count total``. Uses the standard library only.
"""

from __future__ import annotations

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cocite"


def code_lines(path: Path) -> int:
    stripped = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in stripped if line and not line.startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:5d} {path.relative_to(PACKAGE.parent.parent)}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main()
