"""The package source stays within its line budget.

ROADMAP item 11 caps ``wc -l src/catstego/*.py`` at 1167 lines. The count
here is the same: the newlines in every module of the package. A re-anchor
that moves the cap edits ``CAP``.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "catstego"
CAP = 1167  # ROADMAP item 11


def test_source_stays_within_the_line_cap():
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(SRC.glob("*.py"))}
    assert "cli.py" in counts
    assert sum(counts.values()) <= CAP, counts
