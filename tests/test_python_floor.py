"""Every source file parses at the oldest Python that ``pyproject.toml`` allows.

The tests run on one newer Python, so syntax that needs a later version
(``except*``, ``type X = ...``) would pass them unnoticed. This parses each
``.py`` file under ``src/catstego``, ``scripts`` and ``tests`` with
``ast.parse(feature_version=...)`` set to the declared floor. It checks
grammar only: a standard-library or numpy API newer than the floor still
passes. The floor is read with a regex, since the floor itself has no
``tomllib``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = tuple(int(part) for part in re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M).groups())
FILES = sorted(path for top in ("src/catstego", "scripts", "tests") for path in (ROOT / top).rglob("*.py"))


def test_floor_found():
    assert FLOOR[0] == 3
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[str(path.relative_to(ROOT)) for path in FILES])
def test_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)


@pytest.mark.parametrize("source", ["try:\n    pass\nexcept* ValueError:\n    pass\n", "type X = int\n"],
                         ids=["except-star", "type-alias"])
def test_newer_syntax_is_refused_at_the_floor(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=FLOOR)
