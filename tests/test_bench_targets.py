"""Every name the benchmark's tracer wraps must exist in the package.

``perfbench/spans.py`` skips a wrap target that no longer resolves and drops
the metrics built from it, so a renamed or deleted function would quietly
shrink the traced report. The file is parsed, not imported, so nothing under
``perfbench/`` runs or gets compiled.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets(source: str) -> list[tuple[str, str]]:
    """The (module, attribute) string pairs of the ``TARGETS`` list."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(elt.elts[0].value, elt.elts[1].value) for elt in node.value.elts]
    raise AssertionError("no TARGETS list found")


TARGETS = _targets(SPANS.read_text())


def test_targets_found():
    assert TARGETS


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_target_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)
