"""The oracles are references only while they share no code with catstego.

Each oracle file is parsed, not imported, and every import it makes is
checked; an import of a sibling module is followed into that module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ORACLES = [ROOT / "tests" / "oracles.py", ROOT / "perfbench" / "oracle.py"]
_IMPORTERS = {"__import__", "import_module"}


def _imports(tree: ast.AST):
    """The dotted name of every static import, relative ones without their
    dots, and of every ``__import__``/``import_module`` call with a literal name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                yield from (alias.name for alias in node.names)
            else:
                yield node.module
        elif isinstance(node, ast.Call) and node.args:
            func, arg = node.func, node.args[0]
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _IMPORTERS and isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                yield arg.value


def _catstego_imports(path: Path, seen: set[Path]) -> list[str]:
    seen.add(path)
    found = []
    for name in _imports(ast.parse(path.read_text(), filename=str(path))):
        top = name.split(".")[0]
        sibling = path.parent / f"{top}.py"
        if top == "catstego":
            found.append(f"{path.name}: {name}")
        elif sibling.exists() and sibling not in seen:
            found += _catstego_imports(sibling, seen)
    return found


@pytest.mark.parametrize("path", ORACLES, ids=lambda p: p.parent.name + "/" + p.name)
def test_oracle_imports_no_catstego(path):
    assert _catstego_imports(path, set()) == []


@pytest.mark.parametrize("source", [
    "import catstego",
    "import catstego.arnold as a",
    "from catstego import scatter",
    "from catstego.schedule import composite_matrix",
    "def f():\n    from catstego import arnold\n",
    "import importlib\nimportlib.import_module('catstego.arnold')",
    "__import__('catstego')",
    "from helper import x",
    "from .helper import x",
])
def test_guard_sees_every_form(tmp_path, source):
    (tmp_path / "helper.py").write_text("import catstego\n")
    oracle = tmp_path / "oracle.py"
    oracle.write_text(source + "\n")
    assert _catstego_imports(oracle, set())
