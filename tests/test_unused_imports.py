"""Every name a src/blockscope module imports is used in that module or listed
in its __all__, so a deletion cannot leave a stale import behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blockscope"


def unused_imports(source: str) -> list[str]:
    """The names the source imports but never reads and does not export."""
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            annotation = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):  # "Netlist"
                used.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                            if isinstance(n, ast.Name))
        elif (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                   for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_stale_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\nfrom typing import Mapping, NamedTuple\n"
        "from .area import AreaWeights, weighted_area\nfrom .model import Netlist\n"
        "__all__ = ['weighted_area']\n"
        "def f(table: Mapping) -> 'Netlist':\n    import sys\n    return sys.argv\n"
    )
    assert unused_imports(source) == ["os", "regex", "NamedTuple", "AreaWeights"]
