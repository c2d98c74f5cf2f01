"""Every name a module imports is used in that module.

Covers the library (src/randiter) and the tests. A name counts as used
when it appears as an identifier anywhere in the module, annotations
included; `from __future__` imports are exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "randiter").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source):
    """The names `source` imports and never uses, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.zeros(e)\n"
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
