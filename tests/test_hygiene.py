"""Source hygiene checks that need only the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shiftlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names an import binds that the module never reads."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_modules_are_found():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    src = "import numpy as np\nfrom .a import b, c\n\ndef f():\n    return c(np)\n"
    assert unused_imports(src) == ["b"]
