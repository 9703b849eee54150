"""Static checks over the package's modules, with the standard library only."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "demoselect"
# __init__.py imports names to re-export them
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads. A ``__future__`` import
    is a compiler directive, not a name."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_finds_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
        "print(os.sep)\n"
    )
    assert unused_imports(source) == ["osp", "field"]


def unread_private_names(source: str) -> list[str]:
    """The private names (``_x``, not dunder) a module defines at its top
    level, as a function, a class or an assigned constant, and never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    private = [name for name in defined if name.startswith("_") and not name.endswith("__")]
    return [name for name in private if name not in read]


def test_unread_private_names_finds_only_dead_ones():
    source = (
        "import numpy as np\n"
        "_USED = 1\n"
        "_DEAD, _ALSO = 2, 3\n"
        "_typed: int = 4\n"
        "__version__ = '1'\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _dead_helper():\n"
        "    _local = 5\n"
        "class _Dead:\n"
        "    _attr = _helper()\n"
        "def public(_arg):\n"
        "    return _ALSO\n"
    )
    assert unread_private_names(source) == ["_DEAD", "_typed", "_dead_helper", "_Dead"]


def test_the_package_lists_its_modules():
    assert {"cli.py", "corpus.py", "retrieval.py", "selection.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_no_unused_name(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_private_name(module):
    assert unread_private_names((PACKAGE / module).read_text(encoding="utf-8")) == []
