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


ARCHIVE_MODULES = {"pickle", "zipfile"}


def archive_io(source: str) -> list[str]:
    """What a module uses of the means to unpickle or to read and write
    archives: imports of ``pickle`` and ``zipfile``, and numpy's ``load`` and
    ``savez*``, imported or read as attributes of ``np`` or ``numpy``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] in ARCHIVE_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in ARCHIVE_MODULES:
                found.append(node.module)
            elif node.module == "numpy":
                found += [f"numpy.{a.name}" for a in node.names if _numpy_archive(a.name)]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("np", "numpy") and _numpy_archive(node.attr):
                found.append(f"{node.value.id}.{node.attr}")
    return found


def _numpy_archive(name: str) -> bool:
    return name == "load" or name.startswith("savez")


def test_archive_io_finds_unpickling_and_archives():
    source = (
        "import json, pickle\n"
        "import numpy as np\n"
        "from zipfile import ZipFile\n"
        "from numpy import savez_compressed, zeros\n"
        "np.savez(f, a=np.zeros(3))\n"
        "data = np.load(f)\n"
        "json.load(f)\n"
        "np.loadtxt(f)\n"
    )
    assert archive_io(source) == [
        "pickle", "zipfile", "numpy.savez_compressed", "np.savez", "np.load"
    ]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_module_never_unpickles_or_reads_archives(module):
    assert archive_io((PACKAGE / module).read_text(encoding="utf-8")) == []


def imports_of(package: str, source: str) -> list[str]:
    """The modules of ``package`` that a module's source imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == package]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package:
            found.append(node.module)
    return found


def test_json_imports_finds_every_spelling():
    source = (
        "import os, json\n"
        "import json.decoder as decoder\n"
        "from json import loads\n"
        "from . import corpus\n"
        "from .jsonl import rows\n"
    )
    assert imports_of("json", source) == ["json", "json.decoder", "json"]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_only_corpus_imports_json(module):
    # one decoder, so a JSON input nested too deep fails the same way wherever it arrives
    expected = ["json"] if module == "corpus.py" else []
    assert imports_of("json", (PACKAGE / module).read_text(encoding="utf-8")) == expected


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_only_corpus_maps_files(module):
    # one reader maps an index file, so one place owns the SIGBUS trade-off
    expected = ["mmap"] if module == "corpus.py" else []
    assert imports_of("mmap", (PACKAGE / module).read_text(encoding="utf-8")) == expected


ROOT = PACKAGE.parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unread_public_names(module_source: str, read: set[str]) -> list[str]:
    """The public names a module defines and no name in ``read`` reads: its
    top-level functions and classes and the methods of its top-level
    classes, not ``_private`` and not dunder."""
    defined = []
    for node in ast.parse(module_source).body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            defined.append(node.name)
        if isinstance(node, ast.ClassDef):
            defined += [item.name for item in node.body if isinstance(item, FUNCTIONS)]
    return [name for name in defined if not name.startswith("_") and name not in read]


def read_names(source: str) -> set[str]:
    """The names a source reads: as a name, an attribute, an imported name
    or a call's keyword."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
        elif isinstance(node, ast.keyword) and node.arg:
            read.add(node.arg)
    return read


def test_unread_public_names_finds_only_dead_ones():
    module = (
        "def used(): pass\n"
        "def imported(): pass\n"
        "def passed(): pass\n"
        "def dead(): pass\n"
        "def _private(): pass\n"
        "class Kept:\n"
        "    def __len__(self): return 0\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    def unread(self): return used()\n"
        "class Dead:\n"
        "    def unread(self): pass\n"
    )
    reader = (
        "from mod import imported\n"
        "dead = Kept().size\n"
        "f(passed=1)\n"
    )
    read = read_names(module) | read_names(reader)
    assert unread_public_names(module, read) == ["dead", "unread", "Dead", "unread"]


@pytest.fixture(scope="module")
def read_anywhere() -> set[str]:
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
    paths += (ROOT / "perfbench").glob("*.py")
    return set().union(*(read_names(path.read_text(encoding="utf-8")) for path in paths))


@pytest.mark.parametrize("module", MODULES)
def test_module_defines_no_unread_public_name(module, read_anywhere):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unread_public_names(source, read_anywhere) == []


# The run's stage logic lives in pipeline.py; the CLI keeps flags, files and
# exit codes, and reaches these modules only through the pipeline.
STAGE_LOGIC_MODULES = {"selection", "retrieval", "prompting", "structures", "evaluation"}


def package_imports(source: str, exported: dict[str, str]) -> list[str]:
    """The package modules a source imports from: ``from .m import x``,
    ``from demoselect.m import x``, ``import demoselect.m`` and ``from .
    import m`` each give ``m``, and a name imported from the package itself
    gives the module that ``exported`` (name → module) says it comes from."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name.split(".")[1] for a in node.names if a.name.startswith("demoselect.")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "demoselect":
                    continue
                module = module.partition(".")[2]
            if module:
                found.append(module.split(".")[0])
            else:
                found += [exported.get(a.name, a.name) for a in node.names]
    return found


def package_exports() -> dict[str, str]:
    """Each name ``__init__.py`` re-exports, mapped to its module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }


def test_package_imports_finds_every_form():
    source = (
        "import json\n"
        "import demoselect.selection\n"
        "from .retrieval import Scores\n"
        "from demoselect.prompting import format_prompt\n"
        "from . import structures\n"
        "from demoselect import cover_ls, IndexBundle\n"
        "def f():\n"
        "    from .corpus import load_examples\n"
    )
    exported = {"cover_ls": "selection", "IndexBundle": "corpus"}
    assert package_imports(source, exported) == [
        "selection", "retrieval", "prompting", "structures", "selection", "corpus", "corpus"
    ]
    assert package_exports()["cover_ls"] == "selection"


def test_cli_imports_no_stage_logic_module():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    imported = set(package_imports(source, package_exports()))
    assert "pipeline" in imported
    assert imported & STAGE_LOGIC_MODULES == set()


def attributes_read(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}


def test_only_the_row_layer_reads_lines():
    # one JSONL row layer: corpus.py's read_rows and load_examples
    sources = {m: (PACKAGE / m).read_text(encoding="utf-8") for m in MODULES}
    assert [m for m, source in sources.items() if "splitlines" in attributes_read(source)] == [
        "corpus.py"
    ]


def row_tables(source: str) -> dict[str, list]:
    """The top-level ``<NAME>_ROW = {...}`` tables of a module, with their
    keys."""
    tables = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.endswith("_ROW"):
                    tables[target.id] = [ast.literal_eval(key) for key in node.value.keys]
    return tables


@pytest.mark.parametrize("module", ["corpus.py", "pipeline.py"])
def test_every_row_table_has_an_id(module):
    # read_rows reads each row's id to refuse a repeated one
    tables = row_tables((PACKAGE / module).read_text(encoding="utf-8"))
    assert tables
    assert [name for name, keys in tables.items() if "id" not in keys] == []
