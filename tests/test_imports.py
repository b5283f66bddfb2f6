"""Every module-level import of the package is used in its module, listed
in its ``__all__``, or marked ``# noqa: F401`` (the names kept only for
the benchmark's tracer, which wraps them by module attribute).  The
command line imports only public names of the package, and every name of
an ``__all__`` exists."""

import ast
import importlib
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "xxz_deficit").glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            marked = any("# noqa: F401" in lines[i - 1] for i in {node.lineno, alias.lineno})
            if name not in used and name not in exported and not marked:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used_exported_or_marked(path):
    assert _unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os  # noqa: F401\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,  # noqa: F401\n"
        ")\n"
        "__all__ = ['dumps2']\n"
        "from json import dumps as dumps2\n"
        "x = math.pi\n"
    )
    assert _unused_imports(source) == ["module.py:5: dumps"]


def _private_imports(path: Path) -> list[str]:
    """The underscore-prefixed names ``path`` imports from the package, by
    a relative import or from ``xxz_deficit``, at any depth."""
    return [
        f"{path.name}:{node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == "xxz_deficit")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_the_cli_imports_no_private_name_of_the_package():
    (cli,) = [p for p in SOURCES if p.name == "cli.py"]
    assert _private_imports(cli) == []


def test_a_private_import_is_found(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "from .boundaries import _march, trace_boundary\n"
        "from xxz_deficit.model import _warn\n"
        "from os import _exit\n"
        "def f():\n"
        "    from .measurement import entropy_curve, _spectrum\n"
    )
    assert _private_imports(source) == [
        "module.py:1: _march", "module.py:2: _warn", "module.py:5: _spectrum",
    ]


MODULES = ["xxz_deficit"] + [f"xxz_deficit.{p.stem}" for p in SOURCES if p.stem != "__init__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a stale entry breaks only ``from ... import *``
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
