"""Every module of the package uses each name it imports.

A module's imports are read from its syntax tree: a name bound by an
``import`` (the first part of a dotted module) or a ``from ... import`` is
used when the module reads it anywhere as a bare name, or lists it in its
``__all__``.  ``from __future__`` imports bind no name, and the package's
``__init__.py``, which imports to re-export, is not checked.
"""

import ast
from pathlib import Path

import pytest

import sdnsec

MODULES = sorted(path for path in Path(sdnsec.__file__).parent.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else ()
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import heapq as queue\n"
        "from .scenario import FloodSpec, FlowSpec, HostSpec\n"
        "__all__ = ['HostSpec']\n"
        "def offer(item) -> bool:\n"
        "    return isinstance(item, FloodSpec)\n"
    )
    assert unused_imports(source) == ["os", "queue", "FlowSpec"]
