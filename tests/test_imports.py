"""Every module of the package uses each name it imports, and reads each
private name it defines.

A module's imports are read from its syntax tree: a name bound by an
``import`` (the first part of a dotted module) or a ``from ... import`` is
used when the module reads it anywhere as a bare name, or lists it in its
``__all__``.  ``from __future__`` imports bind no name, and the package's
``__init__.py``, which imports to re-export, is not checked.  A private
name, one with a leading underscore that a module-level statement binds,
is read when the module reads it as a bare name, in code or in a string
annotation; a module's private names serve the module itself, so one it
never reads is dead.
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


def unread_private_names(source: str) -> list[str]:
    """The private names ``source`` binds at module level and never reads,
    in binding order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                bound += [name.id for name in ast.walk(target) if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # a string annotation, an argument's, a return's or a variable's, is a
    # constant in the tree; the names in its text are read too
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for text in ast.walk(annotation) if annotation is not None else ():
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    read.update(name.id for name in ast.walk(ast.parse(text.value, mode="eval")) if isinstance(name, ast.Name))
    private = [name for name in bound if name.startswith("_") and not name.startswith("__")]
    return [name for name in dict.fromkeys(private) if name not in read]


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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_reads_every_private_name_it_defines(path):
    assert unread_private_names(path.read_text()) == []


def test_the_check_sees_an_unread_private_name():
    source = (
        "from operator import attrgetter\n"
        "_Mask = tuple[str, ...]\n"
        "_Key = tuple[int, ...]\n"
        "_get, _set = attrgetter('a'), None\n"
        "_count = 0\n"
        "__version__ = '1'\n"
        "def _unused(): ...\n"
        "class _Table:\n"
        "    def probe(self, *keys: 'list[_Key]') -> int:\n"
        "        global _count\n"
        "        _count += 1\n"
        "        return _get(keys)\n"
        "TABLE = _Table()\n"
    )
    assert unread_private_names(source) == ["_Mask", "_set", "_count", "_unused"]
