import ast
import importlib
import os
import re
from types import SimpleNamespace

import dconvex

PACKAGE = os.path.dirname(dconvex.__file__)
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_every_export_resolves():
    for name in dconvex.__all__:
        assert getattr(dconvex, name, None) is not None, name


def test_star_import():
    namespace = {}
    exec("from dconvex import *", namespace)
    assert set(dconvex.__all__) <= set(namespace)


def _unused_imports(source: str):
    """Names a module imports at module level and never reads; an import
    whose lines carry ``# noqa: F401`` is kept on purpose."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    unused = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                found = _unused_imports(fh.read())
            if found:
                unused[name] = found
    assert unused == {}


def test_unused_import_check_sees_reads_and_the_noqa_marker():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import (\n    chain,  # noqa: F401\n    repeat,\n)\n"
        "from math import inf, comb as choose\n"
        "def f(x: inf) -> int:\n    return os.path.sep\n"
    )
    assert _unused_imports(source) == [(7, "choose")]


def _unread_private_names(sources):
    """(module, line, name) of each private name, with one leading
    underscore, that a module of ``sources`` (module name -> source) binds
    at module level by a def, a class or an assignment, and that no module
    of them reads: by name, as an attribute or in a ``from`` import."""
    bound, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [ast.Name(node.name)]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                for name in ast.walk(target) if target is not None else ():
                    if isinstance(name, ast.Name) and name.id.startswith("_") and not name.id.startswith("__"):
                        bound[(module, name.id)] = node.lineno
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted((module, line, name) for (module, name), line in bound.items() if name not in read)


def test_every_private_name_is_read_in_the_package():
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    assert _unread_private_names(sources) == []


def test_unread_private_name_check_sees_every_read():
    sources = {
        "a.py": "_kept = 1\n_TABLE, _orphan = {}, 2\ndef _called():\n    return _kept\nclass _Gone:\n    pass\n",
        "b.py": "from a import _TABLE\nimport a\n_called_too: int = a._called()\n__all__ = []\n",
    }
    assert _unread_private_names(sources) == [("a.py", 2, "_orphan"), ("a.py", 5, "_Gone"), ("b.py", 3, "_called_too")]


def _private_doc_names(text: str):
    """The backticked tokens of a document that are dotted names with a
    segment starting with an underscore, such as ``_Scan`` or
    ``classes._RECOGNIZERS``."""
    tokens = set(re.findall(r"`([^`\n]+)`", text))
    return sorted(
        t for t in tokens
        if re.fullmatch(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", t) and any(s.startswith("_") for s in t.split("."))
    )


def _unresolved_names(names, modules):
    """The names that resolve in none of ``modules`` (module name ->
    module).  A first segment that names a module is read from that module;
    otherwise it is a module-level name of some module.  The remaining
    segments are attributes."""

    def resolves(root, attrs) -> bool:
        for attr in attrs:
            if not hasattr(root, attr):
                return False
            root = getattr(root, attr)
        return True

    missing = []
    for name in names:
        first, *rest = name.split(".")
        roots = [modules[first]] if first in modules else [getattr(m, first) for m in modules.values() if hasattr(m, first)]
        if not any(resolves(root, rest) for root in roots):
            missing.append(name)
    return missing


def test_every_private_name_the_readme_cites_resolves():
    modules = {
        name[:-3]: importlib.import_module(f"dconvex.{name[:-3]}")
        for name in sorted(os.listdir(PACKAGE))
        if name.endswith(".py") and name != "__init__.py"
    }
    with open(README, encoding="utf-8") as fh:
        names = _private_doc_names(fh.read())
    assert "classes._RECOGNIZERS" in names and "_Scan" in names
    assert _unresolved_names(names, modules) == []


def test_readme_name_check_reads_modules_then_attributes():
    text = "`_Scan`, `_View.coded` and `_View.gone`; `a._T`, `b._T`, `a.public` and `_x(1)`\n```\ncode\n```"
    assert _private_doc_names(text) == ["_Scan", "_View.coded", "_View.gone", "a._T", "b._T"]
    view = SimpleNamespace(coded=0)
    modules = {"a": SimpleNamespace(_View=view, _T=1), "b": SimpleNamespace(_Scan=2)}
    assert _unresolved_names(_private_doc_names(text), modules) == ["_View.gone", "b._T"]


def _file_writes(source: str):
    """(line, call) of each call in source that may open a file for
    writing: ``os.open``, whatever its flags, and any other ``open`` given a
    mode that is not a literal of r, b and t alone (so w, a, x and + are
    caught, and so is a mode held in a variable).  The mode is the second argument of ``open``, ``io.open`` and
    ``builtins.open``, and the first of any other ``.open`` (a path's)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        if isinstance(func, ast.Name) and func.id == "open":
            owner = None
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            owner = getattr(func.value, "id", None)
        else:
            continue
        if owner == "os":
            found.append((node.lineno, "os.open"))
            continue
        at = 1 if owner in (None, "io", "builtins") else 0
        modes = node.args[at:at + 1] + [k.value for k in node.keywords if k.arg == "mode"]
        if modes and not (isinstance(modes[0], ast.Constant) and set(str(modes[0].value)) <= set("rbt")):
            found.append((node.lineno, "open"))
    return sorted(found)


def test_only_documents_opens_files_for_writing():
    writes = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                found = _file_writes(fh.read())
            if found:
                writes[name] = found
    assert list(writes) == ["documents.py"]
    assert [call for _, call in writes["documents.py"]] == ["os.open"]


def test_file_write_check_sees_every_mode():
    source = (
        "import io, os\n"
        "open(p)\nopen(p, 'r', encoding='utf-8')\nopen(p, mode='rb')\n"
        "open(p, 'w')\nio.open(p, mode='ab')\nopen(p, 'x')\nopen(p, 'r+')\n"
        "open(p, m)\nos.open(p, os.O_RDONLY)\npath.open('wb')\n"
    )
    assert _file_writes(source) == [
        (5, "open"), (6, "open"), (7, "open"), (8, "open"), (9, "open"), (10, "os.open"), (11, "open"),
    ]


def _bare_constructions(source: str):
    """The line of each ``object.__new__`` in source, called or taken to be
    called later, which builds an object without running its constructor's
    checks."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "__new__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )


def test_objects_are_built_only_through_their_constructors():
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                lines = _bare_constructions(fh.read())
            if lines:
                found[name] = lines
    assert found == {}


def test_bare_construction_check_sees_every_call():
    source = (
        "s = object.__new__(cls)\n"
        "object.__setattr__(s, 'dim', 1)\n"
        "t = cls.__new__(cls)\n"
        "u = f(object.__new__(LatticeSet))\n"
        "new = object.__new__\n"
    )
    assert _bare_constructions(source) == [1, 4, 5]
