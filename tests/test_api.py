"""Every name the package defines is used by the package itself.

A name listed in a module's ``__all__``, and every other module-level
def, class or assignment in ``src/`` except dunders, must be read
somewhere in ``src/``: as a name, an attribute or an import.  Its own
definition (a def, a class or an assignment) and its ``__all__`` entry
(a string) do not count.  The same holds for every public method or
property of a class defined in ``src/``.  Functions that only the tests
call belong in ``tests/oracles.py`` instead.
"""
import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mcastsim"


def _read_names() -> set:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _defined_names(path: pathlib.Path) -> list:
    """Module-level defs, classes and assignment targets, dunders excepted."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _public_members(path: pathlib.Path) -> list:
    """``Class.member`` for every public def in a module-level class body:
    methods, class methods and properties."""
    return [
        f"{node.name}.{member.name}"
        for node in ast.parse(path.read_text()).body if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
    ]


_READ = _read_names()


_PUBLIC = [
    (path.stem, name)
    for path in sorted(SRC.glob("*.py"))
    for name in dict.fromkeys([
        *importlib.import_module(
            "mcastsim" if path.stem == "__init__" else f"mcastsim.{path.stem}"
        ).__all__,
        *_defined_names(path),
    ])
]


@pytest.mark.parametrize("module, name", _PUBLIC, ids=[f"{m}.{n}" for m, n in _PUBLIC])
def test_public_name_is_used_in_src(module, name):
    assert name in _READ, f"{module}.{name} is defined but unused in src/"


_MEMBERS = [
    (path.stem, member) for path in sorted(SRC.glob("*.py")) for member in _public_members(path)
]


@pytest.mark.parametrize("module, member", _MEMBERS, ids=[f"{m}.{c}" for m, c in _MEMBERS])
def test_public_member_is_used_in_src(module, member):
    assert member.split(".")[1] in _READ, f"{module}.{member} is defined but unused in src/"
