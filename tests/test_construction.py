"""Every result type is built through its one constructor: no module of the
package makes an instance behind its checks."""
from __future__ import annotations

import ast
from pathlib import Path

import parlimits

SOURCES = sorted(Path(parlimits.__file__).parent.glob("*.py"))
# Methods that change a dict in place.
_DICT_WRITES = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _back_doors(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each object.__new__ call and each write to an
    instance __dict__ in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "__new__" \
                and isinstance(node.value, ast.Name) and node.value.id == "object":
            found.append((node.lineno, "object.__new__"))
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__" \
                and not isinstance(node.ctx, ast.Load):
            found.append((node.lineno, "__dict__ assigned"))
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load) \
                and isinstance(node.value, ast.Attribute) and node.value.attr == "__dict__":
            found.append((node.lineno, "__dict__ item written"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _DICT_WRITES \
                and isinstance(node.func.value, ast.Attribute) \
                and node.func.value.attr == "__dict__":
            found.append((node.lineno, f"__dict__.{node.func.attr}"))
    return sorted(found)


def test_the_guard_sees_each_kind_of_back_door():
    tree = ast.parse("x = object.__new__(C)\nx.__dict__['a'] = 1\nx.__dict__.update(b=2)\n"
                     "x.__dict__ = {}\ny = x.__dict__['a']\nz = vars(x)\n")
    assert _back_doors(tree) == [(1, "object.__new__"), (2, "__dict__ item written"),
                                 (3, "__dict__.update"), (4, "__dict__ assigned")]


def test_no_module_builds_an_instance_behind_its_constructor():
    assert SOURCES
    found = [f"{path.name}:{line}: {what}"
             for path in SOURCES
             for line, what in _back_doors(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
