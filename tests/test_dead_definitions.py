"""Every top-level function and class, and every annotated class field,
under src/ is named somewhere else.

A definition that no code, script, benchmark or test names is dead code.
A name counts as a Name, an Attribute, a part of an import, or a string
constant that is the name or a dotted path through it (perfbench wraps
functions by their names as strings).  A definition's own body does not
count, so a function that only calls itself is still dead.  A field
counts as read only where an Attribute loads it; its declaration, a
keyword argument that fills it and a store through `object.__setattr__`
do not, so a field that is only ever stored is dead too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "scripts", "perfbench", "tests")


def _named(node):
    """The names a single AST node mentions."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return set(node.name.split("."))
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"[\w.]+", node.value)):
        return set(node.value.split("."))
    return set()


def _scan():
    """(top-level definitions under src/ as {name: file}, every name used)."""
    defined, used = {}, set()
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text(), filename=str(path))
            for stmt in module.body:
                own = None
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    own = stmt.name
                    if tree == "src":
                        defined.setdefault(own, path.relative_to(ROOT))
                for node in ast.walk(stmt):
                    used |= _named(node) - {own}
    return defined, used


def test_every_top_level_definition_under_src_is_named_elsewhere():
    defined, used = _scan()
    dead = sorted(f"{path}: {name}" for name, path in defined.items() if name not in used)
    assert dead == []


def _field_scan():
    """(annotated class fields under src/ as {(class, field): file}, the
    names every Attribute load gives)."""
    fields, read = {}, set()
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.ClassDef) and tree == "src":
                    for stmt in node.body:
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                            fields[node.name, stmt.target.id] = path.relative_to(ROOT)
    return fields, read


def test_every_annotated_class_field_under_src_is_read():
    fields, read = _field_scan()
    dead = sorted(f"{path}: {cls}.{name}" for (cls, name), path in fields.items()
                  if name not in read)
    assert dead == []
