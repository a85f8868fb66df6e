"""Every top-level function, class and constant, every method and property
and every annotated class field under src/ is named by the program: src/,
scripts/ or perfbench/.

A definition that nothing there names is dead code.  Tests do not count
as users: a definition that only a test reaches is not reached by any
run, so it does not belong in src/.
A constant is a name a module-level assignment binds; dunders such as
`__version__` and `__post_init__` are exempt.
A name counts as a Name, an Attribute, a part of an import, or a string
constant that is the name or a dotted path through it (perfbench wraps
functions by their names as strings).  A definition's own body does not
count, so a function or method that only calls itself is still dead.  A field
counts as read only where an Attribute loads it; its declaration, a
keyword argument that fills it and a store through `object.__setattr__`
do not, so a field that is only ever stored is dead too.

The same scan holds the compact-window guard in one place: under src/,
only `grids.py`, which defines it, and `solvers/march.py`, which runs it
at every sample of a compact run, name `check_escape` or `escape_tol`.
It also holds deletion in one place: under src/, only
`experiment/runner.py`, which replaces a run's directory whole, calls
`shutil.rmtree`, `.unlink`, `.rmdir`, `os.remove` or `os.unlink`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "scripts", "perfbench")


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


def _bound(stmt):
    """The names a top-level statement defines: a function's or class's
    name, or the non-dunder names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name) and not re.fullmatch(r"__\w+__", node.id)}
    return set()


def _scan():
    """(top-level definitions under src/ as {name: file}, every name used)."""
    defined, used = {}, set()
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text(), filename=str(path))
            for stmt in module.body:
                own = _bound(stmt)
                if tree == "src":
                    for name in own:
                        defined.setdefault(name, path.relative_to(ROOT))
                for node in ast.walk(stmt):
                    used |= _named(node) - own
    return defined, used


def test_every_top_level_definition_under_src_is_named_elsewhere():
    defined, used = _scan()
    dead = sorted(f"{path}: {name}" for name, path in defined.items() if name not in used)
    assert dead == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _method_scan():
    """(methods and properties of classes under src/ as {(class, name):
    file}, every name used outside the body of a function of that name)."""
    methods, used = {}, set()
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            stack = [(ast.parse(path.read_text(), filename=str(path)), frozenset())]
            while stack:
                node, own = stack.pop()
                if isinstance(node, ast.ClassDef) and tree == "src":
                    for stmt in node.body:
                        if isinstance(stmt, FUNCTIONS) and not re.fullmatch(r"__\w+__", stmt.name):
                            methods[node.name, stmt.name] = path.relative_to(ROOT)
                if isinstance(node, FUNCTIONS):
                    own = own | {node.name}
                used |= _named(node) - own
                stack.extend((child, own) for child in ast.iter_child_nodes(node))
    return methods, used


def test_every_method_under_src_is_named_elsewhere():
    methods, used = _method_scan()
    dead = sorted(f"{path}: {cls}.{name}" for (cls, name), path in methods.items()
                  if name not in used)
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


GUARD = {"check_escape", "escape_tol"}


def test_only_the_grid_and_march_name_the_window_guard():
    """march names the guard, and no module but grids.py may besides."""
    named = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        if any(_named(node) & GUARD for node in ast.walk(module)):
            named.add(path.relative_to(ROOT))
    named.discard(Path("src/hypodecay/grids.py"))
    assert named == {Path("src/hypodecay/solvers/march.py")}


DELETERS = {"rmtree", "unlink", "rmdir"}


def _deletes(node):
    """Whether `node` calls `rmtree`, `unlink` or `rmdir` (as a name or an
    attribute) or `os.remove`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in DELETERS
    return isinstance(func, ast.Attribute) and (
        func.attr in DELETERS
        or func.attr == "remove" and isinstance(func.value, ast.Name) and func.value.id == "os")


def test_only_the_runner_deletes_files():
    """The runner removes an earlier run's directory and a failed run's
    sibling, and no module but the runner deletes anything."""
    deleting = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ast.parse(path.read_text(), filename=str(path))
        if any(_deletes(node) for node in ast.walk(module)):
            deleting.add(path.relative_to(ROOT))
    assert deleting == {Path("src/hypodecay/experiment/runner.py")}
