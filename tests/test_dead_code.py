"""Every function, method and class of the package has a user in the code.

The package and the benchmark are parsed with `ast`.  A definition is
used when its name occurs in some code of theirs: as a name, an
attribute, an imported name, or a string that is an identifier or a
dotted path of identifiers (the benchmark looks layers up with
`getattr`).  Docstrings are not code, and neither is the definition's own
name; tests do not count as users.  Dunder names are called by Python.

Every module of the package also uses each name it imports, so that
deleted code leaves no import behind.  `__init__.py` re-exports its
imports, and `from __future__` imports act on the compiler; both are
exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fano22"
USERS = (PACKAGE, ROOT / "bench")

#: names kept without a user in the code, with the reason
ALLOWED = {
    "mul_vector": "the tests' oracle for kernels and solutions",
}


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _references(tree: ast.AST) -> set[str]:
    docstrings = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def _definitions(tree: ast.AST) -> set[str]:
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_definition_has_a_user():
    used = set()
    for directory in USERS:
        for path in directory.rglob("*.py"):
            if "tests" not in path.relative_to(ROOT).parts:
                used |= _references(_parse(path))
    defined = set()
    for path in PACKAGE.rglob("*.py"):
        defined |= _definitions(_parse(path))
    assert sorted(defined - used - set(ALLOWED)) == []
    # an allowed name that is gone is dropped from the list
    assert set(ALLOWED) <= defined


def _unused_imports(tree: ast.AST) -> list[str]:
    """The names a module imports, anywhere in it, and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_every_import_is_used():
    unused = {path.name: _unused_imports(_parse(path)) for path in PACKAGE.rglob("*.py")
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
