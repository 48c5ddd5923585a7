"""Every function, method and class of the package has a user in the code.

The package and the benchmark are parsed with `ast`.  A definition is
used when its name occurs in some code of theirs: as a name, an
attribute, an imported name, or a string that is an identifier or a
dotted path of identifiers (the benchmark looks layers up with
`getattr`).  A method, a `def` directly in a class body, is reached
only through an attribute or such a string, so a local variable of the
same name does not use it.  Docstrings are not code, and neither is the
definition's own name; tests do not count as users.  Dunder names are
called by Python.

Every module of the package, of the tests and of the benchmark also uses
each name it imports, so that deleted code leaves no import behind.
`__init__.py` re-exports its imports, and `from __future__` imports act
on the compiler; both are exempt.
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


def _references(tree: ast.AST) -> tuple[set[str], set[str]]:
    """(every name the code uses, the names it uses as an attribute or a string)."""
    docstrings = _docstrings(tree)
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                attributes.update(parts)
    return names | attributes, attributes


def _definitions(tree: ast.AST) -> tuple[set[str], set[str]]:
    """(the names of the functions and classes that are not methods, the methods')."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    method_ids = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, functions)}
    plain, methods = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (*functions, ast.ClassDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            (methods if id(node) in method_ids else plain).add(node.name)
    return plain, methods


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unused_definitions() -> list[str]:
    used, attributes = set(), set()
    for directory in USERS:
        for path in directory.rglob("*.py"):
            if "tests" not in path.relative_to(ROOT).parts:
                names, attrs = _references(_parse(path))
                used |= names
                attributes |= attrs
    functions, methods = set(), set()
    for path in PACKAGE.rglob("*.py"):
        plain, inside = _definitions(_parse(path))
        functions |= plain
        methods |= inside
    return sorted((functions - used) | (methods - attributes))


def test_every_definition_has_a_user():
    unused = _unused_definitions()
    assert [name for name in unused if name not in ALLOWED] == []
    # an allowed name that is gone, or that gained a user, is dropped from the list
    assert set(ALLOWED) <= set(unused)


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
    modules = [*PACKAGE.rglob("*.py"), *(ROOT / "tests").glob("*.py"),
               *(ROOT / "bench").rglob("*.py")]
    unused = {str(path.relative_to(ROOT)): _unused_imports(_parse(path)) for path in modules
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
