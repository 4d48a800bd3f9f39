"""A scan of the package's source on its syntax trees alone: no module
imports a name it does not use, and every module-level private name is
used somewhere in the package.  Both catch what a deletion leaves behind."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "simulroot"


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _references(node: ast.AST) -> set[str]:
    """The names ``node`` reads: bare names, attributes (``numeric._context``)
    and the names a ``from`` import takes from another module."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _defined(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else (
        [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_no_module_imports_a_name_it_does_not_use():
    # __init__ re-exports what it imports
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
                   and getattr(n, "module", None) != "__future__"]
        bound = [(alias.asname or alias.name).partition(".")[0]
                 for node in imports for alias in node.names]
        unused += [f"{name}: {b}" for b in bound if b not in loaded]
    assert unused == []


def test_every_private_module_name_is_used_in_the_package():
    # A definition's own body does not count: a helper that only calls
    # itself is unused.
    statements = [(name, s) for name, tree in _modules().items() for s in tree.body]
    read = [_references(s) for _, s in statements]
    unused = [f"{name}: {d}" for k, (name, statement) in enumerate(statements)
              for d in _defined(statement)
              if d.startswith("_") and not d.startswith("__")
              and not any(d in names for j, names in enumerate(read) if j != k)]
    assert unused == []
