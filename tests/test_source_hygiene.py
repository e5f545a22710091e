"""Source hygiene of ``src/afpm``, read from the syntax tree of each module.

Two things that a deletion tends to leave behind fail here: an import that
its scope no longer uses, and a module-level private function, class or
constant that nothing in the package references any more.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "afpm"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def own_imports(scope: ast.AST):
    """The import statements whose nearest enclosing function (or module) is ``scope``."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def loaded_names(tree: ast.AST) -> set[str]:
    """Every name read in ``tree``, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_import_is_used_in_its_scope():
    unused = []
    for name, tree in modules().items():
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)]
        for scope in scopes:
            used = loaded_names(scope)
            for stmt in own_imports(scope):
                if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                    continue
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{stmt.lineno} {bound}")
    assert unused == []


def test_every_private_module_name_is_referenced():
    trees = modules()
    referenced = set()
    for tree in trees.values():
        referenced |= loaded_names(tree)
        referenced |= {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for alias in node.names}
    orphans = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            orphans += [f"{name}:{node.lineno} {d}" for d in defined
                        if d.startswith("_") and not d.startswith("__")
                        and d not in referenced]
    assert orphans == []
