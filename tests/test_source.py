"""Dead-code guard: no module of the package imports a name it never reads,
and no private module-level name goes unread by the whole package."""

import ast
from pathlib import Path

import chromagraph

TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(Path(chromagraph.__file__).parent.glob("*.py"))}


def read_names(tree) -> set[str]:
    """Every name ``tree`` reads: loaded names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for module, tree in TREES.items():
        if module == "__init__.py":  # its imports are the package's re-exports
            continue
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        unused.append(f"{module}: {name}")
    assert unused == []


def test_every_private_module_level_name_is_read():
    read = set().union(*map(read_names, TREES.values()))
    defined = []
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend((module, t.id) for t in targets if isinstance(t, ast.Name))
    unread = [f"{module}: {name}" for module, name in defined
              if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unread == []
