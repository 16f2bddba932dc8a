"""Static checks on the source tree."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/projlab", "tests", "demos")


def _unused_imports(path):
    """Names that an import statement in the file binds and that the file
    never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_every_imported_name_is_read():
    unused = []
    for folder in SCANNED:
        for path in sorted((ROOT / folder).glob("*.py")):
            if path.name == "__init__.py":  # its imports are re-exports
                continue
            unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                       for line, name in _unused_imports(path)]
    assert not unused, "imported but never read:\n" + "\n".join(unused)
