"""Every name a module imports is used in that module.

The repository runs no linter, so this test stands in for the unused-import
check.  A use is an ``ast.Name`` node: a word inside a string or docstring
does not count, since words like ``field`` would hide a dead import.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(tree: ast.Module) -> list[str]:
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name != "annotations" and name not in used]


def test_every_imported_name_is_used():
    paths = sorted((ROOT / "src" / "sbuntwist").glob("*.py")) + sorted(
        (ROOT / "scripts").glob("*.py")
    )
    assert len(paths) > 10
    unused = [
        f"{path.name}: {name}"
        for path in paths
        for name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []
