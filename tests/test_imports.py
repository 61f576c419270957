"""Every name a module of the package imports is used in that module, so a
helper deleted from one module does not live on as a stale import in
another.  No linter is a dependency; this reads each module with ``ast``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sphereacs"


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of source that no other
    name in it reads; a name listed in ``__all__`` is read (a re-export)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .fields import a, b\n__all__ = ['b']\nnp.ones(a)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
