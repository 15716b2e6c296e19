"""Every name the package, the tests and the demos import is read, and the
package imports nothing beyond its runtime dependencies."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "demos") for path in (ROOT / top).rglob("*.py"))


def _unread_imports(tree):
    """Imported names never loaded in the module; `__future__` imports and
    names listed in the module's `__all__` (re-exports) are exempt."""
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (line, name) for name, line in imported.items() if name not in read | exported
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unread_imports(tree) == []


def test_the_scan_sees_unread_and_exempt_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "np.zeros(dumps([]))\n"
    )
    assert _unread_imports(tree) == [(2, "os")]


def test_the_package_imports_no_graph_library():
    # networkx is the tests' reference max-flow, not a runtime dependency
    probe = "import sys, credmarket; print('networkx' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
