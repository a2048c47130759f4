"""No module of the package imports a name it never uses.

The project ships no linter, so this is its unused-import check.  A
package's `__init__.py` imports names to re-export them and is skipped; an
import kept on purpose carries `# noqa: F401` on its line.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cqreg"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module's imports bind that nothing in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads\n"
        "from math import pi  # noqa: F401\n"
        "from math import (\n"
        "    tau,\n"
        "    e,  # noqa: F401\n"
        ")\n"
        "print(os.path.sep, dumps(tau))\n"
    )
    assert unused_imports(source) == ["loads"]
