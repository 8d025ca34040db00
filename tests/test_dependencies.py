"""src/ imports only what pyproject.toml declares: the standard library and numpy.

scipy and sympy may be installed beside numpy, so an import of either would
pass every other test and still break a plain install.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "querybound"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_src_imports_only_declared_dependencies():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    stray = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}:{node.lineno} imports {name}"
                      for name in names if name.split(".")[0] not in ALLOWED]
    assert not stray
