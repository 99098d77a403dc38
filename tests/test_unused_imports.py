"""No module imports a name that it never uses.

An AST scan of `src/addcomb/*.py` and `tests/*.py`: every name that an
import statement binds must be read somewhere in the module, or be listed
in the module's `__all__` (a re-export).  `from __future__` imports bind
nothing and are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/addcomb/*.py"), *ROOT.glob("tests/*.py")])


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """Names bound by the imports of `source` that it never reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return sorted(bound - read - _exported(tree))


def test_scanner_flags_unused_and_accepts_reexports():
    src = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import gcd, isqrt\n"
        "from typing import Sequence\n"
        "from .core import point\n"
        "__all__ = ['point']\n"
        "isqrt = 3\n"
        "def f(xs: Sequence[int]):\n"
        "    return os.path.join(*xs), gcd(1, 2)\n"
    )
    # js is never read; isqrt is only rebound, which is no use
    assert unused_imports(src) == ["isqrt", "js"]


def test_scan_covers_the_package_and_the_tests():
    names = {f.relative_to(ROOT).as_posix() for f in FILES}
    assert {"src/addcomb/_kernels.py", "src/addcomb/cli.py",
            "tests/test_unused_imports.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
