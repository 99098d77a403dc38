"""No module imports a name that it never uses.

A rule of the one scanner (`source_rules.unused_imports`) over the package
and the tooling (`tests/*.py` and the root `conftest.py`): every name that
an import statement binds must be read somewhere in the module, or be
listed in the module's `__all__` (a re-export).  `from __future__` imports
bind nothing and are exempt.
"""

import pytest

from source_rules import PACKAGE, ROOT, TOOLING, nodes, scan, unused_imports


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
    assert unused_imports(nodes(src)) == ["isqrt", "js"]


def test_scan_covers_the_package_and_the_tests():
    assert {"__init__.py", "_kernels.py", "cli.py", "harness.py", "intervals.py"} <= {
        p.name for p in PACKAGE}
    assert {ROOT / "conftest.py", ROOT / "tests" / "source_rules.py",
            ROOT / "tests" / "test_unused_imports.py",
            ROOT / "bench" / "sweep.py"} <= set(TOOLING)


@pytest.mark.parametrize("path", PACKAGE + TOOLING, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(scan(path)) == []
