"""`import addcomb` loads no module that only some commands need.

The exact counts are integer work; mpmath serves the enclosures of
`intervals` alone, `platform` only `environment_info`, `statistics` only
`fit_exponent` and `importlib.resources` only `load_baselines`, so each is
imported inside the function that uses it.  A fresh interpreter checks
that `import addcomb` leaves them out of `sys.modules` and that the first
enclosure brings mpmath in with the same endpoints; a rule of the one
scanner (`source_rules.eager_imports`) keeps every module of `src/addcomb`
from importing them at module level.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from addcomb import intervals
from source_rules import PACKAGE, ROOT, eager_imports, nodes, scan

_CHILD = """
import json, sys
import addcomb
from addcomb import intervals
before = [m for m in ("mpmath", "platform", "statistics") if m in sys.modules]
lo, hi = intervals.ln2_bounds()
print(json.dumps({"before": before, "after": "mpmath" in sys.modules,
                  "ln2": [str(lo), str(hi)]}))
"""


def test_import_leaves_mpmath_platform_statistics_unloaded():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    got = json.loads(res.stdout)
    assert got["before"] == []
    assert got["after"] is True
    assert [Fraction(x) for x in got["ln2"]] == list(intervals.ln2_bounds())


def test_scanner_finds_every_form_of_an_eager_import():
    src = (
        "import json\n"
        "import mpmath\n"
        "from mpmath.libmp import to_rational\n"
        "from importlib import resources, metadata\n"
        "import importlib.resources as res\n"
        "from . import platform\n"
        "try:\n"
        "    import statistics\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    import platform\n"
        "def f():\n"
        "    import mpmath\n"
        "    from importlib import resources\n"
        "    return mpmath, resources\n"
        "import statisticsx, mpmathy\n"
    )
    # a relative `.platform` is the package's own module; function bodies
    # run on the first call; a longer name is a different module
    assert eager_imports(nodes(src)) == [(2, "mpmath"), (3, "mpmath"),
                                         (4, "importlib.resources"),
                                         (5, "importlib.resources"), (8, "statistics"),
                                         (12, "platform")]


def test_scan_covers_the_package():
    names = {p.name for p in PACKAGE}
    assert {"__init__.py", "harness.py", "intervals.py"} <= names


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_module_imports_a_deferred_module_eagerly(path):
    assert eager_imports(scan(path)) == []
