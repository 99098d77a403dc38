"""`import addcomb` loads no module that only some commands need, and no
`spctl` command loads mpmath.

The package imports `energy` alone and reads every other public name from
its module on first use, so a fresh `import addcomb` loads `energy` and
what it imports, and `from addcomb.collinear import t_o_count` leaves the
harness, the decompositions, incidence, ratios and the CLI unloaded.  Each
public name is still the one object that every module binding it holds.
Each `spctl` command imports the modules it runs, so `gen`, `energy`,
`triples` and `ratios` leave the harness and the decompositions unloaded.

The enclosures of `intervals` are integer work, and mpmath serves only
the tests' oracle (`intervals._mpmath`); `platform` and
`importlib.metadata` serve only `environment_info`, `statistics` only
`fit_exponent` and `importlib.resources` only `load_baselines`, so each is
imported inside the function that uses it.  A fresh interpreter checks
that `import addcomb` leaves them out of `sys.modules` and that the first
enclosure still leaves mpmath out, with the same endpoints; another runs
one of each `spctl` command form and finds no mpmath either.  A rule of
the one scanner (`source_rules.eager_imports`) keeps every module of
`src/addcomb` from importing them at module level.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import metadata

import pytest

import addcomb
from addcomb import intervals
from addcomb.core import canonical_line, point
from addcomb.incidence import Arrangement, write_arrangement
from source_rules import PACKAGE, ROOT, eager_imports, findings, module_imports, nodes, scan

_CHILD = """
import json, sys
import addcomb
import addcomb
from addcomb import intervals
before = [m for m in ("mpmath", "platform", "statistics", "importlib.metadata")
          if m in sys.modules]
lo, hi = intervals.ln2_bounds()
print(json.dumps({"before": before, "after": "mpmath" in sys.modules,
                  "ln2": [str(lo), str(hi)]}))
"""

# one of each spctl command form, run in one interpreter from the
# directory that holds a.txt and arr.json
_COMMANDS = """
import json, sys
from addcomb.cli import main
forms = [
    ["gen", "--kind", "AP", "--start", "1", "--step", "2", "--n", "12", "--out", "a.txt"],
    ["energy", "--set", "a.txt", "--k", "3"],
    ["triples", "--set", "a.txt"],
    ["ratios", "--set", "a.txt"],
    ["incidence", "--set", "a.txt"],
    ["incidence", "--arrangement", "arr.json"],
    ["decompose", "--set", "a.txt", "--mode", "bw"],
    ["decompose", "--set", "a.txt", "--mode", "xy"],
    ["regularize", "--set", "a.txt", "--k", "2"],
    ["report", "--set", "a.txt"],
    ["verify", "--suite", "reports", "--json", "v.json"],
]
codes = [main(argv) for argv in forms]
print(json.dumps({"codes": codes, "mpmath": "mpmath" in sys.modules}))
"""


# the commands that run neither a suite nor a decomposition
_LIGHT_COMMANDS = """
import json, sys
from addcomb.cli import main
forms = [
    ["gen", "--kind", "AP", "--start", "1", "--step", "2", "--n", "12", "--out", "a.txt"],
    ["energy", "--set", "a.txt", "--k", "3"],
    ["triples", "--set", "a.txt"],
    ["ratios", "--set", "a.txt"],
]
codes = [main(argv) for argv in forms]
print(json.dumps({"codes": codes,
                  "loaded": sorted(m for m in sys.modules if m.startswith("addcomb"))}))
"""

_PACKAGE_NAMES = """
import json, sys
import addcomb
loaded = sorted(m for m in sys.modules if m.startswith("addcomb"))
from addcomb import cli
print(json.dumps({"loaded": loaded, "cli": cli.__name__,
                  "energy": addcomb.energy is sys.modules["addcomb.energy"].energy,
                  "unknown": hasattr(addcomb, "no_such_name")}))
"""

_T_O = """
import json, sys
from addcomb.collinear import t_o_count
print(json.dumps(sorted(m for m in sys.modules if m.startswith("addcomb"))))
"""


def _child(code, cwd=None):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def test_import_leaves_mpmath_platform_statistics_unloaded():
    got = _child(_CHILD)
    assert got["before"] == []
    assert got["after"] is False
    assert [Fraction(x) for x in got["ln2"]] == list(intervals.ln2_bounds())


def test_import_loads_energy_and_what_it_imports():
    got = _child(_PACKAGE_NAMES)
    assert got["loaded"] == ["addcomb", "addcomb._kernels_py", "addcomb.energy",
                             "addcomb.errors", "addcomb.sets"]
    assert got == {**got, "cli": "addcomb.cli", "energy": True, "unknown": False}


def test_collinear_loads_no_harness_decompose_incidence_ratios_or_cli():
    loaded = set(_child(_T_O))
    assert "addcomb.collinear" in loaded
    assert loaded.isdisjoint({f"addcomb.{m}" for m in
                              ("harness", "decompose", "incidence", "ratios", "cli")})


def test_light_commands_load_no_harness_or_decompose(tmp_path):
    # each spctl command imports the modules it runs, and only those
    got = _child(_LIGHT_COMMANDS, cwd=tmp_path)
    assert got["codes"] == [0] * 4
    assert "addcomb.collinear" in got["loaded"] and "addcomb.ratios" in got["loaded"]
    assert {"addcomb.harness", "addcomb.decompose"}.isdisjoint(got["loaded"])


def test_each_public_name_is_the_object_its_modules_bind():
    modules = [importlib.import_module(f"addcomb.{p.stem}") for p in PACKAGE
               if p.stem != "__init__"]
    for name in addcomb.__all__:
        obj = getattr(addcomb, name)
        assert all(vars(m)[name] is obj for m in modules if name in vars(m)), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert vars(sys.modules[obj.__module__])[name] is obj, name
    assert len(set(addcomb.__all__)) == len(addcomb.__all__) == 59
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(addcomb, "no_such_name")


def test_no_spctl_command_loads_mpmath(tmp_path):
    write_arrangement(tmp_path / "arr.json", Arrangement.build(
        [point(x, y) for x in range(3) for y in range(3)],
        [canonical_line(1, -1, b) for b in range(-1, 2)]))
    got = _child(_COMMANDS, cwd=tmp_path)
    assert got == {"codes": [0] * 11, "mpmath": False}
    (suite,) = json.loads((tmp_path / "v.json").read_text())["payload"]["suites"]
    assert suite["environment"]["mpmath"] == metadata.version("mpmath")


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
                                         (4, "importlib.metadata"),
                                         (4, "importlib.resources"),
                                         (5, "importlib.resources"), (8, "statistics"),
                                         (12, "platform")]


def test_scanner_finds_every_form_of_a_kernels_import():
    src = (
        "from . import _kernels\n"
        "from ._kernels import backend_name\n"
        "from ._kernels_py import t_o_linehash\n"
        "from . import _kernels_py, errors\n"
        "import addcomb._kernels\n"
        "from addcomb import _kernels as k\n"
        "from addcomb._kernels import t_o_linehash\n"
        "def f():\n"
        "    from . import _kernels\n"
        "import addcomb._kernelsx\n"
    )
    # `_kernels_py` and a longer name are other modules
    assert module_imports(nodes(src), "_kernels") == [1, 2, 5, 6, 7, 9]


def test_only_the_harness_imports_the_kernels_shim():
    # every caller takes its kernels from `_kernels_py`; `_kernels` is the
    # benchmark tracer's binding of four of them, with `backend_name`
    assert findings(lambda walk: len(module_imports(walk, "_kernels"))) == {
        "src/addcomb/harness.py": 1}


def test_scan_covers_the_package():
    names = {p.name for p in PACKAGE}
    assert {"__init__.py", "harness.py", "intervals.py"} <= names


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_module_imports_a_deferred_module_eagerly(path):
    assert eager_imports(scan(path)) == []
