"""Compiled and pure counting kernels must agree everywhere.

The dispatch layer (int64 magnitude precheck) is covered here too: inputs
past the safe range must silently take the pure path and still produce
identical counts.

Without an installed extension, a session fixture builds the committed
`_kernels_cy.c` into a temporary directory with the system C compiler and
loads it beside the pure backend, so the equivalence tests run wherever a
compiler and `Python.h` exist.
"""

import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import _kernels, _kernels_py
from addcomb._kernels import backend_name

ints = st.integers(-300, 300)
int_lists = st.lists(ints, min_size=1, max_size=6, unique=True)
pos_lists = st.lists(st.integers(1, 300), min_size=1, max_size=12, unique=True)

C_SOURCE = Path(_kernels_py.__file__).with_name("_kernels_cy.c")


def _build_compiled(out_dir: Path):
    compiler = shutil.which("cc") or shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if compiler is None or not Path(include, "Python.h").exists():
        pytest.skip("no C compiler or Python.h to build the compiled kernels")
    target = out_dir / ("_kernels_cy" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [compiler, "-O1", "-shared", "-fPIC", f"-I{include}", str(C_SOURCE),
         "-o", str(target)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        pytest.fail(f"building {C_SOURCE.name} failed:\n{proc.stderr}")
    # the module registers itself in sys.modules as it loads; the dispatcher
    # imported without it already, so the pure backend stays selected
    spec = importlib.util.spec_from_file_location("addcomb._kernels_cy", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def cy(tmp_path_factory):
    if backend_name() == "compiled":
        yield _kernels._compiled
        return
    yield _build_compiled(tmp_path_factory.mktemp("kernels_cy"))
    assert backend_name() == "pure"


@given(int_lists, int_lists, int_lists)
@settings(max_examples=60, deadline=None)
def test_collinear_six_counts_equivalent(cy, a, b, c):
    assert cy.collinear_six_counts(a, b, c) == _kernels_py.collinear_six_counts(a, b, c)


@given(int_lists, int_lists, int_lists)
@settings(max_examples=40, deadline=None)
def test_t_o_linehash_equivalent(cy, a, b, c):
    assert cy.t_o_linehash(a, b, c) == _kernels_py.t_o_linehash(a, b, c)


@given(pos_lists, pos_lists)
@settings(max_examples=60, deadline=None)
def test_mul_pairs_count_equivalent(cy, x, y):
    assert cy.mul_pairs_count(x, y) == _kernels_py.mul_pairs_count(x, y)


@given(st.lists(ints, min_size=1, max_size=25),
       st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9),
                          st.integers(-20, 20))
                .filter(lambda t: (t[0], t[1]) != (0, 0)),
                min_size=1, max_size=25))
@settings(max_examples=40, deadline=None)
def test_count_incidences_equivalent(cy, coords, lines):
    pxs = coords
    pys = list(reversed(coords))
    las = [a for a, _, _ in lines]
    lbs = [b for _, b, _ in lines]
    lcs = [c for _, _, c in lines]
    assert (cy.count_incidences(pxs, pys, las, lbs, lcs)
            == _kernels_py.count_incidences(pxs, pys, las, lbs, lcs))


def test_dispatch_overflow_falls_back_to_pure():
    # magnitudes beyond the int64-safe precheck must route to the pure
    # backend; the count itself stays exact either way
    big = 2**40
    a = [big, big + 1]
    got = _kernels.collinear_six_counts(a, a, a)
    assert got == _kernels_py.collinear_six_counts(a, a, a)


def test_dispatch_small_inputs_use_selected_backend():
    assert backend_name() in ("compiled", "pure")
    a = [0, 1, 2]
    assert _kernels.collinear_six_counts(a, a, a) == \
        _kernels_py.collinear_six_counts(a, a, a)


def test_mul_pairs_cross_is_pure_only():
    # the cross variant backs the identity check; only a pure version
    # exists and it must match a direct quadruple loop, as must the
    # diagonal mul_pairs_count that shares its matching step
    x1, x2 = [1, 2, 3], [2, 4]
    y1, y2 = [1, 5], [3, 6, 9]
    direct = sum(
        1
        for a in x1 for b in x2 for c in y1 for d in y2
        if a * d == b * c
    )
    assert _kernels_py.mul_pairs_cross(x1, x2, y1, y2) == direct
    x, y = [0, 1, -2, 3], [0, 2, 4, -6, 5]
    direct = sum(
        1
        for a in x for b in x for c in y for d in y
        if a * d == b * c
    )
    assert _kernels_py.mul_pairs_count(x, y) == direct
