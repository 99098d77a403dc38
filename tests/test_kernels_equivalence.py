"""Compiled and pure counting kernels must agree everywhere.

The dispatch layer (int64 magnitude precheck) is covered here too: inputs
past the safe range must silently take the pure path and still produce
identical counts.  The pure pivot-direction T_o counter is also checked
against the pure line census (`_spanned_lines`) at sizes where the brute
force is too slow.

Without an installed extension, a session fixture builds the committed
`_kernels_cy.c` into a temporary directory with the system C compiler and
loads it beside the pure backend, so the equivalence tests run wherever a
compiler and `Python.h` exist.
"""

import importlib.util
import random
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import _kernels, _kernels_py
from addcomb._kernels import INT64_SAFE, backend_name

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


class _Spy:
    """Stands in for the compiled module and records which kernels ran."""

    def __init__(self, module):
        self._module = module
        self.calls = []

    def __getattr__(self, name):
        def call(*args):
            self.calls.append(name)
            return getattr(self._module, name)(*args)
        return call


def test_fits_accepts_exactly_the_int64_safe_range():
    assert _kernels._fits([INT64_SAFE], [-INT64_SAFE], [0])
    assert not _kernels._fits([0], [INT64_SAFE + 1])
    assert not _kernels._fits([-INT64_SAFE - 1], [0])


def test_dispatch_at_int64_boundary_stays_exact(cy, monkeypatch):
    # differences reach 2 * INT64_SAFE and their products 4 * INT64_SAFE^2,
    # the most the compiled route may see; one step past the range must
    # take the pure route
    spy = _Spy(cy)
    monkeypatch.setattr(_kernels, "_compiled", spy)
    s = INT64_SAFE
    for vals, compiled in (
        ([-s, -s + 1, 0, s - 1, s], True),
        ([-s, -s + 1, 0, s - 1, s + 1], False),
        ([-s - 1, -s + 1, 0, s - 1, s], False),
    ):
        spy.calls.clear()
        got = _kernels.collinear_six_counts(vals, vals, vals[1:])
        assert got == _kernels_py.collinear_six_counts(vals, vals, vals[1:])
        assert spy.calls == (["collinear_six_counts"] if compiled else [])


def test_t_o_linehash_never_dispatches_to_compiled(cy, monkeypatch):
    spy = _Spy(cy)
    monkeypatch.setattr(_kernels, "_compiled", spy)
    a = [0, 1, 2, 4]
    assert _kernels.t_o_linehash(a, a, a) == _kernels_py.t_o_linehash(a, a, a)
    assert spy.calls == []


def _census_t_o(g1, g2, g3):
    return sum(d for *_, d in _kernels_py._spanned_lines(g1, g2, g3))


def _sample(seed, n, lo, hi):
    return random.Random(seed).sample(range(lo, hi), n)


def test_t_o_pivot_matches_line_census_above_brute_sizes():
    # n = 8..12, where the n^6 brute force is too slow for a test
    ap10 = list(range(10))
    r12 = _sample(1, 12, -20, 20)
    b11 = ap10[4:] + _sample(2, 6, 10, 40)
    c9 = ap10[:5] + [-3, 11, 12, 13]
    cases = [
        (ap10, ap10, ap10),                       # equal grids
        (r12, r12, r12),
        (_sample(3, 8, -10, 10), b11, b11),       # A2 = A3 != A1
        (ap10[1:9], b11, b11),
        (c9, b11, c9),                            # A1 = A3 != A2
        (ap10[2:], b11, c9),                      # partial overlaps
        (r12, _sample(4, 11, -20, 20), _sample(5, 9, -20, 20)),
    ]
    inside = outside = 0
    for g1, g2, g3 in cases:
        assert 8 <= min(map(len, (g1, g2, g3))) <= max(map(len, (g1, g2, g3))) <= 12
        shared = set(g2) & set(g3)
        pivots_in = sum(x in shared and y in shared for x in g1 for y in g1)
        inside += pivots_in
        outside += len(g1) ** 2 - pivots_in
        assert _kernels_py.t_o_linehash(g1, g2, g3) == _census_t_o(g1, g2, g3)
    assert inside and outside


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
