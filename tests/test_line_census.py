"""The one integer line census.

`_kernels_py._line_census` counts `_canonical_span` keys of integerized
points for `spanned_line_multiplicities`, `rich_lines` and the pairs family,
and `_kernels_py._spanned_lines` reads it for three equal grids.  No module
of `src/addcomb` but `_kernels_py.py` calls `_canonical_span`.
The Fraction route, `core.line_through` per point pair, is only the
independent check: no module of `src/addcomb` but `harness.py` calls it.
Both are rules of the one scanner (`source_rules.call_sites`).  `core.py`
defines `line_through` and `__init__.py` re-exports it.
"""

from addcomb import incidence
from source_rules import call_sites, findings, nodes


def test_scanner_finds_every_form_of_the_call():
    src = (
        "from . import core\n"
        "from .core import line_through\n"
        "def line_through(p, q):\n"
        "    return p\n"
        "def outer(pts):\n"
        "    def inner(p, q):\n"
        "        return {line_through(p, q)}\n"
        "    return [core.line_through(p, q) for p, q in pts]\n"
        "KEY = line_through(1, 2)\n"
    )
    assert call_sites(nodes(src), "line_through") == ["inner", "outer", None]


def test_only_the_harness_check_calls_line_through():
    assert findings(lambda walk: call_sites(walk, "line_through")) == {
        "src/addcomb/harness.py": ["_suite_incidence"]}
    assert not hasattr(incidence, "line_through")


def test_only_the_kernel_module_calls_canonical_span():
    src = (
        "from ._kernels_py import _canonical_span\n"
        "def census(pairs):\n"
        "    return {_canonical_span(*p, *q) for p, q in pairs}\n"
    )
    assert call_sites(nodes(src), "_canonical_span") == ["census"]
    assert findings(lambda walk: call_sites(walk, "_canonical_span")) == {
        "src/addcomb/_kernels_py.py": ["_line_census", "_spanned_lines"]}
