"""Kernel dispatch: compiled extension when available, pure Python otherwise.

The compiled backend works in int64, so each call is gated on a magnitude
precheck: with every input bounded by 2**28 all intermediate products
(differences up to 2**29, their products up to 2**58, line constants up to
2**58 plus slack) stay inside int64.  Inputs that fail the precheck are
routed to the arbitrary-precision pure backend regardless of what was
selected at import.  The pure kernels are the single implementation of
each loop; the compiled twin only mirrors the hot ones.

t_o_linehash is the exception: it always runs the pure pivot-direction
counter, which needs O(n^2) memory where the compiled twin still spans and
stores every line (O(n^4) memory) and is slower end to end.  The compiled
t_o_linehash is kept only as an independent reference in the tests and the
kernel bench.
"""

from __future__ import annotations

from . import _kernels_py

INT64_SAFE = 1 << 28

try:
    from . import _kernels_cy as _compiled
except ImportError:
    _compiled = None


def backend_name() -> str:
    return "compiled" if _compiled is not None else "pure"


def _fits(*seqs) -> bool:
    lim = INT64_SAFE
    for s in seqs:
        for v in s:
            if v > lim or v < -lim:
                return False
    return True


def collinear_six_counts(a, b, c):
    if _compiled is not None and _fits(a, b, c):
        return _compiled.collinear_six_counts(a, b, c)
    return _kernels_py.collinear_six_counts(a, b, c)


# pure on every route: see the module docstring
t_o_linehash = _kernels_py.t_o_linehash


def count_incidences(pxs, pys, las, lbs, lcs):
    if _compiled is not None and _fits(pxs, pys, las, lbs, lcs):
        return _compiled.count_incidences(pxs, pys, las, lbs, lcs)
    return _kernels_py.count_incidences(pxs, pys, las, lbs, lcs)


def mul_pairs_count(x, y):
    if _compiled is not None and _fits(x, y):
        return _compiled.mul_pairs_count(x, y)
    return _kernels_py.mul_pairs_count(x, y)
