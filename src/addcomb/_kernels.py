"""The counting kernels callers use: one integer route per kernel.

Each name is the pure-Python kernel from _kernels_py, over arbitrary-precision
ints, so no input magnitude changes the route or the result.  The kernels
are checked against independent algorithms in the tests (the line census
`_kernels_py._spanned_lines`, the shift identity, brute recounts), never
against a second copy of themselves.
"""

from __future__ import annotations

from ._kernels_py import (
    collinear_six_counts,
    count_incidences,
    mul_pairs_count,
    t_o_linehash,
)


def backend_name() -> str:
    """The kernel route, recorded in report environments: always "pure"."""
    return "pure"
