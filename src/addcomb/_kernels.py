"""Four of the counting kernels: one integer route per kernel.

Each name is the pure-Python kernel from _kernels_py, over arbitrary-precision
ints, so no input magnitude changes the route or the result.  Other callers
import from _kernels_py directly: `collinear` takes `mul_pairs_cross`,
`incidence` takes `_canonical_span` and `_spanned_lines`, and `energy`
takes `packed_pair_counts`.  The kernels
are checked against independent algorithms in the tests (the line census
`_kernels_py._spanned_lines`, the shift identity, brute recounts; for the
packed-slot `count_incidences`, a direct double loop and the Fraction
recount `LineKey.contains`; for `packed_pair_counts`, a Counter over the
pair keys), never against a second copy of themselves.
"""

from __future__ import annotations

from ._kernels_py import (
    collinear_six_counts,
    count_incidences,
    mul_pairs_count,
    t_o_linehash,
)

__all__ = [
    "backend_name",
    "collinear_six_counts",
    "count_incidences",
    "mul_pairs_count",
    "t_o_linehash",
]


def backend_name() -> str:
    """The kernel route, recorded in report environments: always "pure"."""
    return "pure"
