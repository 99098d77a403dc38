"""The benchmark tracer's binding of four kernels, and the route name.

Every caller in the package imports its kernels by name from `_kernels_py`,
the one integer route of each, over arbitrary-precision ints.  This module
re-exports four of them because the benchmark's tracer finds them here,
and defines `backend_name` for the report environments.  Only `harness`
imports it, and the package's `__getattr__` when `addcomb.backend_name`
is first read.  It goes when the tracer binds `_kernels_py` (ROADMAP
item 1, part B).
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
