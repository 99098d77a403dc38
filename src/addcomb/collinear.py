"""Collinear 6-tuple and ordered-triple counts over rational sets.

T(A,B,C) counts tuples (a1,a2,b1,b2,c1,c2) with
(b1-a1)(c2-a2) = (c1-a1)(b2-a2), i.e. the points (a1,a2), (b1,b2), (c1,c2)
collinear, coincidences included.  T_o(A1,A2,A3) is the ordered count over
the grids A_i x A_i with the three points pairwise distinct; order matters,
so a line meeting each grid in the same 3 points contributes 3! = 6.
Both a brute-force oracle and a fast path are provided and must agree
exactly; the fast path is never trusted on its own.  The fast path (mode
"linehash", a name kept from the line-materialising route it replaced) is
pivot-direction counting: it histograms, for each point of the smallest
grid, the directions to the points of the other two, in
O(|A1|^2 (|A2|^2 + |A3|^2)) time and O(|A2|^2 + |A3|^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from ._kernels_py import mul_pairs_cross
from .core import DEFAULT_BUDGET
from .errors import BudgetExceeded, InvalidConfig
from .intervals import power_sum_ratio_decimal
from .sets import RatSet, common_scale, scaled_ints


def _six_counts(A: RatSet, B: RatSet, C: RatSet):
    scale = common_scale(A, B, C)
    return _kernels.collinear_six_counts(
        scaled_ints(A, scale), scaled_ints(B, scale), scaled_ints(C, scale)
    )


def _check_tuple_budget(A, B, C, budget):
    cost = (len(A) * len(B) * len(C)) ** 2
    if cost > budget:
        raise BudgetExceeded(f"{cost} tuple checks exceed budget {budget}")


def t_count_brute(A: RatSet, B: RatSet, C: RatSet,
                  budget: int = DEFAULT_BUDGET) -> int:
    """Exact T(A,B,C) by enumerating all |A|^2 |B|^2 |C|^2 tuples."""
    _check_tuple_budget(A, B, C, budget)
    return _six_counts(A, B, C)[0]


def t_split_brute(A: RatSet, B: RatSet, C: RatSet,
                  budget: int = DEFAULT_BUDGET):
    """(total, distinct) where distinct keeps only pairwise distinct points."""
    _check_tuple_budget(A, B, C, budget)
    return _six_counts(A, B, C)


def t_o_count(A1: RatSet, A2: RatSet, A3: RatSet, mode: str = "linehash",
              budget: int = DEFAULT_BUDGET) -> int:
    """Ordered pairwise-distinct collinear triple count over the three grids.

    The count is symmetric in its arguments, so the fast path reorders the
    sets by size and pivots on the points of the smallest grid, charging
    |s1|^2 (|s2|^2 + |s3|^2) direction tallies against the budget for the
    size-sorted sets s1, s2, s3.
    """
    if mode == "brute":
        _check_tuple_budget(A1, A2, A3, budget)
        return _six_counts(A1, A2, A3)[1]
    if mode != "linehash":
        raise InvalidConfig(f"unknown mode {mode!r}")
    s1, s2, s3 = sorted((A1, A2, A3), key=len)
    cost = len(s1) ** 2 * (len(s2) ** 2 + len(s3) ** 2)
    if cost > budget:
        raise BudgetExceeded(f"linehash cost {cost} exceeds budget {budget}")
    scale = common_scale(s1, s2, s3)
    return _kernels.t_o_linehash(
        scaled_ints(s1, scale), scaled_ints(s2, scale), scaled_ints(s3, scale)
    )


@dataclass(frozen=True)
class TripleCountReport:
    """T, T_o and the degenerate remainder for one (A1, A2, A3) triple.

    degenerate_terms counts the T solutions with at least one coincidence
    among the three points; ratio_vs_bound is the outward-rounded interval
    for T_o / (|A1| |A2|^(5/3) |A3|^(4/3)), rendered as decimal strings.
    """

    T: int
    T_o: int
    degenerate_terms: int
    ratio_vs_bound: tuple

    def to_json(self) -> dict:
        return {
            "T": self.T,
            "T_o": self.T_o,
            "degenerate_terms": self.degenerate_terms,
            "ratio_vs_bound": [self.ratio_vs_bound[0], self.ratio_vs_bound[1]],
        }


def triple_count_report(A1: RatSet, A2: RatSet, A3: RatSet,
                        budget: int = DEFAULT_BUDGET) -> TripleCountReport:
    total, distinct = t_split_brute(A1, A2, A3, budget)
    n1, n2, n3 = len(A1), len(A2), len(A3)
    ratio = power_sum_ratio_decimal(
        distinct,
        [[(n1, Fraction(1)), (n2, Fraction(5, 3)), (n3, Fraction(4, 3))]],
    )
    return TripleCountReport(
        T=total, T_o=distinct, degenerate_terms=total - distinct, ratio_vs_bound=ratio
    )


@dataclass(frozen=True)
class IdentityReport:
    lhs: int
    rhs: int
    ok: bool

    def to_json(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "ok": self.ok}


def t_identity_check(A: RatSet, C: RatSet, D: RatSet,
                     budget: int = DEFAULT_BUDGET) -> IdentityReport:
    """T(A,C,D) as a sum of shifted product-form counts, checked exactly.

    Grouping the 6-tuple count by (a1, a2) and substituting
    x1 = b1 - a1, x2 = b2 - a2, y1 = c1 - a1, y2 = c2 - a2 turns the
    collinearity equation into x1*y2 = x2*y1, so
      T(A,C,D) = sum over (a1,a2) in A^2 of
                 #{x1 in C-a1, x2 in C-a2, y1 in D-a1, y2 in D-a2 : x1*y2 = x2*y1}.
    Note the cross shifts: x1 and x2 live in differently shifted copies of C
    whenever a1 != a2, which is why the diagonal product form
    mul_pairs_count(C-a1, D-a2) is NOT the right summand for C != D.
    Shifted sets may contain 0, which the cross form tolerates.
    When C = D the sum collapses to shifted multiplicative energies.
    """
    _check_tuple_budget(A, C, D, budget)
    scale = common_scale(A, C, D)
    av = scaled_ints(A, scale)
    cv = scaled_ints(C, scale)
    dv = scaled_ints(D, scale)
    shifts_c = {a: [c - a for c in cv] for a in av}
    shifts_d = {a: [d - a for d in dv] for a in av}
    lhs = 0
    for a1 in av:
        for a2 in av:
            lhs += mul_pairs_cross(
                shifts_c[a1], shifts_c[a2], shifts_d[a1], shifts_d[a2]
            )
    rhs = _six_counts(A, C, D)[0]
    return IdentityReport(lhs=lhs, rhs=rhs, ok=lhs == rhs)
