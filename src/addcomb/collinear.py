"""Collinear 6-tuple and ordered-triple counts over rational sets.

T(A,B,C) counts tuples (a1,a2,b1,b2,c1,c2) with
(b1-a1)(c2-a2) = (c1-a1)(b2-a2), i.e. the points (a1,a2), (b1,b2), (c1,c2)
collinear, coincidences included.  T_o(A1,A2,A3) is the ordered count over
the grids A_i x A_i with the three points pairwise distinct; order matters,
so a line meeting each grid in the same 3 points contributes 3! = 6.
Both a brute-force oracle and a fast path are provided and must agree
exactly; the fast path is never trusted on its own.  The fast path (mode
"linehash") tallies one histogram of the ratios (a2 - x)/(a3 - x) over
A1 x A2 x A3 on exact int keys, sums its squared counts and adds a closed
form for the solutions with a zero difference, in O(|A1| |A2| |A3|) time
and memory.
When A1 = A2 = A3 = A the 6 orders of a 3-set of A share one anharmonic
orbit of ratios, so it keys each 3-set once by the orbit's invariant,
C(|A|, 3) keys at most.
`triple_count_report` takes T_o from it and T as T_o plus the closed-form
`coincident_tuples`; the oracle suite checks that sum against the brute
6-tuple count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from ._kernels_py import mul_pairs_cross
from .core import DEFAULT_BUDGET, charge
from .errors import InvalidConfig
from .intervals import power_sum_ratio_decimal
from .sets import RatSet, Record, integerize


def _six_counts(A: RatSet, B: RatSet, C: RatSet):
    _, ints = integerize(A, B, C)
    return _kernels.collinear_six_counts(*ints)


def _check_tuple_budget(A, B, C, budget):
    charge((len(A) * len(B) * len(C)) ** 2, budget, "tuple checks")


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


def coincident_tuples(A: RatSet, B: RatSet, C: RatSet) -> int:
    """T(A,B,C) - T_o(A,B,C) in closed form: the 6-tuples with two equal points.

    Two equal points are collinear with any third, so by inclusion-exclusion
    this is |A&B|^2 |C|^2 + |A&C|^2 |B|^2 + |B&C|^2 |A|^2 - 2 |A&B&C|^2:
    any two point equalities force the third.
    """
    ab, ac, bc = A.intersection(B), A.intersection(C), B.intersection(C)
    abc = len(ab.intersection(C))
    return ((len(ab) * len(C)) ** 2 + (len(ac) * len(B)) ** 2
            + (len(bc) * len(A)) ** 2 - 2 * abc * abc)


def t_o_count(A1: RatSet, A2: RatSet, A3: RatSet, mode: str = "linehash",
              budget: int = DEFAULT_BUDGET) -> int:
    """Ordered pairwise-distinct collinear triple count over the three grids.

    The fast path keys one ratio per (x, a2, a3) in A1 x A2 x A3, so it
    charges |A1| |A2| |A3| ratio keys against the budget; that bounds both
    its work and the entries of its histogram, and it does not depend on
    the argument order.  On A1 = A2 = A3 it keys one orbit invariant per
    3-set instead, C(|A1|, 3) keys, and the same charge bounds those.
    """
    if mode == "brute":
        _check_tuple_budget(A1, A2, A3, budget)
        return _six_counts(A1, A2, A3)[1]
    if mode != "linehash":
        raise InvalidConfig(f"unknown mode {mode!r}")
    charge(len(A1) * len(A2) * len(A3), budget, "ratio keys")
    _, ints = integerize(A1, A2, A3)
    return _kernels.t_o_linehash(*ints)


@dataclass(frozen=True)
class TripleCountReport(Record):
    """T, T_o and the degenerate remainder for one (A1, A2, A3) triple.

    degenerate_terms counts the T solutions with at least one coincidence
    among the three points; ratio_vs_bound holds the decimal strings of a
    rational bracket of T_o / (|A1| |A2|^(5/3) |A3|^(4/3)), each end rounded
    to nearest (`intervals.power_sum_ratio_decimal`).
    """

    T: int
    T_o: int
    degenerate_terms: int
    ratio_vs_bound: tuple


def triple_count_report(A1: RatSet, A2: RatSet, A3: RatSet,
                        budget: int = DEFAULT_BUDGET) -> TripleCountReport:
    """T, T_o and their difference in O(n^3): T_o by the line-hash route
    of `t_o_count`, which charges its cost against the budget, and T as
    T_o plus the closed-form `coincident_tuples`.  The 6-tuple counters
    are left to the oracle checks of this sum."""
    distinct = t_o_count(A1, A2, A3, "linehash", budget)
    total = distinct + coincident_tuples(A1, A2, A3)
    n1, n2, n3 = len(A1), len(A2), len(A3)
    ratio = power_sum_ratio_decimal(
        distinct,
        [[(n1, Fraction(1)), (n2, Fraction(5, 3)), (n3, Fraction(4, 3))]],
    )
    return TripleCountReport(
        T=total, T_o=distinct, degenerate_terms=total - distinct, ratio_vs_bound=ratio
    )


@dataclass(frozen=True)
class IdentityReport(Record):
    lhs: int
    rhs: int
    ok: bool


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
    _, (av, cv, dv) = integerize(A, C, D)
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
