"""Constrained ratio-of-sums counts r(z) and R(Z; A1, A2).

r(z) counts quadruples (a1, a1', a2, a2') in A1^2 x A2^2 with
a1' + a2' = z * (a1 + a2), in denominator-free equation form, so zero sums
are permitted: the pairs with a1 + a2 = 0 contribute to every z (they
satisfy the equation iff a1' + a2' = 0 as well), which is why the zero-sum
count is carried alongside the profile instead of being silently folded in.
R is defined as the sum of r(z)^2 over z in Z.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm
from operator import itemgetter
from typing import Optional

from .core import DEFAULT_BUDGET, charge
from .energy import rep_histogram
from .errors import InvalidConfig
from .intervals import power_sum_ratio_decimal
from .sets import RatSet, Record


def _r_from_hist(hist, z: Fraction) -> int:
    # r(z) = sum over sums s of h(s) * h(z*s); the s = 0 term contributes
    # h(0)^2 for every z since z*0 = 0.  hist may count the sums on any
    # common rescaling (the int keys of the sum histogram): rescaling
    # multiplies both sides of s' = z*s alike, so r(z) does not change
    p, q = z.numerator, z.denominator
    total = 0
    for s, m in hist.items():
        if s % q:
            continue
        other = hist.get(p * (s // q))
        if other:
            total += m * other
    return total


def r_of_z(z, A1: RatSet, A2: RatSet) -> int:
    """Exact count of (a1, a1', a2, a2') with a1' + a2' = z (a1 + a2)."""
    return _r_from_hist(rep_histogram(A1, A2, "sum").counts, Fraction(z))


@dataclass(frozen=True)
class RatioProfile(Record):
    """Per-z counts over Z plus the two bound-ratio reports.

    R = sum of r(z)^2; sum_r = sum of r(z); zero_sums = #{(a1,a2): a1+a2=0},
    the diagonal that inflates every r(z) by its square.  The bound ratios
    are outward-rounded decimal intervals and only present when
    |A1| <= |A2| (the shape the bounds are stated for); None otherwise.
    """

    Z: RatSet
    r: dict
    R: int
    sum_r: int
    zero_sums: int
    lemma_ratio: Optional[tuple]
    theorem_ratio: Optional[tuple]


def ratio_profile(Z: RatSet, A1: RatSet, A2: RatSet) -> RatioProfile:
    """Full r profile of Z with the sum-bound and R-bound ratio reports.

    The reported denominators are
      sum_r: |Z|^(1/2) |A1|^(5/3) |A2|^(4/3) + |Z|^(2/3) |A1|^(4/3) |A2|^(4/3)
             + |Z| |A1|^2
      R:     |A1|^(10/3) |A2|^(8/3)
    """
    hist = rep_histogram(A1, A2, "sum").counts
    r_map = {z: _r_from_hist(hist, z) for z in Z}
    R = sum(c * c for c in r_map.values())
    sum_r = sum(r_map.values())
    zero_sums = hist.get(0, 0)
    lemma = theorem = None
    if len(A1) <= len(A2) and len(Z) > 0:
        nz, n1, n2 = len(Z), len(A1), len(A2)
        lemma = power_sum_ratio_decimal(
            sum_r,
            [
                [(nz, Fraction(1, 2)), (n1, Fraction(5, 3)), (n2, Fraction(4, 3))],
                [(nz, Fraction(2, 3)), (n1, Fraction(4, 3)), (n2, Fraction(4, 3))],
                [(nz, Fraction(1)), (n1, Fraction(2))],
            ],
        )
        theorem = power_sum_ratio_decimal(
            R, [[(n1, Fraction(10, 3)), (n2, Fraction(8, 3))]]
        )
    return RatioProfile(
        Z=Z, r=r_map, R=R, sum_r=sum_r, zero_sums=zero_sums,
        lemma_ratio=lemma, theorem_ratio=theorem,
    )


def _quotients(A1: RatSet, A2: RatSet, budget: int):
    """(scale, zs): each quotient z = s'/s of nonzero sums of A1 + A2 once,
    in ascending z, as (z*scale, weight), weight = sum of h(s) h(s') over
    its pairs of sums.  Charges |nonzero sums|^2 "sum pairs".

    No quotient becomes a Fraction.  With g the gcd of the sums and
    u = s/g, scale = lcm(|u|) and s'/s = u' (scale/u) / scale.  For each s
    these ints are monotone in s', so one merge of those |sums| runs makes
    equal quotients adjacent without a table of them.
    """
    hist = rep_histogram(A1, A2, "sum").counts
    sums = sorted(s for s in hist if s != 0)
    charge(len(sums) ** 2, budget, "sum pairs")
    g = gcd(*sums) or 1  # 0 only when there are no sums
    up = [(s // g, hist[s]) for s in sums]
    down = up[::-1]
    scale = lcm(*(u for u, _ in up))

    def run(u, h):
        m = scale // u
        return ((v * m, h * hv) for v, hv in (up if u > 0 else down))

    merged = heapq.merge(*(run(u, h) for u, h in up), key=itemgetter(0))
    return scale, ((k, sum(w for _, w in grp))
                   for k, grp in groupby(merged, key=itemgetter(0)))


def full_ratio_set(A1: RatSet, A2: RatSet,
                   budget: int = DEFAULT_BUDGET) -> RatSet:
    """All quotients of nonzero sums: {s'/s : s, s' in A1+A2, both != 0}.

    These are exactly the z whose r(z) exceeds the ever-present zero-sum
    diagonal contribution; z realized only through 0/0 pairs are excluded
    (every rational would qualify once a zero sum exists).  The keys come
    in order from `_quotients`, which charges |nonzero sums|^2.
    """
    scale, zs = _quotients(A1, A2, budget)
    return RatSet.from_ints([k for k, _ in zs], scale)


def popular_ratios(A1: RatSet, A2: RatSet, count: Optional[int] = None,
                   budget: int = DEFAULT_BUDGET) -> RatSet:
    """The `count` most popular ratios from the full ratio set.

    Ordered by r(z) descending, then z ascending, so the selection is
    deterministic; default count is |A1|^2, an explicit count must be >= 1.
    The candidates and weights come from `_quotients`; a weight is
    r(z) - h(0)^2, and the zero-sum diagonal adds h(0)^2 to every z alike,
    so it cannot change the order; z = 0 or z reached only through 0/0 are
    never candidates (as in `full_ratio_set`).  The quotients arrive
    z-ascending and the top-`count` pick is stable, so ties stay in z
    order.  Memory is O(|nonzero sums| + count); the merge's heap makes it
    slower than a table of every quotient would be.  The pass charges
    |nonzero sums|^2 against the budget.
    """
    if count is None:
        count = len(A1) ** 2
    elif count < 1:
        raise InvalidConfig(f"count must be >= 1, got {count}")
    scale, zs = _quotients(A1, A2, budget)
    top = heapq.nsmallest(count, zs, key=lambda kw: -kw[1])
    return RatSet.from_ints(sorted(k for k, _ in top), scale)
