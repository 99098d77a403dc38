"""Exact plane geometry over the rationals.

Everything downstream (incidence counts, collinear triple counts, line
statistics) reduces to the primitives here: points with exact rational
coordinates, lines in canonical integer form, and line membership, which
cross-multiplies the point's own denominators into the integer line equation
instead of building Fractions.  All functions are pure; no floats are ever
involved in a decision.  `charge` is the package's one `--budget` check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import BudgetExceeded, DegeneratePair
from .sets import as_fraction

# Default work budget for the brute-force counters, measured in elementary
# tuple checks.  Callers can raise or lower it per call.
DEFAULT_BUDGET = 10**9


def charge(units: int, budget: int, what: str) -> None:
    """The one budget rule: refuse work of `units` above `budget`.

    Every super-quadratic path states its cost in units of `what` and calls
    this before doing the work; BudgetExceeded names both numbers.
    """
    if units > budget:
        raise BudgetExceeded(f"{units} {what} exceed budget {budget}")


class PlanePoint(NamedTuple):
    x: Fraction
    y: Fraction


class LineKey(NamedTuple):
    """Line a*x + b*y = c in canonical integer form.

    Canonical means: (a, b) != (0, 0), gcd(|a|, |b|, |c|) == 1, and the first
    nonzero of (a, b) is positive.  Two LineKeys are equal iff the lines are
    equal as point sets, so the tuple is safe to hash on.
    """

    a: int
    b: int
    c: int

    def contains(self, p: PlanePoint) -> bool:
        """a*x + b*y == c, cross-multiplied by the positive denominators.

        With x = xn/xd and y = yn/yd in lowest terms the test is
        a*xn*yd + b*yn*xd == c*xd*yd: exact, and no Fraction is built.
        Int coordinates work too (their denominator is 1).
        """
        x, y = p
        xd, yd = x.denominator, y.denominator
        return self.a * x.numerator * yd + self.b * y.numerator * xd == self.c * xd * yd


def canonical_triple(a: int, b: int, c: int) -> tuple:
    """The canonical form of the integer triple (a, b, c) as a plain tuple:
    divided by gcd(a, b, c) and signed so that the first nonzero of (a, b)
    is positive.  (a, b) must be nonzero.  This is the one home of the
    rule; batches of lines, as the incidence suite draws, map it directly."""
    if a == 0 and b == 0:
        raise DegeneratePair("normal vector (a, b) must be nonzero")
    g = gcd(a, b, c)
    if a < 0 or (a == 0 and b < 0):
        g = -g
    return a // g, b // g, c // g


def canonical_line(a: int, b: int, c: int) -> LineKey:
    """Reduce an integer triple to the canonical LineKey. (a, b) must be nonzero."""
    return LineKey._make(canonical_triple(a, b, c))


def line_through(p: PlanePoint, q: PlanePoint) -> LineKey:
    """Canonical line through two distinct points; DegeneratePair if p == q."""
    if p == q:
        raise DegeneratePair(f"coincident points {p}")
    # Normal (a, b) = (qy - py, px - qx); c fixed by passing through p.
    a_f = q.y - p.y
    b_f = p.x - q.x
    c_f = a_f * p.x + b_f * p.y
    # Clear denominators to reach an integer triple.
    m = lcm(a_f.denominator, b_f.denominator, c_f.denominator)
    return canonical_line(int(a_f * m), int(b_f * m), int(c_f * m))


def point(x, y) -> PlanePoint:
    """The point (x, y), each coordinate a rational by the rule of `sets._num_den`."""
    return PlanePoint(as_fraction(x), as_fraction(y))
