"""Exact plane primitives: canonical lines, spans, line membership."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from addcomb.core import (
    LineKey,
    PlanePoint,
    canonical_line,
    line_through,
    point,
)
from addcomb.errors import DegeneratePair

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=6
)
points = st.builds(point, rationals, rationals)

# numerators near +-2^70 or small, reduced against denominators up to 10^6
_numerators = st.one_of(
    st.integers(-50, 50),
    st.integers(2**70 - 2**16, 2**70 + 2**16),
    st.integers(-(2**70) - 2**16, -(2**70) + 2**16),
)
wide_rationals = st.builds(Fraction, _numerators, st.integers(1, 10**6))
wide_points = st.builds(point, wide_rationals, wide_rationals)
int_points = st.builds(PlanePoint, _numerators, _numerators)
wide_lines = st.tuples(_numerators, _numerators, _numerators).filter(
    lambda t: t[:2] != (0, 0)).map(lambda t: canonical_line(*t))


def test_canonical_line_reduces_gcd():
    assert canonical_line(4, 6, 2) == LineKey(2, 3, 1)
    assert canonical_line(2, 3, 1) == LineKey(2, 3, 1)


def test_canonical_line_sign_rule():
    # first nonzero of (a, b) made positive
    assert canonical_line(-2, 4, 6) == LineKey(1, -2, -3)
    assert canonical_line(0, -5, 10) == LineKey(0, 1, -2)
    assert canonical_line(0, 3, 0) == LineKey(0, 1, 0)


def test_canonical_line_rejects_zero_normal():
    with pytest.raises(DegeneratePair):
        canonical_line(0, 0, 1)


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(min_value=1, max_value=9))
def test_canonical_line_scale_invariant(a, b, c, k):
    if a == 0 and b == 0:
        return
    base = canonical_line(a, b, c)
    assert canonical_line(k * a, k * b, k * c) == base
    assert canonical_line(-k * a, -k * b, -k * c) == base


def test_line_through_axis_diagonal():
    assert line_through(point(0, 0), point(1, 1)) == LineKey(1, -1, 0)
    assert line_through(point(0, 2), point(5, 2)) == LineKey(0, 1, 2)
    assert line_through(point(3, 0), point(3, 7)) == LineKey(1, 0, 3)


def test_line_through_coincident_raises():
    p = point(Fraction(1, 2), Fraction(-3, 4))
    with pytest.raises(DegeneratePair):
        line_through(p, p)


@given(points, points)
def test_line_through_contains_both_endpoints(p, q):
    if p == q:
        return
    li = line_through(p, q)
    assert li.contains(p) and li.contains(q)
    assert line_through(q, p) == li


def _on_line(li, p) -> bool:
    # the defining equation, evaluated in Fractions
    return li.a * Fraction(p.x) + li.b * Fraction(p.y) == li.c


@given(wide_lines, st.one_of(wide_points, int_points), wide_rationals)
def test_contains_matches_fraction_equation(li, p, t):
    # a drawn p is almost never on the line; the point `on`, solved from
    # the equation at parameter t, always is
    if li.b:
        on = point(t, (li.c - li.a * t) / li.b)
    else:
        on = point(Fraction(li.c, li.a), t)
    assert _on_line(li, on)
    for pt in (p, on):
        assert li.contains(pt) == _on_line(li, pt)


@given(wide_points, wide_points, wide_rationals, st.integers(1, 10**6))
def test_contains_points_built_on_the_line(p, q, t, d):
    if p == q:
        return
    li = line_through(p, q)
    # r = p + t (q - p) is on the line; nudging r.y by 1/d leaves it unless
    # the line is vertical (b == 0), where only x matters
    r = point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
    off = point(r.x, r.y + Fraction(1, d))
    assert li.contains(p) and li.contains(q) and li.contains(r)
    assert li.contains(off) == (li.b == 0)


def test_contains_int_coordinates():
    li = line_through(point(0, 7), point(7, 0))
    assert li == LineKey(1, 1, 7)
    assert li.contains(PlanePoint(3, 4))
    assert not li.contains(PlanePoint(3, 5))


@given(points, points, points)
def test_collinear3_matches_line_membership(p, q, r):
    if p == q:
        return
    # (q - p) x (r - p) == 0 iff r is on the line through p and q
    collinear = (q.x - p.x) * (r.y - p.y) == (r.x - p.x) * (q.y - p.y)
    assert collinear == line_through(p, q).contains(r)


def test_point_accepts_mixed_inputs():
    assert point("1/2", 3) == point(Fraction(1, 2), Fraction(3))
