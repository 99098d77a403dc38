"""Each counting kernel must agree with a different algorithm.

No kernel is checked against a second copy of itself:

- collinear_six_counts: its total equals the shift identity, a sum over
  pivots (a1, a2) of mul_pairs_cross on shifted lists, and its distinct
  count equals the pivot-direction t_o_linehash;
- t_o_linehash: equals the line census `_spanned_lines`, on random small
  lists and at sizes where the n^6 brute force is too slow;
- mul_pairs_count and mul_pairs_cross: equal a direct quadruple loop;
- count_incidences, through incidence.incidences: equals a Fraction
  recount, on points with non-integer coordinates.

Inputs are small signed ints, mapped by x -> s*x + t with s and t far past
int64 as well, where every kernel must stay exact.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import _kernels, _kernels_py
from addcomb.core import canonical_line, line_through, point
from addcomb.incidence import Arrangement, incidences

ints = st.integers(-300, 300)
int_lists = st.lists(ints, min_size=1, max_size=6, unique=True)
# signed lists that always hold 0 and a negative value
signed_lists = st.tuples(int_lists, st.integers(-300, -1)).map(
    lambda t: sorted(set(t[0]) | {0, t[1]}))
scales = st.sampled_from([1, 2**28 + 1, 2**61 - 1])
# x -> s*x + t keeps which grid points are collinear, far past int64
affine_maps = st.tuples(scales, st.integers(-2**70, 2**70))
fracs = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


def _affine(xs, m):
    s, t = m
    return [s * x + t for x in xs]


@given(int_lists, int_lists, int_lists, affine_maps)
@settings(max_examples=60, deadline=None)
def test_collinear_six_counts_equivalent(a, b, c, m):
    a, b, c = _affine(a, m), _affine(b, m), _affine(c, m)
    total, distinct = _kernels.collinear_six_counts(a, b, c)
    assert total == sum(
        _kernels_py.mul_pairs_cross([x - a1 for x in b], [x - a2 for x in b],
                                    [x - a1 for x in c], [x - a2 for x in c])
        for a1 in a for a2 in a)
    assert distinct == _kernels.t_o_linehash(a, b, c)


def _census_t_o(g1, g2, g3):
    return sum(d for *_, d in _kernels_py._spanned_lines(g1, g2, g3))


@given(int_lists, int_lists, int_lists, affine_maps)
@settings(max_examples=40, deadline=None)
def test_t_o_linehash_equivalent(a, b, c, m):
    a, b, c = _affine(a, m), _affine(b, m), _affine(c, m)
    assert _kernels.t_o_linehash(a, b, c) == _census_t_o(a, b, c)


def _sample(seed, n, lo, hi):
    return random.Random(seed).sample(range(lo, hi), n)


def test_t_o_pivot_matches_line_census_above_brute_sizes():
    # n = 8..12, where the n^6 brute force is too slow for a test
    ap10 = list(range(10))
    r12 = _sample(1, 12, -20, 20)
    b11 = ap10[4:] + _sample(2, 6, 10, 40)
    c9 = ap10[:5] + [-3, 11, 12, 13]
    cases = [
        (ap10, ap10, ap10),                       # equal grids
        (r12, r12, r12),
        (_sample(3, 8, -10, 10), b11, b11),       # A2 = A3 != A1
        (ap10[1:9], b11, b11),
        (c9, b11, c9),                            # A1 = A3 != A2
        (ap10[2:], b11, c9),                      # partial overlaps
        (r12, _sample(4, 11, -20, 20), _sample(5, 9, -20, 20)),
    ]
    inside = outside = 0
    for g1, g2, g3 in cases:
        assert 8 <= min(map(len, (g1, g2, g3))) <= max(map(len, (g1, g2, g3))) <= 12
        shared = set(g2) & set(g3)
        pivots_in = sum(x in shared and y in shared for x in g1 for y in g1)
        inside += pivots_in
        outside += len(g1) ** 2 - pivots_in
        assert _kernels_py.t_o_linehash(g1, g2, g3) == _census_t_o(g1, g2, g3)
    assert inside and outside


@given(st.lists(st.tuples(fracs, fracs), min_size=1, max_size=12, unique=True),
       st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9),
                          st.integers(-20, 20))
                .filter(lambda t: (t[0], t[1]) != (0, 0)),
                max_size=8),
       scales)
@settings(max_examples=40, deadline=None)
def test_count_incidences_equivalent(coords, lines, s):
    # lines through consecutive points make incidences, and collinear
    # points make lines with more than two
    pts = [point(s * x, s * y) for x, y in coords]
    lns = {canonical_line(a, b, s * c) for a, b, c in lines}
    lns |= {line_through(p, q) for p, q in zip(pts, pts[1:])}
    arr = Arrangement.build(pts, lns)
    assert incidences(arr) == sum(
        l.contains(p) for l in arr.lines for p in arr.points)


@given(signed_lists, signed_lists, signed_lists, signed_lists, scales)
@settings(max_examples=60, deadline=None)
def test_mul_pairs_cross_is_pure_only(x1, x2, y1, y2, s):
    # the cross variant backs the identity check; it must match a direct
    # quadruple loop, zeros and negative values included
    x1, x2, y1, y2 = ([s * v for v in xs] for xs in (x1, x2, y1, y2))
    direct = sum(
        1
        for a in x1 for b in x2 for c in y1 for d in y2
        if a * d == b * c
    )
    assert _kernels_py.mul_pairs_cross(x1, x2, y1, y2) == direct


@given(signed_lists, signed_lists, scales)
@settings(max_examples=60, deadline=None)
def test_mul_pairs_count_equivalent(x, y, s):
    # the diagonal mul_pairs_count shares the cross variant's matching
    # step and must match a direct quadruple loop as well
    x, y = [s * v for v in x], [s * v for v in y]
    direct = sum(
        1
        for a in x for b in x for c in y for d in y
        if a * d == b * c
    )
    assert _kernels.mul_pairs_count(x, y) == direct
