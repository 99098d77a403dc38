"""Each counting kernel must agree with a different algorithm.

No kernel is checked against a second copy of itself:

- collinear_six_counts: its total equals the shift identity, a sum over
  pivots (a1, a2) of mul_pairs_cross on shifted lists, and its distinct
  count equals the ratio-histogram t_o_linehash;
- t_o_linehash: equals the line census `_spanned_lines`, on random small
  lists (and on three copies of one, where `_spanned_lines` reads
  `_line_census`: the scan of its unequal route recounts each line, and
  at n <= 5 the brute 6-tuple count its total), on first grids with
  points of all four membership classes (x in A2?, x in A3?) that its
  closed form sums over, and at sizes where the n^6 brute force is too
  slow; Farey neighbours among the ratio denominators pin its m >= D**2.  Its orbit route for three equal grids
  also equals the ratio tally of every (x, a2, a3) on the same grids, on
  signed sets, APs and their affine images in any order, and the nearest
  pairs of orbit invariants show that its m = D**4 cannot drop to D**2;
- mul_pairs_count and mul_pairs_cross: equal a direct quadruple loop, and
  when the rectangles x1 * y2 and x2 * y1 hold the same products, as for
  every mul_pairs_count and on the diagonal (y1, y2) == (x1, x2), build
  one product histogram, not two; with one list on all four sides, that
  histogram holds only the C(n, 2) products i < j, and the n squares are
  tallied apart.
  mul_pairs_count tallies products, while the ratio histogram of
  `sets.int_keys` keys a/b by the exact int a*(lcm(b)/b), so the "E_mul
  hist vs product form" check of the benchmark compares two different
  routes;
- count_incidences (packed slots): equals a direct double loop on raw
  parallel arrays (duplicate points and lines, non-reduced lines, a = 0 or
  b = 0, magnitudes up to 2**70, largest |aX + bY - c| at the slot-width
  boundaries), and through incidence.incidences a Fraction recount, on
  points with non-integer coordinates.

Inputs are small signed ints, mapped by x -> s*x + t with s and t far past
int64 as well, where every kernel must stay exact (the ratio keys of the
2**61-scaled lists reach about 2**210).
"""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import _kernels, _kernels_py
from addcomb.core import canonical_line, line_through, point
from addcomb.energy import energy, energy_mul_product_form
from addcomb.incidence import Arrangement, incidences
from addcomb.sets import RatSet

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
    # equal grids read the line census of one grid: the unequal route's
    # scan recounts each line's points, and the brute count the total
    lines, g = list(_kernels_py._spanned_lines(a, a, a)), set(a)
    for x, y, z, n1, *_ in lines:
        assert n1 == len(_kernels_py._points_on_line(x, y, z, g))
    census = sum(d for *_, d in lines)
    assert census == _kernels.t_o_linehash(a, a, a)
    if len(a) <= 5:
        assert census == _kernels.collinear_six_counts(a, a, a)[1]


@st.composite
def membership_classes(draw):
    # A1 holds a point of each class (in neither of A2 and A3, in A2 only,
    # in A3 only, in both), and A2 and A3 may hold points outside A1
    pool = draw(st.lists(ints, min_size=4, max_size=9, unique=True))
    a1, a2, a3 = [], [], []
    for i, v in enumerate(pool):
        cls = i if i < 4 else draw(st.integers(0, 3))
        if i < 4 or draw(st.booleans()):
            a1.append(v)
        if cls in (1, 3):
            a2.append(v)
        if cls in (2, 3):
            a3.append(v)
    return a1, a2, a3


@given(membership_classes(), affine_maps)
@settings(max_examples=80, deadline=None)
def test_t_o_linehash_over_all_membership_classes(grids, m):
    a, b, c = (_affine(g, m) for g in grids)
    t_o = _kernels.t_o_linehash(a, b, c)
    assert t_o == _census_t_o(a, b, c)
    if max(map(len, (a, b, c))) <= 5:
        assert t_o == _kernels.collinear_six_counts(a, b, c)[1]


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
    classes = set()
    for g1, g2, g3 in cases:
        assert 8 <= min(map(len, (g1, g2, g3))) <= max(map(len, (g1, g2, g3))) <= 12
        classes |= {(x in g2, x in g3) for x in g1}
        assert _kernels_py.t_o_linehash(g1, g2, g3) == _census_t_o(g1, g2, g3)
    # the closed form of t_o_linehash meets every membership class
    assert len(classes) == 4


@st.composite
def equal_grids(draw):
    # n = 0..12 signed values, or an AP, whose 3-term sub-APs all share
    # the invariant lambda = 1/4, in a drawn order
    n = draw(st.integers(0, 12))
    if draw(st.booleans()):
        start, step = draw(ints), draw(st.integers(1, 20))
        vals = [start + i * step for i in range(n)]
    else:
        vals = draw(st.lists(ints, min_size=n, max_size=n, unique=True))
    return draw(st.permutations(vals))


@given(equal_grids(), affine_maps)
@settings(max_examples=100, deadline=None)
def test_t_o_orbit_tally_on_equal_grids(g, m):
    # three orders of one set take the orbit route; the ratio tally of
    # every (x, a2, a3) and the line census recount it
    g = _affine(g, m)
    t_o = _kernels.t_o_linehash(g, g[::-1], sorted(g))
    assert t_o == _kernels_py._ratio_tally(g, g, g)
    assert t_o == _census_t_o(g, g, g)


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


def _farey_pairs(d):
    # slopes 1/d, 1/(d-1) and (d-1)/d, (d-2)/(d-1): neighbours in the Farey
    # sequence of order d, so they differ by 1/(d (d-1)), about 1/D**2
    return [((d, 1), (d - 1, 1)), ((d, d - 1), (d - 1, d - 2))]


def test_ratio_keys_need_m_at_least_d_squared():
    # t_o_linehash keys a ratio (a2 - x)/(a3 - x) by ((a2 - x) m) // (a3 - x),
    # and its denominators reach the span D.  A Farey pair of slopes v/u,
    # v2/u2 makes the ratios a2/a3 and b2/b3 from the pivot (0, 0), whose
    # points (v, v2) and (u, u2) are not collinear with it: m = D**2 keeps
    # their keys apart, while m = D**2 / 4 merges some of them
    merged = 0
    for d in range(3, 41):
        for (u, v), (u2, v2) in _farey_pairs(d):
            merged += v * (d * d // 4) // u == v2 * (d * d // 4) // u2
            g2, g3 = sorted({0, v, v2}), [0, u2, u]
            t_o = _kernels.t_o_linehash([0], g2, g3)
            assert t_o == _census_t_o([0], g2, g3)
            assert t_o == _kernels.collinear_six_counts([0], g2, g3)[1]
        # the grid {0, 1, d-2, d-1, d} spans d and holds both Farey pairs
        # from the pivot (0, 0); the unequal triples keep the span at d
        g = sorted({0, 1, d - 2, d - 1, d})
        assert _kernels_py._ratio_tally(g, g, g) == _census_t_o(g, g, g)
        h = sorted({0, 2, d - 1})
        assert _kernels.t_o_linehash(h, g, g) == _census_t_o(h, g, g)
        assert _kernels.t_o_linehash(g, h, g) == _census_t_o(g, h, g)
    assert merged


def _closest_orbit_pair(d):
    # gap pairs (a, b) and (a2, b2), a + b <= d, of 3-sets {u, u + a,
    # u + a + b} whose invariants lambda = a b/(a + b)**2 are the two
    # nearest distinct ones at span d
    lams = {Fraction(a * b, (a + b) ** 2): (a, b)
            for b in range(1, d) for a in range(1, min(b, d - b) + 1)}
    ls = sorted(lams)
    l1, l2 = min(zip(ls, ls[1:]), key=lambda pair: pair[1] - pair[0])
    return lams[l1], lams[l2]


def test_orbit_keys_need_m_at_least_d_to_the_fourth():
    # the orbit route keys lambda = (v - u)(w - v)/(w - u)**2 by
    # ((v - u)(w - v) m) // (w - u)**2.  The grid below spans d and holds
    # both 3-sets of the nearest pair of invariants: m = D**4 keeps their
    # keys apart, while m = D**2 merges them at d = 5 and every even d >= 8
    merged = 0
    for d in range(5, 31):
        (a, b), (a2, b2) = _closest_orbit_pair(d)

        def keys(m):
            return [x * y * m // (x + y) ** 2 for x, y in ((a, b), (a2, b2))]

        assert len(set(keys(d**4))) == 2
        merged += len(set(keys(d**2))) == 1
        g = sorted({0, a, a + b, d - a2 - b2, d - b2, d})
        t_o = _kernels.t_o_linehash(g, g, g)
        assert t_o == _kernels_py._ratio_tally(g, g, g) == _census_t_o(g, g, g)
    assert merged


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


def _check_raw_incidences(pts, lines):
    # the kernel on parallel arrays against a direct double loop
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    las, lbs, lcs = ([l[i] for l in lines] for i in range(3))
    count = _kernels.count_incidences(xs, ys, las, lbs, lcs)
    assert count == sum(a * x + b * y == c for a, b, c in lines for x, y in pts)
    return count


@st.composite
def raw_incidence_arrays(draw):
    # magnitudes from tiny to 2**70; coefficients may be 0 and lines are
    # often through a point (or off it by 1), scaled by g to be non-reduced
    m = draw(st.sampled_from([3, 2**20, 2**70]))
    coord = st.integers(-m, m)
    coef = st.one_of(st.just(0), st.integers(-3, 3), coord)
    pts = draw(st.lists(st.tuples(coord, coord), max_size=8))
    pts += pts[:draw(st.integers(0, 3))]
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(coef), draw(coef)
        if pts and draw(st.booleans()):
            x, y = draw(st.sampled_from(pts))
            c = a * x + b * y + draw(st.integers(-1, 1))
        else:
            c = draw(coord)
        g = draw(st.sampled_from([1, 2, 6]))
        lines.append((g * a, g * b, g * c))
    lines += lines[:draw(st.integers(0, 2))]
    return pts, lines


@given(raw_incidence_arrays())
@settings(max_examples=200, deadline=None)
def test_count_incidences_matches_double_loop(arrays):
    _check_raw_incidences(*arrays)


@given(st.lists(st.tuples(st.integers(-2**70, 2**70), st.integers(-3, 3)),
                min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1,
                max_size=4))
@settings(max_examples=60, deadline=None)
def test_count_incidences_horizontal_lines_far_out(pts, bcs):
    # every line has a = 0, so the lines alone bound |aX + bY - c| by a few
    # units while |X| is near 2**70: the slots must still hold X + max|X|
    _check_raw_incidences(pts, [(0, b, c) for b, c in bcs])


def test_count_incidences_at_slot_width_boundaries():
    for k in range(4, 73):
        for d in (2**k - 1, 2**k):
            # line x + y = 2m - d; |X|, |Y| <= m, and (m, m) is d from it
            m = d // 3
            c = 2 * m - d
            on = [(-m, c + m), (-m, c + m), (1 - m, c + m - 1)]
            off = [(-m, c + m + 1), (-m, c + m - 1), (m, m), (m, m - 1), (-m, -m)]
            for sign in (1, -1):
                pts = [(sign * x, sign * y) for x, y in on + off]
                line = (1, 1, sign * c)
                assert max(abs(x + y - line[2]) for x, y in pts) == d
                assert _check_raw_incidences(pts, [line, line]) == 2 * len(on)
            # a horizontal line with |X| = d: only the 2 max|X| term widens
            # the slots past the line bound of 1
            assert _check_raw_incidences(
                [(d, 0), (-d, 0), (d, 1), (-d, -1)], [(0, 1, 0)]) == 2
    assert _kernels.count_incidences([], [], [1], [0], [0]) == 0
    assert _kernels.count_incidences([1], [2], [], [], []) == 0


@given(signed_lists, signed_lists, scales)
@settings(max_examples=60, deadline=None)
def test_mul_pairs_count_equivalent(x, y, s):
    # the diagonal mul_pairs_count shares the cross variant's matching
    # step and must match a direct quadruple loop as well, also with one
    # list on all four sides, where it tallies the products i < j and the
    # squares apart
    x, y = [s * v for v in x], [s * v for v in y]
    for y in (y, list(x)):
        direct = sum(
            1
            for a in x for b in x for c in y for d in y
            if a * d == b * c
        )
        assert _kernels.mul_pairs_count(x, y) == direct


def test_product_pairs_builds_one_counter_on_the_diagonal(monkeypatch):
    # both sides of a*d == b*c tally one product Counter each, x1 * y2 and
    # x2 * y1; when those rectangles match, one Counter serves both, and
    # when one list is on all four sides, it tallies the products i < j
    # and a second Counter the squares
    calls = []

    class Spy(Counter):
        def __init__(self, products):
            products = list(products)
            calls.append(sorted(products))
            super().__init__(products)

    monkeypatch.setattr(_kernels_py, "Counter", Spy)

    def direct(x1, x2, y1, y2):
        return sum(1 for a in x1 for b in x2 for c in y1 for d in y2 if a * d == b * c)

    def products(xs, ys):
        return sorted(x * y for x in xs for y in ys)

    a = [-3, 0, 1, 2, 4, 6]
    b = [0, 2, 3, 5]
    assert _kernels_py.mul_pairs_count(a, list(a)) == direct(a, a, a, a)
    # C(6, 2) = 15 products i < j, then the 6 squares
    assert calls == [sorted(x * y for i, x in enumerate(a) for y in a[i + 1:]),
                     sorted(x * x for x in a)]
    calls.clear()
    # x1 * y2 and x2 * y1 are both a * b
    assert _kernels_py.mul_pairs_count(a, b) == direct(a, a, b, b)
    assert calls == [products(a, b)]
    calls.clear()
    assert _kernels_py.mul_pairs_cross(a, b, a, b) == direct(a, b, a, b)
    assert calls == [products(a, b)]
    calls.clear()
    assert _kernels_py.mul_pairs_cross(a, b, b, a) == direct(a, b, b, a)
    assert calls == [products(a, a), products(b, b)]
    calls.clear()
    # the multiplicative energy E(A, A) of the energy-sweep benchmark
    A = RatSet([Fraction(-5, 3), Fraction(1, 2), 2, 3, 6])
    assert energy_mul_product_form(A, A) == energy(A, A, 2, "multiplicative")
    assert [len(c) for c in calls] == [10, 5]
