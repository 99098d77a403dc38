"""Point-line incidences, the explicit 4/4/1 bound, rich lines."""

from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import incidence
from addcomb._kernels_py import _line_census, _multiplicity_from_pairs
from addcomb.core import canonical_line, line_through, point
from addcomb.errors import InvalidConfig
from addcomb.incidence import (
    Arrangement,
    line_moment_sums,
    incidences,
    read_arrangement,
    rich_lines,
    scaled_incidences,
    spanned_line_multiplicities,
    st_bound_check,
    st_bound_holds,
    write_arrangement,
)
from addcomb.sets import RatSet, SplitMix64, integerize


def _grid_arrangement(n: int, slopes) -> Arrangement:
    pts = [point(x, y) for x in range(n) for y in range(n)]
    lines = []
    for m in slopes:
        for c in range(-2 * n, 2 * n + 1):
            lines.append(canonical_line(m, -1, -c))  # y = m x + c
    return Arrangement.build(pts, lines)


def test_incidences_direct_recount():
    arr = _grid_arrangement(4, [0, 1, -1])
    direct = sum(1 for li in arr.lines for p in arr.points if li.contains(p))
    assert incidences(arr) == direct


def test_incidences_empty_cases():
    assert incidences(Arrangement.build([], [canonical_line(1, 0, 0)])) == 0
    assert incidences(Arrangement.build([point(0, 0)], [])) == 0


def test_arrangement_dedupes():
    arr = Arrangement.build([point(0, 0), point(0, 0)],
                            [canonical_line(2, 0, 0), canonical_line(1, 0, 0)])
    assert len(arr.points) == 1 and len(arr.lines) == 1


def test_st_bound_grid():
    arr = _grid_arrangement(5, [0, 1])
    rep = st_bound_check(arr)
    assert rep.ok
    assert rep.count == incidences(arr)
    assert rep.n_points == 25
    assert Fraction(rep.bound_lo) <= Fraction(rep.bound_hi)


@settings(max_examples=30)
@given(st.integers(0, 10**6))
def test_st_bound_random_arrangements(seed):
    rng = SplitMix64(seed)
    pts = [point(rng.below(30), rng.below(30)) for _ in range(1 + rng.below(60))]
    lines = []
    for _ in range(1 + rng.below(60)):
        a, b = rng.below(11) - 5, rng.below(11) - 5
        if a == 0 and b == 0:
            a = 1
        lines.append(canonical_line(a, b, rng.below(41) - 20))
    arr = Arrangement.build(pts, lines)
    rep = st_bound_check(arr)
    assert rep.ok
    assert rep.ok == st_bound_holds(incidences(arr), len(arr.points), len(arr.lines))


def test_st_bound_extremal_grid_has_positive_surplus():
    # P = [k] x [2k^2] and the lines y = a x + b, a in [k], b in [k^2]: each
    # line meets P in k points, so I = k^4 = 10000 at k = 10 against
    # 4|P| + |L| = 9k^3; the surplus +1000 reaches the cubed comparison
    k = 10
    pts = [(x, y) for x in range(1, k + 1) for y in range(1, 2 * k * k + 1)]
    lines = [canonical_line(a, -1, -b) for a in range(1, k + 1) for b in range(1, k * k + 1)]
    rep = st_bound_check(Arrangement.build([point(x, y) for x, y in pts], lines))
    assert rep.count == k**4
    assert scaled_incidences(pts, lines) == k**4
    assert (rep.n_points, rep.n_lines) == (2 * k**3, k**3)
    assert rep.count - 4 * rep.n_points - rep.n_lines == 1000
    assert rep.ok and st_bound_holds(rep.count, rep.n_points, rep.n_lines)


@pytest.mark.parametrize("n_points, n_lines, t",
                         [(1, 1, 1), (8, 1, 2), (2, 4, 2), (9, 3, 3), (125, 27, 15)])
def test_st_bound_holds_exactly_at_equality(n_points, n_lines, t):
    # P L = t^3 makes the bound an integer: surplus s = 4 t^2 gives
    # s^3 = 64 (P L)^2, which holds, and one incidence more does not
    assert t**3 == n_points * n_lines
    count = 4 * t * t + 4 * n_points + n_lines
    assert st_bound_holds(count, n_points, n_lines)
    assert not st_bound_holds(count + 1, n_points, n_lines)


def test_arrangement_file_roundtrip(tmp_path):
    arr = _grid_arrangement(3, [1])
    path = tmp_path / "arr.json"
    write_arrangement(path, arr)
    back = read_arrangement(path)
    assert back == arr


def test_arrangement_with_a_wide_coefficient_is_refused_when_written():
    arr = Arrangement.build([], [canonical_line(10**5000, 1, 3)])
    with pytest.raises(InvalidConfig, match="more than 4300 digits"):
        arr.to_json()
    assert Arrangement.build([], [canonical_line(-4, 2, 6)]).to_json()["lines"] == [
        ["2", "-1", "-3"]]


@pytest.mark.parametrize("line", [
    [3.9, 1, 0], [True, 1, 0], ["3.0", "1", "0"], ["1/2", "1", "0"],
    [" 3", "1", "0"], ["1_0", "1", "0"], [None, 1, 0],
], ids=["float", "bool", "decimal-string", "rational-string", "space",
        "underscore", "null"])
def test_arrangement_line_coefficients_parse_strictly(line):
    # ints (not bools) and integer strings only: nothing is truncated to
    # an int or read as 0 or 1
    assert Arrangement.from_json({"points": [], "lines": [["3", 1, "-0"]]}).lines == {
        canonical_line(3, 1, 0)}
    with pytest.raises(InvalidConfig, match="line coefficient"):
        Arrangement.from_json({"points": [], "lines": [line]})


@pytest.mark.parametrize("doc", [
    {"points": ["12"], "lines": []}, {"points": [], "lines": ["103"]},
    {"points": [[1, 2, 3]], "lines": []}, {"points": [], "lines": [[1, 0]]},
    {"points": {"12": 1}, "lines": []}, {"points": [(1, 2)], "lines": []},
], ids=["string-point", "string-line", "long-point", "short-line", "object", "tuple"])
def test_arrangement_rows_are_lists_of_two_or_three(doc):
    # a JSON string is read as given, not as the characters of a row
    with pytest.raises(InvalidConfig, match="each point must be a list"):
        Arrangement.from_json(doc)


def test_spanned_line_multiplicities_square():
    # unit square: 4 side/diagonal... all 6 spanned lines, each by one pair
    pts = [point(0, 0), point(0, 1), point(1, 0), point(1, 1)]
    mult = spanned_line_multiplicities(pts)
    assert len(mult) == 6
    assert all(m == 2 for m in mult.values())


def test_spanned_line_multiplicities_collinear_run():
    pts = [point(i, i) for i in range(4)]
    mult = spanned_line_multiplicities(pts)
    assert mult == {canonical_line(1, -1, 0): 4}


coords = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@given(st.lists(st.tuples(coords, coords), max_size=8), st.integers(0, 5),
       st.tuples(coords, coords), st.integers(1, 10**12), st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_spanned_line_multiplicities_match_fraction_route(xys, run, step, num, den):
    # random points, a collinear run of `run` points from the first one,
    # and duplicates, all scaled by num/den; the Fraction route spans each
    # distinct pair with line_through
    pts = [point(x, y) for x, y in xys]
    if pts:
        pts += [point(pts[0].x + k * step[0], pts[0].y + k * step[1]) for k in range(run)]
    pts += pts[:3]
    scale = Fraction(num, den)
    pts = [point(p.x * scale, p.y * scale) for p in pts]
    pairs = Counter(line_through(p, q) for p, q in combinations(set(pts), 2))
    expected = {key: _multiplicity_from_pairs(c) for key, c in pairs.items()}
    assert spanned_line_multiplicities(pts) == expected


def test_rich_lines_grid():
    pts = [point(x, y) for x in range(3) for y in range(3)]
    rich3 = rich_lines(pts, 3)
    # 3 rows + 3 columns + 2 long diagonals contain >= 3 grid points
    assert len(rich3) == 8
    for li in rich3:
        assert sum(1 for p in pts if li.contains(p)) >= 3
    with pytest.raises(InvalidConfig):
        rich_lines(pts, 1)


def test_line_stats_shape_validation():
    a, b = RatSet([1, 2]), RatSet([1, 2, 3])
    with pytest.raises(InvalidConfig):
        line_moment_sums(b, a, b, 1)  # not sorted by size


@pytest.mark.parametrize("family", ["triple", "pairs"])
def test_line_moment_sums_refuses_empty_sets(family):
    empty, a = RatSet([]), RatSet([1, 2])
    for sets in [(empty, empty, empty), (empty, a, a)]:
        with pytest.raises(InvalidConfig, match="nonempty"):
            line_moment_sums(*sets, 2, family)


def test_line_moment_sums_small_grid():
    a = RatSet([0, 1])
    rep = line_moment_sums(a, a, a, 1, "triple")
    assert rep.p == 1 and rep.family == "triple"
    assert len(rep.sums) == 3 and len(rep.ratios) == 3
    # alphas on the triple family are symmetric here: identical grids
    assert rep.sums[0] == rep.sums[1] == rep.sums[2]
    with pytest.raises(InvalidConfig):
        line_moment_sums(a, a, a, 4)
    with pytest.raises(InvalidConfig):
        line_moment_sums(a, a, a, 2, "stars")


def test_line_moment_sums_alpha_identity():
    # for identical 2x2 grids, every line of the triple family meets the
    # grid in alpha points shared across the three copies; p=1 sums the
    # alphas, p=3 the cubes, so p=3 >= p=1 termwise
    a = RatSet([0, 1, 2])
    s1 = line_moment_sums(a, a, a, 1).sums
    s3 = line_moment_sums(a, a, a, 3).sums
    assert all(x3 >= x1 for x1, x3 in zip(s1, s3))


signed_sets = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
                       min_size=1, max_size=4, unique=True).map(RatSet)


@given(st.lists(signed_sets, min_size=3, max_size=3).map(lambda t: sorted(t, key=len)),
       st.sampled_from([1, 2, 3]))
@settings(max_examples=40, deadline=None)
def test_line_moment_sums_triple_brute_recount(sets, p):
    # alpha_i recounted directly on every line through a pairwise-distinct
    # collinear triple (u1, u2, u3), u_i in A_i x A_i
    grids = [[point(x, y) for x in A for y in A] for A in sets]
    lines = {
        line_through(u1, u2)
        for u1 in grids[0] for u2 in grids[1] if u1 != u2
        for u3 in grids[2] if u3 != u1 and u3 != u2 and line_through(u1, u2).contains(u3)
    }
    alphas = [[sum(1 for u in g if li.contains(u)) for g in grids] for li in lines]
    expected = tuple(sum(al[i] ** p for al in alphas if al[i] >= 2) for i in range(3))
    assert line_moment_sums(*sets, p, "triple").sums == expected


@given(st.lists(signed_sets, min_size=3, max_size=3).map(lambda t: sorted(t, key=len)),
       st.sampled_from([1, 2, 3]))
@settings(max_examples=40, deadline=None)
def test_line_moment_sums_pairs_brute_recount(sets, p):
    # alpha recounted directly on every line through a distinct pair of
    # A x A, for each grid on its own
    expected = []
    for A in sets:
        grid = [point(x, y) for x in A for y in A]
        lines = {line_through(u, v) for u, v in combinations(grid, 2)}
        expected.append(sum(sum(1 for u in grid if li.contains(u)) ** p for li in lines))
    assert line_moment_sums(*sets, p, "pairs").sums == tuple(expected)


def test_line_moment_sums_pairs_builds_one_census_per_distinct_grid(monkeypatch):
    # equal sets integerize to equal grids, and each distinct grid takes
    # one census; the sums equal one census per grid, grid by grid
    calls = []

    def spy(points):
        calls.append(1)
        return _line_census(points)

    monkeypatch.setattr(incidence, "_line_census", spy)
    a = RatSet([Fraction(-1, 2), 0, 1, 2])
    b = RatSet([0, 1, Fraction(3, 2), 2, 5])
    c = RatSet([-3, -1, 0, 1, 2, 4])
    cases = [((a, a, a), 1), ((a, RatSet(list(a)), a), 1), ((a, b, b), 2), ((a, a, c), 2),
             ((a, b, c), 3)]
    for sets, censuses in cases:
        for p in (1, 2, 3):
            calls.clear()
            sums = line_moment_sums(*sets, p, "pairs").sums
            assert len(calls) == censuses
            assert sums == tuple(sum(m ** p for m in _line_census(product(v, v)).values())
                                 for v in integerize(*sets)[1])
