"""Point-line incidences, rich lines, and line-family moment sums.

Incidences are counted on integers: the point coordinates are scaled by a
common denominator m, each line constant c becomes m*c, and the integer
kernel `_kernels_py.count_incidences` tests aX + bY = C for all lines at
once: the lines sit in fixed-width slots of three bigints and the loop runs
over the points, one linear form per point.  `incidences` clears the
denominators of an `Arrangement` and hands the integerized coordinates and
the line arrays straight to the kernel; `scaled_incidences` takes point and
line tuples that are already scaled ints, as the harness's incidence suite
draws them.  That suite checks the kernel against an independent recount on
the Fraction arrangement, `harness._direct_incidences`, which
cross-multiplies each point's own denominators once, (xn*yd, yn*xd, xd*yd),
and tests a*u + b*v == c*w on every pair instead of clearing one common
scale; the tests also check the kernel against a direct double loop over
point-line pairs.

Spanned lines are counted on the scaled ints too, by the one integer line
census `_kernels_py._line_census`: it counts the `_canonical_span` key of
every point pair, and a line of m points has m(m-1)/2 of them.  It serves
`spanned_line_multiplicities`, `rich_lines` and the pairs family, and the
triple family through `_kernels_py._spanned_lines`; its check is
`line_through` on each pair, with `LineKey.contains` recounting the
points, in the harness and the tests.

The incidence bound I <= 4 |P|^(2/3) |L|^(2/3) + 4 |P| + |L| is checked in
an exact integer form by `st_bound_holds` (cube the surplus, compare against
64 (|P||L|)^2), so the verdict never depends on rounding.  The decimal
strings of the bound in reports render a rational bracket of it, each end
rounded to nearest, and are purely cosmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable

from ._kernels_py import _line_census, _spanned_lines, count_incidences
from .core import DEFAULT_BUDGET, LineKey, PlanePoint, canonical_line, charge, point
from .errors import InvalidConfig
from .intervals import power_sum_decimal
from .sets import (RatSet, Record, _format_ints, as_int, canonical_json, format_rational,
                   integerize, parse_int, read_json_file)


def _coefficient(v) -> int:
    # a line coefficient: an int that is not a bool, or text `parse_int` reads
    return v if type(v) is int else parse_int(v, "line coefficient: ")


@dataclass(frozen=True)
class Arrangement:
    points: frozenset
    lines: frozenset

    @staticmethod
    def build(points: Iterable[PlanePoint], lines: Iterable[LineKey]) -> "Arrangement":
        return Arrangement(frozenset(points), frozenset(lines))

    def to_json(self) -> dict:
        pts = sorted(self.points)
        lns = sorted(self.lines)
        return {
            "points": [[format_rational(p.x), format_rational(p.y)] for p in pts],
            "lines": [_format_ints((l.a, l.b, l.c), 1) for l in lns],
        }

    @staticmethod
    def from_json(data: dict) -> "Arrangement":
        """Inverse of to_json; InvalidConfig on anything else.  A point is a
        list [x, y] of rationals by the rule of `sets._num_den` (a JSON int
        too) and a line a list [a, b, c] of ints or integer strings."""
        try:
            pts, lns = data["points"], data["lines"]
            if not all(type(r) is list and len(r) == n
                       for n, rows in ((2, pts), (3, lns)) for r in rows):
                raise InvalidConfig("each point must be a list [x, y] and each line [a, b, c]")
            pts = [point(px, py) for px, py in pts]
            lns = [canonical_line(*map(_coefficient, abc)) for abc in lns]
        except InvalidConfig as exc:
            raise InvalidConfig(f"bad arrangement: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfig(f"bad arrangement: {exc!r}") from exc
        return Arrangement.build(pts, lns)


def write_arrangement(path, arr: Arrangement) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(arr.to_json()) + "\n")


def read_arrangement(path) -> Arrangement:
    return Arrangement.from_json(read_json_file(path, "arrangement"))


@dataclass(frozen=True)
class STReport(Record):
    count: int
    n_points: int
    n_lines: int
    bound_lo: str
    bound_hi: str
    ok: bool


def incidences(arr: Arrangement) -> int:
    """Exact number of incident (point, line) pairs."""
    # clear point denominators; a*x + b*y = c scales to a*X + b*Y = m*c
    m, (xs, ys) = integerize([p.x for p in arr.points], [p.y for p in arr.points])
    lines = arr.lines
    return count_incidences(xs, ys, [l.a for l in lines], [l.b for l in lines],
                            [l.c * m for l in lines])


def scaled_incidences(points, lines) -> int:
    """Exact number of incident pairs between integer points (X, Y) and
    integer lines (a, b, C), meaning a*X + b*Y = C.

    This is the count of an arrangement whose coordinates were scaled by a
    common denominator m, each line constant c becoming m*c.
    """
    if not points or not lines:
        return 0
    xs, ys = zip(*points)
    las, lbs, lcs = zip(*lines)
    return count_incidences(xs, ys, las, lbs, lcs)


def st_bound_holds(count: int, n_points: int, n_lines: int) -> bool:
    """count <= 4 (PL)^(2/3) + 4 P + L, decided exactly on integers.

    Surplus s = count - 4P - L; the bound holds iff s <= 0 or s^3 <= 64 (PL)^2.
    """
    s = count - 4 * n_points - n_lines
    return s <= 0 or s**3 <= 64 * (n_points * n_lines) ** 2


def st_bound_check(arr: Arrangement) -> STReport:
    """Check count <= 4 (PL)^(2/3) + 4 P + L with an exact integer verdict
    (`st_bound_holds`) and a decimal rendering of the bound."""
    count = incidences(arr)
    np_, nl = len(arr.points), len(arr.lines)
    ok = st_bound_holds(count, np_, nl)
    # write 4 (PL)^(2/3) as (64 P^2 L^2)^(1/3) so every base is an integer;
    # with no points or no lines that term is 0
    lo, hi = power_sum_decimal([[(64 * np_ * np_ * nl * nl, Fraction(1, 3))],
                                [(4 * np_ + nl, Fraction(1))]])
    return STReport(count=count, n_points=np_, n_lines=nl, bound_lo=lo, bound_hi=hi, ok=ok)


def spanned_line_multiplicities(points: Iterable[PlanePoint]) -> dict:
    """Map of LineKey -> number of the given points on it, for all lines
    spanned by at least one pair."""
    pts = set(points)
    m, (xs, ys) = integerize([p.x for p in pts], [p.y for p in pts])
    # a*X + b*Y = c on the points scaled by m is a*m*x + b*m*y = c
    return {canonical_line(a * m, b * m, c): k
            for (a, b, c), k in _line_census(zip(xs, ys)).items()}


def rich_lines(points: Iterable[PlanePoint], k: int) -> set:
    """Lines containing at least k of the given points, k >= 2."""
    if k < 2:
        raise InvalidConfig("rich_lines needs k >= 2")
    return {key for key, m in spanned_line_multiplicities(points).items() if m >= k}


@dataclass(frozen=True)
class MomentSumReport(Record):
    p: int
    family: str
    sums: tuple
    ratios: tuple  # exact Fractions: sums[i] / (|A1|^(3-p) |A_i|^(p+1))


def _triple_family_alphas(A1: RatSet, A2: RatSet, A3: RatSet, budget: int) -> list:
    # the grid counts (n1, n2, n3) of each line (distinct, so each once) with
    # at least one pairwise-distinct triple (u1, u2, u3), u_i in A_i x A_i;
    # rescaling the plane moves the lines but not their counts
    _, (v1, v2, v3) = integerize(A1, A2, A3)
    charge((len(v1) * len(v2)) ** 2, budget, "pair checks")
    return [(n1, n2, n3) for _, _, _, n1, n2, n3, _ in _spanned_lines(v1, v2, v3)]


def line_moment_sums(A1: RatSet, A2: RatSet, A3: RatSet, p: int,
                     family: str = "triple",
                     budget: int = DEFAULT_BUDGET) -> MomentSumReport:
    """Per-grid sums of alpha_i^p over lines with alpha_i >= 2, plus the
    exact ratios sum / (|A1|^(3-p) |A_i|^(p+1)).

    family "triple": lines meeting all three grids in pairwise distinct
    points (the family behind the ordered collinear triple count).
    family "pairs": for each grid independently, all lines spanned by a
    distinct point pair of that grid, by one line census per distinct grid.
    """
    if not (len(A1) <= len(A2) <= len(A3)):
        raise InvalidConfig("pass the sets sorted by size: |A1| <= |A2| <= |A3|")
    if not A1:
        raise InvalidConfig("line_moment_sums needs nonempty sets")
    if as_int(p, "p") not in (1, 2, 3):
        raise InvalidConfig("p must be 1, 2 or 3")
    sets = (A1, A2, A3)
    if family == "triple":
        alphas = _triple_family_alphas(A1, A2, A3, budget)
        sums = tuple(
            sum(al[i] ** p for al in alphas if al[i] >= 2) for i in range(3)
        )
    elif family == "pairs":
        charge(sum(n * n * (n * n - 1) // 2 for n in map(len, sets)), budget,
               "grid point pairs")
        # multiplicities do not depend on the scale: one integerize serves all
        # three, and equal grids (their scaled ints are sorted) share one census
        grids = [tuple(v) for v in integerize(*sets)[1]]
        by_grid = {v: sum(m ** p for m in _line_census(product(v, v)).values())
                   for v in set(grids)}
        sums = tuple(by_grid[v] for v in grids)
    else:
        raise InvalidConfig(f"unknown family {family!r}")
    ratios = tuple(
        Fraction(sums[i], len(A1) ** (3 - p) * len(sets[i]) ** (p + 1)) for i in range(3)
    )
    return MomentSumReport(p=p, family=family, sums=sums, ratios=ratios)
