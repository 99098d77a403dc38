"""Point-line incidences, rich lines/points, and line-family moment sums.

The incidence bound I <= 4 |P|^(2/3) |L|^(2/3) + 4 |P| + |L| is checked in
an exact integer form (cube the surplus, compare against 64 (|P||L|)^2), so
the verdict never depends on rounding.  The decimal rendering of the bound
in reports is outward-rounded interval arithmetic and purely cosmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import Iterable, Optional

from . import _kernels
from ._kernels_py import _spanned_lines
from .core import DEFAULT_BUDGET, LineKey, PlanePoint, canonical_line, line_through, point
from .errors import BudgetExceeded, InvalidConfig, PostconditionFailed
from .intervals import power_sum_decimal
from .sets import RatSet, common_scale, format_rational, parse_rational, scaled_ints


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
            "lines": [[str(l.a), str(l.b), str(l.c)] for l in lns],
        }

    @staticmethod
    def from_json(data: dict) -> "Arrangement":
        pts = [point(parse_rational(px), parse_rational(py)) for px, py in data["points"]]
        lns = [canonical_line(int(a), int(b), int(c)) for a, b, c in data["lines"]]
        return Arrangement.build(pts, lns)


def write_arrangement(path, arr: Arrangement) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(arr.to_json(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def read_arrangement(path) -> Arrangement:
    with open(path, "r", encoding="utf-8") as fh:
        return Arrangement.from_json(json.load(fh))


@dataclass(frozen=True)
class STReport:
    count: int
    n_points: int
    n_lines: int
    bound_lo: str
    bound_hi: str
    ok: bool

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "n_points": self.n_points,
            "n_lines": self.n_lines,
            "bound_lo": self.bound_lo,
            "bound_hi": self.bound_hi,
            "ok": self.ok,
        }


def incidences(arr: Arrangement) -> int:
    """Exact number of incident (point, line) pairs."""
    if not arr.points or not arr.lines:
        return 0
    pts = sorted(arr.points)
    lns = sorted(arr.lines)
    # clear point denominators; a*x + b*y = c scales to a*X + b*Y = m*c
    from math import lcm

    m = 1
    for p in pts:
        m = lcm(m, p.x.denominator, p.y.denominator)
    pxs = [int(p.x * m) for p in pts]
    pys = [int(p.y * m) for p in pts]
    las = [l.a for l in lns]
    lbs = [l.b for l in lns]
    lcs = [l.c * m for l in lns]
    return _kernels.count_incidences(pxs, pys, las, lbs, lcs)


def st_bound_check(arr: Arrangement) -> STReport:
    """Check count <= 4 (PL)^(2/3) + 4 P + L with an exact integer verdict.

    Surplus s = count - 4P - L; the bound holds iff s <= 0 or s^3 <= 64 (PL)^2.
    """
    count = incidences(arr)
    np_, nl = len(arr.points), len(arr.lines)
    s = count - 4 * np_ - nl
    ok = s <= 0 or s**3 <= 64 * (np_ * nl) ** 2
    if np_ and nl:
        # write 4 (PL)^(2/3) as (64 P^2 L^2)^(1/3) so every base is an integer
        lo, hi = power_sum_decimal(
            [
                [(64 * np_ * np_ * nl * nl, Fraction(1, 3))],
                [(4 * np_ + nl, Fraction(1))],
            ]
        )
    else:
        lo, hi = power_sum_decimal([[(4 * np_ + nl, Fraction(1))]])
    return STReport(count=count, n_points=np_, n_lines=nl, bound_lo=lo, bound_hi=hi, ok=ok)


def _multiplicity_from_pairs(pair_count: int) -> int:
    # m points on a line yield m(m-1)/2 unordered pairs; invert exactly
    m = (1 + isqrt(1 + 8 * pair_count)) // 2
    if m * (m - 1) // 2 != pair_count:
        raise PostconditionFailed(f"{pair_count} is not m(m-1)/2 for any m")
    return m


def spanned_line_multiplicities(points: Iterable[PlanePoint]) -> dict:
    """Map of LineKey -> number of the given points on it, for all lines
    spanned by at least one pair."""
    pts = sorted(set(points))
    pair_counts: dict = {}
    for p, q in combinations(pts, 2):
        key = line_through(p, q)
        pair_counts[key] = pair_counts.get(key, 0) + 1
    return {key: _multiplicity_from_pairs(c) for key, c in pair_counts.items()}


def rich_lines(points: Iterable[PlanePoint], k: int) -> set:
    """Lines containing at least k of the given points, k >= 2."""
    if k < 2:
        raise InvalidConfig("rich_lines needs k >= 2")
    return {key for key, m in spanned_line_multiplicities(points).items() if m >= k}


def line_intersection(l1: LineKey, l2: LineKey) -> Optional[PlanePoint]:
    """Intersection point of two lines, None if parallel or identical."""
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return None
    x = Fraction(l1.c * l2.b - l2.c * l1.b, det)
    y = Fraction(l1.a * l2.c - l2.a * l1.c, det)
    return PlanePoint(x, y)


def rich_points(lines: Iterable[LineKey], k: int) -> set:
    """Points lying on at least k of the given (distinct) lines, k >= 2.

    Intersects lines pairwise, hashes the meeting points, and recovers the
    per-point line count m from its pair count m(m-1)/2.
    """
    if k < 2:
        raise InvalidConfig("rich_points needs k >= 2")
    lns = sorted(set(lines))
    pair_counts: dict = {}
    for l1, l2 in combinations(lns, 2):
        p = line_intersection(l1, l2)
        if p is not None:
            pair_counts[p] = pair_counts.get(p, 0) + 1
    out = set()
    for p, c in pair_counts.items():
        if _multiplicity_from_pairs(c) >= k:
            out.add(p)
    return out


@dataclass(frozen=True)
class MomentSumReport:
    p: int
    family: str
    sums: tuple
    ratios: tuple  # exact Fractions: sums[i] / (|A1|^(3-p) |A_i|^(p+1))


def _triple_family_alphas(A1: RatSet, A2: RatSet, A3: RatSet, budget: int) -> dict:
    # lines with at least one pairwise-distinct triple (u1, u2, u3),
    # u_i in A_i x A_i, mapped to their grid counts (n1, n2, n3)
    scale = common_scale(A1, A2, A3)
    v1 = list(scaled_ints(A1, scale))
    v2 = list(scaled_ints(A2, scale))
    v3 = list(scaled_ints(A3, scale))
    if (len(v1) * len(v2)) ** 2 > budget:
        raise BudgetExceeded(
            f"line spanning needs {(len(v1) * len(v2))**2} pair checks, budget {budget}"
        )
    # keys are in scaled coordinates; rescale to the original plane:
    # a*X + b*Y = c with X = scale*x becomes (a*scale, b*scale, c)
    return {
        canonical_line(a * scale, b * scale, c): (n1, n2, n3)
        for a, b, c, n1, n2, n3, _ in _spanned_lines(v1, v2, v3)
    }


def line_moment_sums(A1: RatSet, A2: RatSet, A3: RatSet, p: int,
                     family: str = "triple",
                     budget: int = DEFAULT_BUDGET) -> MomentSumReport:
    """Per-grid sums of alpha_i^p over lines with alpha_i >= 2, plus the
    exact ratios sum / (|A1|^(3-p) |A_i|^(p+1)).

    family "triple": lines meeting all three grids in pairwise distinct
    points (the family behind the ordered collinear triple count).
    family "pairs": for each grid independently, all lines spanned by a
    distinct point pair of that grid.
    """
    if not (len(A1) <= len(A2) <= len(A3)):
        raise InvalidConfig("pass the sets sorted by size: |A1| <= |A2| <= |A3|")
    if p not in (1, 2, 3):
        raise InvalidConfig("p must be 1, 2 or 3")
    sets = (A1, A2, A3)
    if family == "triple":
        alphas = _triple_family_alphas(A1, A2, A3, budget)
        sums = tuple(
            sum(al[i] ** p for al in alphas.values() if al[i] >= 2) for i in range(3)
        )
    elif family == "pairs":
        sums_l = []
        for A in sets:
            if (len(A) ** 2) ** 2 > budget:
                raise BudgetExceeded("pairs family over budget")
            grid = [point(x, y) for x in A for y in A]
            mult = spanned_line_multiplicities(grid)
            sums_l.append(sum(m ** p for m in mult.values() if m >= 2))
        sums = tuple(sums_l)
    else:
        raise InvalidConfig(f"unknown family {family!r}")
    ratios = tuple(
        Fraction(sums[i], len(A1) ** (3 - p) * len(sets[i]) ** (p + 1)) for i in range(3)
    )
    return MomentSumReport(p=p, family=family, sums=sums, ratios=ratios)
