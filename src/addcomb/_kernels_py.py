"""Pure-Python integer kernels.

These are the hot inner loops, expressed over plain Python ints so they
also serve as the arbitrary-precision fallback for the compiled backend
(_kernels_cy, built from the same algorithms with int64 arithmetic).
t_o_linehash differs: it counts by pivot directions, while the compiled
twin still hashes every spanned line, so the two check each other.
Callers are responsible for clearing denominators first; every routine
here assumes integer inputs.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def collinear_six_counts(a: Sequence[int], b: Sequence[int], c: Sequence[int]):
    """Count 6-tuples (a1,a2,b1,b2,c1,c2) with (b1-a1)(c2-a2) == (c1-a1)(b2-a2).

    Returns (total, distinct) where distinct counts only solutions whose
    three points (a1,a2), (b1,b2), (c1,c2) are pairwise distinct.
    Brute force by design: this is the oracle the fast path is checked against.
    """
    total = 0
    distinct = 0
    for a1 in a:
        for a2 in a:
            for b1 in b:
                db1 = b1 - a1
                for b2 in b:
                    db2 = b2 - a2
                    u12 = db1 != 0 or db2 != 0
                    for c1 in c:
                        dc1 = c1 - a1
                        for c2 in c:
                            if db1 * (c2 - a2) == dc1 * db2:
                                total += 1
                                if (
                                    u12
                                    and (dc1 != 0 or c2 != a2)
                                    and (b1 != c1 or b2 != c2)
                                ):
                                    distinct += 1
    return total, distinct


def _count_on_line(a: int, b: int, c: int, vals, members) -> int:
    # points (x, y) of the grid vals x vals on the line a*x + b*y == c
    if b == 0:
        # vertical line x = c/a; every y in the set works
        q, r = divmod(c, a)
        return len(vals) if r == 0 and q in members else 0
    n = 0
    for x in vals:
        q, r = divmod(c - a * x, b)
        if r == 0 and q in members:
            n += 1
    return n


def _canonical_span(px: int, py: int, qx: int, qy: int):
    # line through two distinct integer points, gcd-reduced,
    # first nonzero of (a, b) positive
    a = qy - py
    b = px - qx
    c = a * px + b * py
    g = gcd(a, b)
    if a < 0 or (a == 0 and b < 0):
        g = -g
    return a // g, b // g, c // g


def _spanned_lines(g1: Sequence[int], g2: Sequence[int], g3: Sequence[int]):
    """Yield (a, b, c, n1, n2, n3, distinct) for every line a*x + b*y == c
    that carries distinct > 0 ordered pairwise-distinct triples (u1,u2,u3),
    ui in gi x gi; ni counts the points of gi x gi on the line.

    Candidate lines are spanned by all distinct point pairs from the first
    two grids (every contributing line contains such a pair) and deduped by
    canonical key, so the line set alone holds O(|g1|^2 |g2|^2) keys.  The
    per-line count is assembled by inclusion-exclusion over coincident
    points shared between grids; equal grids skip it.  Only the line census
    of incidence needs the lines themselves; t_o_linehash counts without
    them, and the sum of distinct over this generator is its test oracle.
    """
    l1, l2, l3 = list(g1), list(g2), list(g3)
    s1, s2, s3 = set(l1), set(l2), set(l3)

    lines = set()
    add = lines.add
    for px in l1:
        for py in l1:
            for qx in l2:
                for qy in l2:
                    if px == qx and py == qy:
                        continue
                    add(_canonical_span(px, py, qx, qy))

    if s1 == s2 == s3:
        # all grids identical: ordered distinct triples from n1 points
        for a, b, c in lines:
            n1 = _count_on_line(a, b, c, l1, s1)
            if n1 > 2:
                yield a, b, c, n1, n1, n1, n1 * (n1 - 1) * (n1 - 2)
        return

    i12 = sorted(s1 & s2)
    i13 = sorted(s1 & s3)
    i23 = sorted(s2 & s3)
    i123 = sorted(set(i12) & s3)
    m12, m13, m23, m123 = set(i12), set(i13), set(i23), set(i123)
    for a, b, c in lines:
        n1 = _count_on_line(a, b, c, l1, s1)
        n2 = _count_on_line(a, b, c, l2, s2)
        n3 = _count_on_line(a, b, c, l3, s3)
        if n1 == 0 or n2 == 0 or n3 == 0:
            continue
        n12 = _count_on_line(a, b, c, i12, m12) if i12 else 0
        n13 = _count_on_line(a, b, c, i13, m13) if i13 else 0
        n23 = _count_on_line(a, b, c, i23, m23) if i23 else 0
        n123 = _count_on_line(a, b, c, i123, m123) if i123 else 0
        distinct = n1 * n2 * n3 - n12 * n3 - n13 * n2 - n23 * n1 + 2 * n123
        if distinct > 0:
            yield a, b, c, n1, n2, n3, distinct


def t_o_linehash(g1: Sequence[int], g2: Sequence[int], g3: Sequence[int]) -> int:
    """Ordered pairwise-distinct collinear triples (u1,u2,u3), ui in gi x gi.

    Pivot-direction counting: for each pivot u1 in g1 x g1, histogram the
    primitive directions from u1 to the points of g2 x g2 and of g3 x g3
    (u1 itself, the zero direction, is dropped).  Points u2 != u1 and
    u3 != u1 are collinear with u1 iff their directions match, so the pivot
    contributes sum_d c2(d) c3(d) minus the pairs with u2 == u3, which are
    the points of (g2 & g3)^2 other than u1.  Equal g2 and g3 need one
    histogram and sum_d c(d) (c(d) - 1).  Swapping coordinates maps every
    grid to itself, so pivots (x, y) and (y, x) count the same and each
    such pair is visited once.  Time O(|g1|^2 (|g2|^2 + |g3|^2)), memory
    O(|g2|^2 + |g3|^2); no line is materialised.  Callers should pass the
    smallest set first; the count itself is symmetric in the arguments.
    The name matches the "linehash" mode of collinear.t_o_count and the
    compiled twin, which still hashes lines.
    """
    l1, l2, l3 = list(g1), list(g2), list(g3)
    same = set(l2) == set(l3)
    shared = set(l2) & set(l3)
    n_shared = len(shared) ** 2
    total = 0
    for i, x in enumerate(l1):
        d2x = [a - x for a in l2]
        d3x = [a - x for a in l3]
        x_shared = x in shared
        for j in range(i, len(l1)):
            y = l1[j]
            h2 = _direction_hist(d2x, [b - y for b in l2])[0]
            if same:
                count = sum(c * (c - 1) for c in h2.values())
            else:
                h3 = _direction_hist(d3x, [b - y for b in l3])[0]
                if len(h2) > len(h3):
                    h2, h3 = h3, h2
                get = h3.get
                count = sum(c * get(d, 0) for d, c in h2.items())
                count -= n_shared - (x_shared and y in shared)
            total += count if i == j else 2 * count
    return total


def count_incidences(pxs, pys, las, lbs, lcs) -> int:
    """Exact point-line incidence count over parallel coordinate arrays."""
    total = 0
    for a, b, c in zip(las, lbs, lcs):
        for x, y in zip(pxs, pys):
            if a * x + b * y == c:
                total += 1
    return total


def _direction_hist(us, vs):
    # histogram of primitive direction vectors (u, v) over us x vs;
    # the zero vector (0,0) is tallied separately
    hist: dict = {}
    zero_pairs = 0
    for u in us:
        for v in vs:
            if u == 0 and v == 0:
                zero_pairs += 1
                continue
            g = gcd(u, v)
            if u < 0 or (u == 0 and v < 0):
                g = -g
            key = (u // g, v // g)
            hist[key] = hist.get(key, 0) + 1
    return hist, zero_pairs


def _parallel_pairs(x1, x2, y1, y2) -> int:
    # #{(a,b,c,d) in x1 * x2 * y1 * y2 : a*d == b*c}: the vectors (a,b)
    # and (c,d) are parallel iff their primitive directions match, and the
    # zero vector is parallel to everything
    hx, zx = _direction_hist(x1, x2)
    hy, zy = _direction_hist(y1, y2)
    total = zx * len(y1) * len(y2) + zy * len(x1) * len(x2) - zx * zy
    if len(hx) > len(hy):
        hx, hy = hy, hx
    get = hy.get
    for key, cnt in hx.items():
        other = get(key)
        if other:
            total += cnt * other
    return total


def mul_pairs_count(x: Sequence[int], y: Sequence[int]) -> int:
    """#{(x1,x2,y1,y2) in x^2 * y^2 : x1*y2 == x2*y1}, zeros allowed.

    Two pairs satisfy the equation iff they are parallel as vectors, so
    hash primitive directions and match; the zero vector matches everything.
    """
    return _parallel_pairs(x, x, y, y)


def mul_pairs_cross(x1, x2, y1, y2) -> int:
    """#{(a,b,c,d) in x1 * x2 * y1 * y2 : a*d == b*c}, zeros allowed.

    Cross-rectangle variant of mul_pairs_count, needed when the two
    components of each vector come from differently shifted sets;
    mul_pairs_count(X, Y) is the diagonal case x1 = x2 = X, y1 = y2 = Y.
    Cold path: no compiled twin.
    """
    return _parallel_pairs(x1, x2, y1, y2)
