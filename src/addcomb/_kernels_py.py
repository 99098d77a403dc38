"""Pure-Python integer kernels.

These are the hot inner loops, expressed over plain Python ints, so they
are exact at any magnitude; every caller in the package imports them from
here by name, and _kernels re-exports four for the benchmark's tracer.
t_o_linehash counts by one histogram of ratios of differences plus a
closed form over membership classes; on three equal grids of n values it
keys each 3-set once by the invariant of its anharmonic orbit of ratios,
C(n, 3) keys at most instead of about n**3.  _spanned_lines hashes every
spanned line and so is its independent check.  _line_census, the one
integer line census, counts the _canonical_span key of every pair of
distinct points; incidence reads it for spanned-line multiplicities and
_spanned_lines for three equal grids.  Both
mul_pairs kernels count a*d == b*c as the sum over products p of
r(p) r'(p), from one histogram of the products a*d and one of b*c (one
when the two rectangles hold the same products; with one list on all four
sides, one of the products a*d with a before d and one of the squares).
t_o_linehash keys a ratio v/u by the exact int floor key v*m // u, with
one m >= D**2 per call for D a bound on |u| (its orbit invariants with
m = D**4), and no gcd is taken.
count_incidences packs all points into fixed-width slots of two bigints and
tests every point against a line with one linear form on those ints; its
checks are the Fraction recount `LineKey.contains` and a direct double loop
in the tests.  packed_pair_counts packs the indicators of two sets the
same way and reads every sum or difference count off their one product;
its check is a Counter over the pair keys of `sets.int_keys` in the tests.
Callers are responsible for clearing denominators first; every routine
here assumes integer inputs.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import combinations, compress, count, product, starmap
from math import gcd, isqrt
from operator import floordiv, mul
from typing import Iterable, Sequence

from .errors import PostconditionFailed


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


def _multiplicity_from_pairs(pair_count: int) -> int:
    # m points on a line yield m(m-1)/2 unordered pairs; invert exactly
    m = (1 + isqrt(1 + 8 * pair_count)) // 2
    if m * (m - 1) // 2 != pair_count:
        raise PostconditionFailed(f"{pair_count} is not m(m-1)/2 for any m")
    return m


def _line_census(int_points: Iterable[tuple]) -> dict:
    # (a, b, c) -> m for each line aX + bY = c spanned by the distinct int
    # points: one Counter of _canonical_span keys over all pairs
    pairs = Counter(_canonical_span(*p, *q) for p, q in combinations(int_points, 2))
    return {key: _multiplicity_from_pairs(c) for key, c in pairs.items()}


def _points_on_line(a: int, b: int, c: int, vals: set) -> set:
    # the points of vals x vals on a*x + b*y == c, each named by its x, or
    # on a vertical line (b == 0), where x = c/a, by its y
    if b == 0:
        return vals if c % a == 0 and c // a in vals else set()
    return {x for x in vals if (c - a * x) % b == 0 and (c - a * x) // b in vals}


def _spanned_lines(g1: Sequence[int], g2: Sequence[int], g3: Sequence[int]):
    """Yield (a, b, c, n1, n2, n3, distinct) for every line a*x + b*y == c
    that carries distinct > 0 ordered pairwise-distinct triples (u1,u2,u3),
    ui in gi x gi; ni counts the points of gi x gi on the line.

    The grids are read as sets.  Equal grids read `_line_census` of the
    one grid: each line of m >= 3 points carries m (m - 1)(m - 2) triples.
    Otherwise the candidate lines are spanned by all distinct point pairs
    from the first two grids (every contributing line contains such a
    pair), deduped by canonical key, so the line set alone holds
    O(|g1|^2 |g2|^2) keys.  One scan per grid finds each line's points, g3
    first, since a line that misses g3 carries no triple; the count is
    assembled by inclusion-exclusion over the points that the grids share,
    n1 n2 n3 - n12 n3 - n13 n2 - n23 n1 + 2 n123.  Only the triple family
    of incidence reads the lines' grid counts; t_o_linehash counts without
    them, and the sum of distinct over this generator is its test oracle.
    """
    s1, s2, s3 = set(g1), set(g2), set(g3)
    if s1 == s2 == s3:
        for (a, b, c), m in _line_census(product(s1, s1)).items():
            if m > 2:
                yield a, b, c, m, m, m, m * (m - 1) * (m - 2)
        return

    lines = {_canonical_span(px, py, qx, qy) for px in s1 for py in s1
             for qx in s2 for qy in s2 if px != qx or py != qy}
    for a, b, c in lines:
        p3 = _points_on_line(a, b, c, s3)
        if not p3:
            continue
        p1 = _points_on_line(a, b, c, s1)
        p2 = _points_on_line(a, b, c, s2)
        n1, n2, n3 = len(p1), len(p2), len(p3)
        distinct = (n1 * n2 * n3 - len(p1 & p2) * n3 - len(p1 & p3) * n2
                    - len(p2 & p3) * n1 + 2 * len(p1 & p2 & p3))
        if distinct > 0:
            yield a, b, c, n1, n2, n3, distinct


def t_o_linehash(g1: Sequence[int], g2: Sequence[int], g3: Sequence[int]) -> int:
    """Ordered pairwise-distinct collinear triples (u1,u2,u3), ui in gi x gi.

    One histogram of ratios of differences.  Write u1 = (x, y),
    u2 = (a2, b2) and u3 = (a3, b3); they are collinear iff
    (a2 - x)(b3 - y) == (b2 - y)(a3 - x).

    Both sides nonzero: all four differences are nonzero and the equation
    says (a2 - x)/(a3 - x) == (b2 - y)/(b3 - y).  So with S(t) the number
    of (x, a2, a3) in g1 x g2 x g3, a2 != x != a3, whose ratio is t, these
    solutions number sum_t S(t)**2 over all pivots at once.

    Both sides zero: a2 == x or b3 == y, and a3 == x or b2 == y.  For a
    pivot with p = [x in g2], q = [x in g3], r = [y in g2], s = [y in g3],
    n2 = |g2|, n3 = |g3| and k = |g2 & g3|, the pairs (a2, b3) of the first
    kind number n2 n3 - (n2 - p)(n3 - s), those (a3, b2) of the second
    n2 n3 - (n3 - q)(n2 - r), and the solutions are their products.

    Every collinear (u2, u3) is one of the two, degenerate ones included.
    Those are u2 == u1 (p r n3**2 of them), u3 == u1 (q s n2**2) and
    u2 == u3 (k**2); any two equalities force the third, which p q r s
    marks, so inclusion-exclusion removes p r n3**2 + q s n2**2 + k**2
    - 2 p q r s.  The closed-form terms depend on the pivot only through
    (p, q, r, s), so they are summed over the membership classes of g1.
    For g1 = g2 = g3 of size n every term is (n - 1)(n - 3), and
    T_o = sum_t S(t)**2 + n**2 (n - 1)(n - 3).

    Unequal grids tally S itself (`_ratio_tally`), in time and keys
    O(|g1| |g2| |g3|).  Equal grids of n values tally one key per 3-set
    instead (`_orbit_tally`).  The triples with a2 == a3 all have t = 1,
    so S(1) = n (n - 1).  The 6 orders (x, a2, a3) of any 3-set
    {u < v < w} map t onto the anharmonic orbit of t0 = (v - u)/(w - u),
    {t0, 1 - t0, 1/t0, 1/(1 - t0), t0/(t0 - 1), (t0 - 1)/t0}, whose only
    members in (0, 1) are t0 and 1 - t0.  So
    lambda = t0 (1 - t0) = (v - u)(w - v)/(w - u)**2 in (0, 1/4] names the
    orbit, and with N(lambda) the number of 3-sets of invariant lambda,
    S(t) = N(lambda) on each of its 6 members.  The one exception is
    lambda = 1/4, the 3-term APs, whose orbit {-1, 2, 1/2} has 3 members
    each hit twice per set, so S = 2 N(1/4) there.  Hence
    sum_t S(t)**2 = 6 sum_{lambda < 1/4} N**2 + 12 N(1/4)**2
    + (n (n - 1))**2, in time O(n**3 / 6) with C(n, 3) keys at most.

    The name matches the "linehash" mode of collinear.t_o_count.
    """
    s1 = set(g1)
    if s1 == set(g2) == set(g3):
        return _orbit_tally(s1)
    return _ratio_tally(g1, g2, g3)


def _ratio_tally(g1: Sequence[int], g2: Sequence[int], g3: Sequence[int]) -> int:
    # t_o_linehash on any grids: S is tallied on the int key
    # ((a2 - x) m) // (a3 - x) with m = D**2 for D the span of g1 | g2 | g3.
    # Lemma: every |a3 - x| is at most D, and two distinct ratios with
    # denominators at most D differ by |v u' - v' u| / |u u'| >= 1/D**2, so
    # m times them differ by at least 1 and their floors differ; equal
    # ratios have equal floors whatever the signs.  So keys are equal iff
    # ratios are, and no gcd is taken
    l1, l2, l3 = list(g1), list(g2), list(g3)
    s2, s3 = set(l2), set(l3)
    union = l1 + l2 + l3
    m = (max(union, default=0) - min(union, default=0)) ** 2
    ratios = Counter()
    classes = Counter()
    for x in l1:
        vms = [(a - x) * m for a in l2 if a != x]
        ratios.update(starmap(floordiv, product(vms, [a - x for a in l3 if a != x])))
        classes[x in s2, x in s3] += 1
    n2, n3, k = len(s2), len(s3), len(s2 & s3)
    total = sum(c * c for c in ratios.values())
    for (p, q), cx in classes.items():
        for (r, s), cy in classes.items():
            both_zero = (n2 * n3 - (n2 - p) * (n3 - s)) * (n2 * n3 - (n3 - q) * (n2 - r))
            degenerate = p * r * n3 * n3 + q * s * n2 * n2 + k * k - 2 * p * q * r * s
            total += cx * cy * (both_zero - degenerate)
    return total


def _orbit_tally(g) -> int:
    # t_o_linehash on g1 = g2 = g3 = g: N is tallied on the int key
    # ((v - u)(w - v) m) // (w - u)**2 with m = D**4 for D the span of g.
    # Distinct lambdas have denominators at most D**2, so they differ by at
    # least 1/D**4 and their keys differ; lambda = 1/4 has the key m // 4.
    # Each least element u tallies the 3-sets of its suffix at once, so no
    # list of all C(n, 3) keys is held
    vals = sorted(g)
    n = len(vals)
    m = (vals[-1] - vals[0]) ** 4 if vals else 0
    lambdas = Counter()
    for i, u in enumerate(vals):
        suffix = vals[i + 1:]
        dens = [(w - u) ** 2 for w in suffix]
        lambdas.update([(v - u) * (w - v) * m // den
                        for j, (w, den) in enumerate(zip(suffix, dens))
                        for v in suffix[:j]])
    aps = lambdas.pop(m // 4, 0)
    return (6 * sum(c * c for c in lambdas.values()) + 12 * aps * aps
            + (n * (n - 1)) ** 2 + n * n * (n - 1) * (n - 3))


def count_incidences(pxs, pys, las, lbs, lcs) -> int:
    """Exact number of pairs (i, j) with las[j]*pxs[i] + lbs[j]*pys[i] == lcs[j].

    The points are parallel arrays (pxs, pys), the lines parallel arrays
    (las, lbs, lcs); duplicates, non-reduced lines and any magnitudes are
    counted as given.  Each line costs a few bigint operations instead of
    |P| comparisons.

    Packing: with mx = max |X| and my = max |Y|, the offset values
    X + mx in [0, 2 mx] and Y + my in [0, 2 my] go into one W-bit slot per
    point of two ints PX and PY; ONES has a 1 at the bottom of every slot.
    For a line (a, b, c), by linearity the int

        F = a*PX + b*PY + (B - c - a*mx - b*my)*ONES,   B = 2**(w-1),

    equals the sum over i of f_i * 2**(W i) with f_i = a X_i + b Y_i - c + B.
    The width rule below makes every |a X_i + b Y_i - c| < B, so every f_i
    lies in (0, 2**w) with w < W: the sum is the base-2**W expansion of F,
    and slot i of F holds exactly f_i.  Point i is on the line iff f_i == B,
    iff slot i of F ^ B*ONES is zero; adding 2**w - 1 to every slot sets
    bit w of the slot (its spare top bit) iff the slot is nonzero, and no
    slot carries into the next.  So the bits left by & (ONES << w) count
    the points off the line.

    Width rule: w = max(max over lines of |a| mx + |b| my + |c|, 2 mx,
    2 my).bit_length() + 1 and W = 8 ceil((w + 1) / 8).  The first term
    bounds |f_i - B|; the 2 mx and 2 my terms make the offset coordinates
    fit a slot, which the line bound alone does not when, say, every line
    is horizontal and |X| is large.
    """
    n = len(pxs)
    if not n or not las:
        return 0
    mx = max(map(abs, pxs))
    my = max(map(abs, pys))
    bound = max(abs(a) * mx + abs(b) * my + abs(c) for a, b, c in zip(las, lbs, lcs))
    w = max(bound, 2 * mx, 2 * my).bit_length() + 1
    nbytes = (w + 8) // 8

    def pack(vs, m):
        return int.from_bytes(b"".join([(v + m).to_bytes(nbytes, "little") for v in vs]),
                              "little")

    ones = int.from_bytes((b"\x01" + bytes(nbytes - 1)) * n, "little")
    half = 1 << (w - 1)
    flip = half * ones
    fill = ((1 << w) - 1) * ones
    top = ones << w
    # PX - mx*ONES, so a*sx + b*sy + (B - c)*ONES is F
    sx = pack(pxs, mx) - mx * ones
    sy = pack(pys, my) - my * ones
    off = 0
    for a, b, c in zip(las, lbs, lcs):
        off += ((((a * sx + b * sy + (half - c) * ones) ^ flip) + fill) & top).bit_count()
    return n * len(las) - off


def packed_pair_counts(xs: Sequence[int], ys: Sequence[int], diff: bool) -> Counter:
    """Counter of x - y (diff) or x + y (sum) over xs * ys, by one product.

    xs and ys are nonempty lists of distinct ints.  Kronecker substitution:
    with lo = min(xs), the indicator of xs is the int PX = sum of
    2**(8 w (x - lo)), one w-byte slot per value of its span, and PY is
    that of ys, or of the reflection y -> max(ys) - y for diff.  Slot i of
    PX * PY then holds the number of pairs whose offsets add to i: x + y =
    i + min(xs) + min(ys), or x - y = i + min(xs) - max(ys).  Each key is
    met by at most one y per x, so no count exceeds min(|xs|, |ys|), and
    w = 1, 2 or 4 bytes, the least with that count under 2**(8 w), keeps
    every slot from carrying into the next.  The slots are read back as
    one memoryview of w-byte ints; the keys of the nonzero slots come from
    compress, their counts from filter, with no loop over pairs.
    """
    top = min(len(xs), len(ys))  # the largest count a slot can hold
    w, code = (1, "B") if top < 1 << 8 else (2, "H") if top < 1 << 16 else (4, "I")

    def indicator(offsets, span):
        buf = bytearray(span * w)
        for i in offsets:
            buf[i * w] = 1
        return int.from_bytes(buf, "little")

    lx, hx, ly, hy = min(xs), max(xs), min(ys), max(ys)
    px = indicator([x - lx for x in xs], hx - lx + 1)
    if diff:
        py, off = indicator([hy - y for y in ys], hy - ly + 1), lx - hy
    else:
        py, off = indicator([y - ly for y in ys], hy - ly + 1), lx + ly
    slots = hx - lx + hy - ly + 1
    view = memoryview((px * py).to_bytes(slots * w, sys.byteorder)).cast(code)
    if sys.byteorder == "big":  # slot 0 came last
        view = view[::-1]
    counts = Counter()
    # dict.update takes the (key, count) pairs at C speed
    dict.update(counts, zip(compress(count(off), view), filter(None, view)))
    return counts


def _product_pairs(x1, x2, y1, y2) -> int:
    # #{(a,b,c,d) in x1 * x2 * y1 * y2 : a*d == b*c} = the sum over
    # products p of r(p) r'(p), with r counting the pairs (a, d) in
    # x1 * y2 of product p and r' the pairs (b, c) in x2 * y1; zeros need no
    # case of their own, since every pair holding one has product 0.  When
    # all four are one list xs, as for every multiplicative energy E(A, A),
    # a*d == d*a: with c(p) the pairs i < j of xs[i]*xs[j] == p and s(p)
    # the squares equal to p, r(p) = 2 c(p) + s(p), so the sum is that of
    # (2c + s)**2 and only the C(|xs|, 2) products i < j are tallied.  When
    # the two rectangles are otherwise the same, one histogram serves both
    if x1 == x2 == y1 == y2:
        upper = Counter(starmap(mul, combinations(x1, 2)))
        get = upper.get
        return (4 * sum(c * c for c in upper.values())
                + sum((4 * get(p, 0) + s) * s for p, s in Counter(map(mul, x1, x1)).items()))
    left = Counter([a * d for a in x1 for d in y2])
    if (x2, y1) in ((x1, y2), (y2, x1)):
        return sum(c * c for c in left.values())
    right = Counter([b * c for b in x2 for c in y1])
    if len(left) > len(right):
        left, right = right, left
    get = right.get
    return sum(c * get(p, 0) for p, c in left.items())


def mul_pairs_count(x: Sequence[int], y: Sequence[int]) -> int:
    """#{(x1,x2,y1,y2) in x^2 * y^2 : x1*y2 == x2*y1}, zeros allowed.

    Both sides range over the same products x * y, so this is the sum of
    r(p)**2 over one histogram of them (`_product_pairs`); when y equals
    x, that histogram holds only the products x[i]*x[j] with i < j, and
    the squares are tallied apart.
    """
    return _product_pairs(x, x, y, y)


def mul_pairs_cross(x1, x2, y1, y2) -> int:
    """#{(a,b,c,d) in x1 * x2 * y1 * y2 : a*d == b*c}, zeros allowed.

    Cross-rectangle variant of mul_pairs_count, needed when the two
    components of each vector come from differently shifted sets;
    mul_pairs_count(X, Y) is the diagonal case x1 = x2 = X, y1 = y2 = Y.
    """
    return _product_pairs(x1, x2, y1, y2)
