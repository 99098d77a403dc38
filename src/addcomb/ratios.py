"""Constrained ratio-of-sums counts r(z) and R(Z; A1, A2).

r(z) counts quadruples (a1, a1', a2, a2') in A1^2 x A2^2 with
a1' + a2' = z * (a1 + a2), in denominator-free equation form, so zero sums
are permitted: the pairs with a1 + a2 = 0 contribute to every z (they
satisfy the equation iff a1' + a2' = 0 as well), which is why the zero-sum
count is carried alongside the profile instead of being silently folded in.
R is defined as the sum of r(z)^2 over z in Z.

`full_ratio_set` and `popular_ratios` read the quotients of nonzero sums
from `_quotients`, which keys each by an exact int floor key about three
sums wide and tallies the keys band by band in ascending order, so no
quotient becomes a Fraction and one band's dict lives at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappush, heapreplace
from itertools import compress, repeat
from math import gcd, isqrt, lcm
from operator import mul
from typing import Optional

from .core import DEFAULT_BUDGET, charge
from .energy import rep_histogram
from .errors import InvalidConfig
from .intervals import power_sum_ratio_decimal
from .sets import RatSet, Record, as_fraction, as_int


def _r_from_hist(hist, z: Fraction, lo: int, hi: int) -> int:
    # r(z) = sum over sums s of h(s) * h(z*s); the s = 0 term contributes
    # h(0)^2 for every z since z*0 = 0.  hist may count the sums on any
    # common rescaling (the int keys of the sum histogram): rescaling
    # multiplies both sides of s' = z*s alike, so r(z) does not change.
    # With z = p/q only the multiples s = kq count, and z*s = kp; when
    # fewer of them lie in [lo, hi], the span of the keys, than hist has
    # keys, the sum runs over them instead of the keys
    p, q = z.numerator, z.denominator
    get = hist.get
    k0, k1 = -(-lo // q), hi // q
    if k1 - k0 + 1 < len(hist):  # ints: no range length past sys.maxsize
        ks = range(k0, k1 + 1)
        return sum(map(mul, map(get, map(mul, ks, repeat(q)), repeat(0)),
                       map(get, map(mul, ks, repeat(p)), repeat(0))))
    total = 0
    for s, m in hist.items():
        if s % q:
            continue
        other = get(p * (s // q))
        if other:
            total += m * other
    return total


def r_of_z(z, A1: RatSet, A2: RatSet) -> int:
    """Exact count of (a1, a1', a2, a2') with a1' + a2' = z (a1 + a2);
    z is a rational by the rule of `sets._num_den`."""
    hist = rep_histogram(A1, A2, "sum").counts
    return _r_from_hist(hist, as_fraction(z), min(hist, default=0), max(hist, default=0))


@dataclass(frozen=True)
class RatioProfile(Record):
    """Per-z counts over Z plus the two bound-ratio reports.

    R = sum of r(z)^2; sum_r = sum of r(z); zero_sums = #{(a1,a2): a1+a2=0},
    the diagonal that inflates every r(z) by its square.  The bound ratios
    are the decimal strings of rational brackets, each end rounded to
    nearest, and only present when
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
    lo, hi = min(hist, default=0), max(hist, default=0)
    r_map = {z: _r_from_hist(hist, z, lo, hi) for z in Z}
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


# about this many (sum, sum) pairs are tallied per band, so a band's dict
# holds at most about this many keys, near 1 MB
_BAND_PAIRS = 1 << 13


def _quotients(A1: RatSet, A2: RatSet, budget: int):
    """(bands, shift, decode) for the quotients z = s'/s of the nonzero
    sums of A1 + A2.  Charges |nonzero sums|^2 "sum pairs".

    No quotient becomes a Fraction.  With g the gcd of the sums, z = v/u
    for v = s'/g and u = s/g, signs flipped so that u > 0, and D = max |u|.
    z keys as the floor K = v*m // u with m = D**2.  Lemma: two distinct
    quotients with denominators at most D differ by at least 1/D**2, so m
    times them differ by at least 1 and their floors differ.  So keys are
    equal iff quotients are, and K ascends with z; a key is about three
    sums wide, where a common denominator of all quotients is as wide as
    the lcm of the sums.

    Each row u (one per sum s) meets the v in ascending order, so its keys
    ascend.  The edges of the key bands are quantiles of one deterministic
    sample of keys, and each row's part of a band is the slice up to one
    bisection from that row's cut pointer.  `bands` yields, band after
    band in ascending K, a dict from each key K of the band to
    w << shift | i, where w = sum of h(s) h(s') over the pairs of sums of
    quotient z and i is the first row that reached K; it empties each dict
    once the next is asked for.  `decode` takes (K, w << shift | i) pairs
    to the RatSet of their quotients, each through the representative
    (v, u) of row i: v is the one int with v*m // u == K.
    """
    hist = rep_histogram(A1, A2, "sum").counts
    sums = sorted(s for s in hist if s != 0)
    charge(len(sums) ** 2, budget, "sum pairs")
    g = gcd(*sums) or 1  # 0 only when there are no sums
    m = max((abs(s) // g for s in sums), default=0) ** 2
    shift = len(sums).bit_length()
    # the columns (v*m, h(s') << shift), ascending in v: as they are for the
    # rows of u = s/g with s > 0, negated and reversed for those flipped
    # from s < 0
    ups = [s // g * m for s in sums]
    hs = [hist[s] << shift for s in sums]
    columns = {True: (ups, hs), False: ([-vm for vm in reversed(ups)], hs[::-1])}
    rows = [(abs(s) // g, hist[s], *columns[s > 0]) for s in sums]
    mask = (1 << shift) - 1

    def decode(pairs):
        us = [rows[x & mask][0] for _, x in pairs]
        vs = [-(-k * u // m) for (k, _), u in zip(pairs, us)]
        scale = lcm(*us)
        return RatSet.from_ints(sorted(v * (scale // u) for v, u in zip(vs, us)), scale)

    def bands():
        n_bands = -(-len(rows) ** 2 // _BAND_PAIRS)
        edges = []
        if n_bands > 1:
            stride = max(1, len(rows) // isqrt(32 * n_bands))
            sample = sorted(vm // u for u, _, vms, _ in rows[::stride]
                            for vm in vms[::stride])
            edges = [sample[len(sample) * j // n_bands] for j in range(1, n_bands)]
        cuts = [0] * len(rows)
        for edge in edges + [None]:
            band = {}
            get = band.get
            for i, (u, hu, vms, ws) in enumerate(rows):
                a = cuts[i]
                # K = vm // u < edge iff vm < edge * u
                b = len(vms) if edge is None else bisect_left(vms, edge * u, a)
                cuts[i] = b
                for vm, w in zip(vms[a:b], ws[a:b]):
                    k = vm // u
                    band[k] = get(k, i) + hu * w
            yield band
            band.clear()

    return bands(), shift, decode


def full_ratio_set(A1: RatSet, A2: RatSet,
                   budget: int = DEFAULT_BUDGET) -> RatSet:
    """All quotients of nonzero sums: {s'/s : s, s' in A1+A2, both != 0}.

    These are exactly the z whose r(z) exceeds the ever-present zero-sum
    diagonal contribution; z realized only through 0/0 pairs are excluded
    (every rational would qualify once a zero sum exists).  Every key of
    every band of `_quotients`, which charges |nonzero sums|^2, is decoded.
    """
    bands, _, decode = _quotients(A1, A2, budget)
    return decode([kx for band in bands for kx in band.items()])


def popular_ratios(A1: RatSet, A2: RatSet, count: Optional[int] = None,
                   budget: int = DEFAULT_BUDGET) -> RatSet:
    """The `count` most popular ratios from the full ratio set.

    Ordered by r(z) descending, then z ascending, so the selection is
    deterministic; default count is |A1|^2 (an empty A1 gives the empty
    set), an explicit count must be >= 1.
    The candidates and weights come from the bands of `_quotients`; a
    weight is r(z) - h(0)^2, and the zero-sum diagonal adds h(0)^2 to every
    z alike, so it cannot change the order; z = 0 or z reached only through
    0/0 are never candidates (as in `full_ratio_set`).  One heap of at most
    `count` entries keeps the best so far, and only the chosen keys are
    decoded.  Memory is O(|nonzero sums| + count) plus one band of about
    `_BAND_PAIRS` keys.  The pass charges |nonzero sums|^2 against the
    budget.
    """
    if count is None:
        count = len(A1) ** 2
        if not count:
            return RatSet()
    elif as_int(count, "count") < 1:
        raise InvalidConfig(f"count must be >= 1, got {count}")
    bands, shift, decode = _quotients(A1, A2, budget)
    # a min-heap of the best (w, -K, w << shift | i) so far, whose root is
    # the worst.  Inside a band the keys come in no K order, so an entry
    # must beat the root on (w, -K); a later band's keys all exceed the
    # heap's, so once the heap is full, only weights above the root's enter
    top = []
    for band in bands:
        floor = (top[0][0] + 1) << shift if len(top) == count else 0
        for k, x in compress(band.items(), map(floor.__le__, band.values())):
            entry = (x >> shift, -k, x)
            if len(top) < count:
                heappush(top, entry)
            elif entry > top[0]:
                heapreplace(top, entry)
    return decode([(-nk, x) for _, nk, x in top])
