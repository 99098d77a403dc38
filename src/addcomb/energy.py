"""Representation-function histograms and moment energies of rational sets.

E_k of a pair (A, B) is the k-th moment of the difference (additive) or
ratio (multiplicative) representation histogram.  Everything here is exact:
the tallies count the pair keys of `sets.int_keys` (plain ints after
clearing denominators once; each key k stands for k/den, with one den per
histogram, quotients included), and a `CountHistogram` keeps those keys,
so the decompositions band and look up counts without a Fraction per key;
only its `entries` view turns keys back into Fractions, one per key read.

A self-energy E_k(A, A) tallies the C(|A|, 2) unordered pairs of
`sets.unordered_keys` instead of the |A|^2 ordered ones, since r(x) =
r(-x) for differences and r(z) = r(1/z) for ratios: each pair counts once
on its side of the fixed points, whose counts are known without a tally.
The ordered `rep_histogram` and, for ratios, `energy_mul_product_form`
are the independent routes that check it.

Sums and differences of narrow sets take a second route: one product of
two packed ints (`_kernels_py.packed_pair_counts`, one slot per value of
each set's span), read back as the whole histogram, with no per-pair step.
A fixed rule on the spans and sizes picks it (`_packed_histogram`): with
slots the two spans and pairs the keys a Counter would tally (|A||B|, or
C(|A|, 2) for a self-energy), the packed route runs iff 2 slots <= pairs
and slots**2 <= pairs * 2**12.  Measured on a 2-core x86_64 VM, a Counter
step costs about 0.1 us a pair, and the product grows as slots**1.585
(Karatsuba: 0.07, 2.6 and 54 ms at 10**3, 10**4 and 10**5 one-byte
slots; 0.11, 4.1 and 162 ms at two bytes).  So the first bound makes the
readback of the slots shorter than the tally, and the second makes the
product about as dear as the tally at 10**4 slots and cheaper beyond:
at 10**5 slots it asks for 2.4 million pairs, about 0.24 s of tally.
APs and dense random sets pack; GPs and GridExamples keep the Counter.
The Counter over the `int_keys` keys stays the definitional route: the
tests check the packed histograms and energies against it, not against
each other, and verify's log2 isomorphism checks the additive energies of
narrow integer sets against the multiplicative ones, which never pack.

The one genuinely irrational comparison, the quarter-power union
inequality, is decided on integer fourth roots (`l4_verdict`), never on
floats.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from itertools import repeat
from math import isqrt
from typing import Iterable, Optional, Sequence

from ._kernels_py import mul_pairs_count, packed_pair_counts
from .errors import InvalidConfig
from .sets import RatSet, as_int, from_keys, int_keys, integerize, unordered_keys

K_MAX = 8
# fractional bits of the fourth roots in `l4_verdict`: 128, doubled up to 2048
L4_BASE_BITS = 128
L4_MAX_BITS = 2048


class CountHistogram:
    """Multiplicity map x -> r(x); zero-count values are absent.

    `CountHistogram(counts, den)` holds the map on the int pair keys of
    `sets.int_keys`, each key k standing for k/den, for every op alike
    (quotients included): an element x of a set keys as x*den, and
    `sets.from_keys` decodes.  `entries` is the map keyed by rationals, as
    a view that builds the Fraction of a key only when it is read.
    """

    __slots__ = ("counts", "den")

    def __init__(self, counts: dict, den: int):
        self.counts, self.den = counts, den

    def moment(self, k: int) -> int:
        return sum(map(pow, self.counts.values(), repeat(k)))

    @property
    def mass(self) -> int:
        return sum(self.counts.values())

    @property
    def support_size(self) -> int:
        return len(self.counts)

    @property
    def max_count(self) -> int:
        return max(self.counts.values()) if self.counts else 0

    @property
    def entries(self) -> Mapping:
        return _Entries(self)

    def count(self, x) -> int:
        return self.counts_on(RatSet((x,)))[0]

    def counts_on(self, S: RatSet) -> list:
        """r(x) for each element x of S, in order."""
        get = self.counts.get
        return [get(k, 0) for k in S.keys_at(self.den)]

    def restrict(self, S: RatSet) -> "CountHistogram":
        """The histogram with only the counts attained at elements of S."""
        counts = self.counts
        return CountHistogram(
            {k: counts[k] for k in S.keys_at(self.den) if k in counts}, self.den)

    def key_set(self, keys: Iterable) -> RatSet:
        """The RatSet of the values that the distinct keys stand for."""
        return from_keys(keys, self.den)


class _Entries(Mapping):
    """A histogram's counts keyed by Fractions, built per key read."""

    __slots__ = ("_hist",)

    def __init__(self, hist: CountHistogram):
        self._hist = hist

    def __getitem__(self, x) -> int:
        r = self._hist.count(x)
        if not r:
            raise KeyError(x)
        return r

    def __iter__(self):
        den = self._hist.den
        return (Fraction(k, den) for k in self._hist.counts)

    def __len__(self) -> int:
        return len(self._hist.counts)


def _packed_histogram(A: RatSet, B: RatSet, op: str, pairs: int) -> Optional[CountHistogram]:
    """The histogram of A op B by `packed_pair_counts`, or None where the
    rule leaves the tally to a Counter over the pairs.

    Sums and differences only.  pairs is the number of keys the Counter
    would tally; slots counts the values spanned by A's scaled ints plus
    those spanned by B's, the slots of the packed factors.  The packed
    route is taken iff 2 slots <= pairs and slots**2 <= pairs * 2**12
    (the module docstring has the measured basis).  The keys and den are
    those of `int_keys`.
    """
    if op not in ("sum", "diff") or not pairs:
        return None
    scale, (xs, ys) = integerize(A, B)
    slots = xs[-1] - xs[0] + ys[-1] - ys[0] + 2
    if 2 * slots > pairs or slots * slots > pairs << 12:
        return None
    return CountHistogram(packed_pair_counts(xs, ys, op == "diff"), scale)


def rep_histogram(A: RatSet, B: RatSet, op: str = "diff") -> CountHistogram:
    """Histogram of a op b over A x B for op in {diff, ratio, sum, prod}.

    Its keys and den are those of `sets.int_keys`, and no Fraction is
    built here.  Sums and differences of narrow sets are counted by one
    packed product (`_packed_histogram` has the rule); every other tally
    counts the `int_keys` keys with a Counter, the definitional route that
    the tests check the packed one against.
    """
    hist = _packed_histogram(A, B, op, len(A) * len(B))
    if hist is not None:
        return hist
    keys, den = int_keys(A, B, op)
    return CountHistogram(Counter(keys), den)


def energy_op(k: int, flavor: str) -> str:
    """The histogram op behind E_k of `flavor`; rejects k or flavor."""
    if not 2 <= as_int(k, "k") <= K_MAX:
        raise InvalidConfig(f"k must be in [2, {K_MAX}], got {k}")
    if flavor == "additive":
        return "diff"
    if flavor == "multiplicative":
        return "ratio"
    raise InvalidConfig(f"unknown flavor {flavor!r}")


def energy(A: RatSet, B: Optional[RatSet] = None, k: int = 2,
           flavor: str = "additive") -> int:
    """Exact E_k of (A, B): sum of r(x)^k over the diff or ratio histogram.

    B defaults to A.  k is capped at 8; the cap only bounds runtime,
    the arithmetic is arbitrary precision either way.  No Fraction is
    built.  When B differs from A, the moment is taken from the int counts
    of `rep_histogram`.  When B is A, or equals it by value, r(x) = r(-x)
    (differences) and r(z) = r(1/z) (ratios) pair every value with its
    mirror, so the tally runs over the unordered pairs of
    `sets.unordered_keys`, one key per pair on the side x > 0 or |z| > 1,
    and the fixed points are added in closed form: r(0) = r(1) = |A|, and
    r(-1) = #{a : -a in A} for ratios.  So E_k = |A|^k + r(-1)^k + 2 *
    (sum of r^k over the tally), with r(-1) = 0 for differences.
    `rep_histogram(A, A, op).moment(k)` and, for k = 2 ratios,
    `energy_mul_product_form` are the routes that check it.  An additive
    self-energy of a narrow set, by the rule of `_packed_histogram` with
    the C(|A|, 2) unordered pairs, is instead the moment of the whole
    packed difference histogram; the tests check it against a Counter
    over the `int_keys` keys.
    """
    op = energy_op(k, flavor)
    if B is not None and B != A:
        return rep_histogram(A, B, op).moment(k)
    n = len(A)
    hist = _packed_histogram(A, A, op, n * (n - 1) // 2)
    if hist is not None:
        return hist.moment(k)
    keys, den = unordered_keys(A, op)
    fixed = n ** k
    if op == "ratio":
        ints = set(A.ints)
        fixed += sum(-a in ints for a in A.ints) ** k
    return fixed + 2 * CountHistogram(Counter(keys), den).moment(k)


def energy_mul_product_form(X: RatSet, Y: RatSet) -> int:
    """#{(x1,x2,y1,y2) in X^2 x Y^2 : x1*y2 = x2*y1}.

    Unlike the ratio-histogram route this tolerates 0 in either set, which
    is the whole point: it is the multiplicative energy of shifted sets.
    Agrees with energy(X, Y, 2, multiplicative) whenever 0 is absent.
    """
    _, ints = integerize(X, Y)
    return mul_pairs_count(*ints)


def l4_union_check(parts: Sequence[RatSet]) -> str:
    """Verdict for E_mul(union)^(1/4) <= sum of E_mul(part)^(1/4).

    Parts must be disjoint and nonempty, 0 excluded.  Returns "ok",
    "violated", or "inconclusive", as decided by `l4_verdict`.  A single
    part is exact equality.
    """
    ps = list(parts)
    if not ps or any(len(p) == 0 for p in ps):
        raise InvalidConfig("parts must be nonempty")
    for p in ps:
        p.require_nonzero()
    if len(ps) == 1:
        return "ok"
    union = RatSet().union(*ps)
    if len(union) != sum(map(len, ps)):
        raise InvalidConfig("parts must be pairwise disjoint")
    return l4_verdict(energy(union, union, 2, "multiplicative"),
                      [energy(p, p, 2, "multiplicative") for p in ps])


def l4_verdict(lhs: int, part_energies: Sequence[int]) -> str:
    """Verdict for lhs^(1/4) <= sum of e^(1/4) over part_energies.

    "ok", "violated" or "inconclusive", as in `l4_union_check`, which
    passes E_mul of the union and of each part; a caller that holds those
    energies already passes them here.  One part is decided exactly.  For
    m >= 2 parts, L = sum of floor(e^(1/4) 2^p) = isqrt(isqrt(e << 4p))
    brackets the sum S of the roots as L <= S 2^p < L + m, so
    lhs 2^(4p) <= L^4 proves "ok" and lhs 2^(4p) >= (L + m)^4 proves
    "violated".  p doubles from L4_BASE_BITS to L4_MAX_BITS; a comparison
    still open there (32 against [2, 2], an equality of irrationals) is
    "inconclusive".
    """
    if len(part_energies) == 1:
        return "ok" if lhs <= part_energies[0] else "violated"
    m, p = len(part_energies), L4_BASE_BITS
    while p <= L4_MAX_BITS:
        low = sum(isqrt(isqrt(e << 4 * p)) for e in part_energies)
        scaled = lhs << 4 * p
        if scaled <= low**4:
            return "ok"
        if scaled >= (low + m) ** 4:
            return "violated"
        p *= 2
    return "inconclusive"
