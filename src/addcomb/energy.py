"""Representation-function histograms and moment energies of rational sets.

E_k of a pair (A, B) is the k-th moment of the difference (additive) or
ratio (multiplicative) representation histogram.  Everything here is exact:
the tallies run on plain ints after clearing denominators once (one common
scale for A and B), `rep_histogram` turns only its distinct keys back into
Fractions, and the one genuinely irrational comparison (the l4 union
inequality) goes through outward-rounded interval arithmetic rather than
floats.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from . import intervals
from ._kernels import mul_pairs_count
from .errors import (
    DivisionByZero,
    EmptyCandidateList,
    InvalidConfig,
    PostconditionFailed,
)
from .sets import RatSet, common_scale, scaled_ints

K_MAX = 8

_OPS = ("diff", "ratio", "sum", "prod")


@dataclass(frozen=True)
class CountHistogram:
    """Multiplicity map x -> r(x); zero-count values are absent."""

    entries: dict

    def moment(self, k: int) -> int:
        return sum(m ** k for m in self.entries.values())

    @property
    def mass(self) -> int:
        return sum(self.entries.values())

    @property
    def support_size(self) -> int:
        return len(self.entries)

    @property
    def max_count(self) -> int:
        return max(self.entries.values()) if self.entries else 0

    def count(self, x) -> int:
        return self.entries.get(Fraction(x), 0)


@dataclass(frozen=True)
class DLowerEstimate:
    """Certified lower bound for d_k: value attained by the stored witness."""

    k: int
    value: Fraction
    witness: RatSet


def int_histogram(A: RatSet, B: RatSet, op: str) -> tuple[Counter, int]:
    """Counts of a op b over A x B on cleared-denominator ints, and the scale.

    With s = common_scale(A, B) and a, b the scaled ints, the keys are
    a -/+ b for diff/sum (value k/s), a*b for prod (value k/s^2), and the
    reduced pair (p, q) with q > 0 for ratio (value p/q).  Pairs run A-major,
    so each key first appears where the Fraction tally would put it.
    """
    if op not in _OPS:
        raise InvalidConfig(f"unknown op {op!r}")
    if op == "ratio" and Fraction(0) in B:
        raise DivisionByZero("ratio histogram needs 0 not in B")
    scale = common_scale(A, B)
    xs = scaled_ints(A, scale)
    ys = scaled_ints(B, scale)
    if op == "diff":
        keys = (a - b for a in xs for b in ys)
    elif op == "sum":
        keys = (a + b for a in xs for b in ys)
    elif op == "prod":
        keys = (a * b for a in xs for b in ys)
    else:
        keys = ((a // g, b // g) for a in xs for b in ys
                for g in (gcd(a, b) if b > 0 else -gcd(a, b),))
    return Counter(keys), scale


def rep_histogram(A: RatSet, B: RatSet, op: str = "diff") -> CountHistogram:
    """Histogram of a op b over A x B for op in {diff, ratio, sum, prod}."""
    counts, scale = int_histogram(A, B, op)
    if op == "ratio":
        return CountHistogram({Fraction(p, q): m for (p, q), m in counts.items()})
    den = scale * scale if op == "prod" else scale
    return CountHistogram({Fraction(k, den): m for k, m in counts.items()})


def energy_op(k: int, flavor: str) -> str:
    """The histogram op behind E_k of `flavor`; rejects k or flavor."""
    if not 2 <= k <= K_MAX:
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
    the arithmetic is arbitrary precision either way.  The moment is taken
    straight from the int counts; no Fraction is built.
    """
    if B is None:
        B = A
    counts, _ = int_histogram(A, B, energy_op(k, flavor))
    return sum(m ** k for m in counts.values())


def energy_mul_product_form(X: RatSet, Y: RatSet) -> int:
    """#{(x1,x2,y1,y2) in X^2 x Y^2 : x1*y2 = x2*y1}.

    Unlike the ratio-histogram route this tolerates 0 in either set, which
    is the whole point: it is the multiplicative energy of shifted sets.
    Agrees with energy(X, Y, 2, multiplicative) whenever 0 is absent.
    """
    scale = common_scale(X, Y)
    return mul_pairs_count(scaled_ints(X, scale), scaled_ints(Y, scale))


def d_lower(A: RatSet, k: int, flavor: str,
            candidates: Sequence[RatSet]) -> DLowerEstimate:
    """Best E_k(A,B) / (|A| |B|^(k-1)) over the candidate list.

    This is a lower bound for the supremum over all finite B; the true sup
    is not computable by enumeration, so the witness is always reported.
    Ties keep the earliest candidate.
    """
    cand = list(candidates)
    if not cand or any(len(B) == 0 for B in cand):
        raise EmptyCandidateList("need at least one nonempty candidate")
    best_val: Optional[Fraction] = None
    best_wit: Optional[RatSet] = None
    for B in cand:
        val = Fraction(energy(A, B, k, flavor), len(A) * len(B) ** (k - 1))
        if best_val is None or val > best_val:
            best_val = val
            best_wit = B
    if best_val is None or best_wit is None:
        raise PostconditionFailed("no candidate was scored")
    return DLowerEstimate(k=k, value=best_val, witness=best_wit)


def l4_union_check(parts: Sequence[RatSet]) -> str:
    """Verdict for E_mul(union)^(1/4) <= sum of E_mul(part)^(1/4).

    Parts must be disjoint and nonempty, 0 excluded.  Returns "ok",
    "violated", or "inconclusive"; the comparison is done on outward
    intervals after raising the right side to the 4th power, widening the
    precision until decidable.  A single part is exact equality, decided
    without intervals.
    """
    ps = list(parts)
    if not ps or any(len(p) == 0 for p in ps):
        raise InvalidConfig("parts must be nonempty")
    for i, p in enumerate(ps):
        p.require_nonzero()
        for q in ps[i + 1:]:
            if not p.is_disjoint(q):
                raise InvalidConfig("parts must be pairwise disjoint")
    if len(ps) == 1:
        return "ok"
    union = ps[0]
    for p in ps[1:]:
        union = union.union(p)
    lhs = energy(union, union, 2, "multiplicative")
    part_energies = [energy(p, p, 2, "multiplicative") for p in ps]

    def lhs_iv():
        return intervals.from_int(lhs)

    def rhs_iv():
        s = intervals.from_int(0)
        for e in part_energies:
            s = s + intervals.root4(intervals.from_int(e))
        return (s * s) * (s * s)

    verdict = intervals.decide_leq(lhs_iv, rhs_iv)
    if verdict is True:
        return "ok"
    if verdict is False:
        return "violated"
    return "inconclusive"
