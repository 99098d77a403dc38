"""Exact rational enclosures of the irrational report values, on integers.

Exact integer/rational comparisons are always preferred; this module
encloses the few quantities that are genuinely irrational (fractional
powers such as x^(2/3) in the report ratios, and logarithm-based
constants) between two Fractions.  A power b^(p/q) lies between integer
q-th roots at ROOT_BITS fractional bits, and ln n between the floor and
ceiling of an atanh series on fixed-point ints, at a BASE_PREC-bit
mantissa.  `decide_leq`, `bounds` and `_precision` are the tests' mpmath
oracle: no package module calls them, so no `spctl` command loads mpmath.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Optional

from .errors import InvalidConfig

BASE_PREC = 128
MAX_PREC = 2048
# digits after the point in every decimal rendering of a report
DECIMAL_DIGITS = 20
# fractional bits of each root bracket in the report decimals
ROOT_BITS = 256


def _mpmath():
    # the one way in to mpmath, for the tests' oracle: imported on the first
    # call, a sys.modules lookup after that
    import mpmath

    return mpmath


@contextmanager
def _precision(prec: int):
    # run the block at iv.prec = prec, then restore the caller's precision;
    # the block gets mpmath's iv context
    iv = _mpmath().iv
    saved = iv.prec
    iv.prec = prec
    try:
        yield iv
    finally:
        iv.prec = saved


def bounds(x) -> tuple[Fraction, Fraction]:
    """Exact rational endpoints of an mpmath interval."""
    # each endpoint is an ivmpf; its _mpi_ holds two identical mpf tuples
    to_rational = _mpmath().libmp.to_rational
    return tuple(Fraction(*map(int, to_rational(e._mpi_[0]))) for e in (x.a, x.b))


def decide_leq(
    lhs_builder: Callable[[], object],
    rhs_builder: Callable[[], object],
) -> Optional[bool]:
    """Decide lhs <= rhs with widening; None means inconclusive at MAX_PREC.

    The builders are called under each candidate precision and must construct
    their intervals from scratch (so they tighten as precision grows).  Only
    the tests call it, as the oracle of `energy.l4_verdict`'s integer route.
    """
    prec = BASE_PREC
    while prec <= MAX_PREC:
        with _precision(prec):
            llo, lhi = bounds(lhs_builder())
            rlo, rhi = bounds(rhs_builder())
        if lhi <= rlo:
            return True
        if llo > rhi:
            return False
        prec *= 2
    return None


def fraction_decimal(f: Fraction, digits: int = DECIMAL_DIGITS) -> str:
    """Round-half-even fixed-point rendering of an exact rational."""
    sign = "-" if f < 0 else ""
    f = abs(f)
    scaled = f * 10**digits
    whole = scaled.numerator // scaled.denominator
    rem2 = 2 * (scaled.numerator - whole * scaled.denominator)
    if rem2 > scaled.denominator or (rem2 == scaled.denominator and whole % 2 == 1):
        whole += 1
    text = str(whole).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _iroot(x: int, q: int) -> int:
    """floor(x^(1/q)) for ints x >= 0, q >= 1: Newton's method from
    2^ceil(bits/q) >= x^(1/q), whose floored steps stay at or above the
    floor root (AM-GM) and fall while r^q > x."""
    r = 1 << -(-x.bit_length() // q)
    while (t := r ** (q - 1)) * r > x:
        r = ((q - 1) * r + x // t) // q
    return r


def _power_sum(terms) -> tuple[Fraction, Fraction]:
    # terms: lists of (int base >= 0, exponent >= 0) factors; an integer
    # exponent is exact, and b^(p/q) lies in [r, r + 1] / 2^ROOT_BITS for
    # r = floor((b^p 2^(q ROOT_BITS))^(1/q))
    lo = hi = Fraction(0)
    for term in terms:
        tlo = thi = Fraction(1)
        for base, exp in term:
            p, q = Fraction(exp).as_integer_ratio()
            if q == 1:
                flo = fhi = Fraction(base) ** p
            else:
                r = _iroot(base**p << q * ROOT_BITS, q)
                flo, fhi = Fraction(r, 1 << ROOT_BITS), Fraction(r + 1, 1 << ROOT_BITS)
            tlo, thi = tlo * flo, thi * fhi
        lo, hi = lo + tlo, hi + thi
    return lo, hi


def power_sum_ratio_decimal(numer: int, terms) -> tuple[str, str]:
    """Decimal endpoints of numer / sum_of_power_products.

    The Fraction ends enclose the value; `fraction_decimal` rounds each to
    nearest, so a string may fall just inside it (the ends are made
    outward with the payload batch, ROADMAP item 7 step 1).

    terms is a list of terms, each a list of (base, exponent) factors; the
    denominator is the sum of the term products.  Used for the asymptotic
    report ratios whose denominators mix fractional powers.  A zero numer
    reads 0, over an empty set's zero sum too.
    """
    lo, hi = _power_sum(terms)
    ends = sorted((numer / hi, numer / lo)) if numer else (0, 0)
    return tuple(map(fraction_decimal, ends))


def power_sum_decimal(terms) -> tuple[str, str]:
    """Decimal endpoints of a sum of power products: Fraction ends that
    enclose it, each rounded to nearest, as `power_sum_ratio_decimal`."""
    return tuple(map(fraction_decimal, _power_sum(terms)))


def _round(x: Fraction, up: bool) -> Fraction:
    # 0 < x < 2^(BASE_PREC-1) rounded down (or up) to a BASE_PREC-bit
    # mantissa m: x ~ m / 2^s
    a, b = x.as_integer_ratio()
    s = BASE_PREC - a.bit_length() + b.bit_length()
    m = -(-(a << s) // b) if up else (a << s) // b
    if m >> BASE_PREC:  # 2^s x >= 2^BASE_PREC: one bit fewer
        m, s = (m + up) >> 1, s - 1
    return Fraction(m, 1 << s)


def _atanh(a: int, b: int, bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= atanh(t) 2^bits <= hi, for 0 <= t = a/b <= 1/3.

    lo sums floor(p_i / (2i + 1)) over the floored powers p_0 = floor(t 2^bits),
    p_(i+1) = floor(p_i a^2 / b^2) until p_K = 0.  Each p_i is within 2 of
    t^(2i+1) 2^bits, so each term is less than 3 short, and the tail past K
    is below 2 / (1 - t^2) < 3."""
    lo, i, p = 0, 0, (a << bits) // b
    while p:
        lo += p // (2 * i + 1)
        p = p * a * a // (b * b)
        i += 1
    return lo, lo + 3 * (i + 1)


def _ln_bounds(n: int) -> tuple[Fraction, Fraction]:
    """ln n for n >= 2, rounded down and up to a BASE_PREC-bit mantissa:
    ln n = 2k atanh(1/3) + 2 atanh((n - 2^k) / (n + 2^k)) for 2^k <= n < 2^(k+1),
    on fixed-point brackets that double their bits until both ends round
    alike (ln n is irrational, so they do)."""
    if n < 2:
        raise InvalidConfig(f"ln n is enclosed for n >= 2, got {n}")
    k = n.bit_length() - 1
    bits = 2 * BASE_PREC
    while True:
        l2, h2 = _atanh(1, 3, bits)
        lt, ht = _atanh(n - (1 << k), n + (1 << k), bits)
        lo = Fraction(2 * (k * l2 + lt), 1 << bits)
        hi = Fraction(2 * (k * h2 + ht), 1 << bits)
        ends = (_round(lo, False), _round(hi, True))
        if ends == (_round(hi, False), _round(lo, True)):
            return ends
        bits *= 2


def log_squared_fraction_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of (ln n)^2 at base precision: the squares
    of the ends of ln n, rounded outward to a BASE_PREC-bit mantissa."""
    lo, hi = _ln_bounds(n)
    return _round(lo * lo, False), _round(hi * hi, True)


def ln2_bounds() -> tuple[Fraction, Fraction]:
    return _ln_bounds(2)
