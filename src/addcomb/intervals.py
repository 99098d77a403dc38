"""Outward-rounded interval arithmetic for irrational report values.

Exact integer/rational comparisons are always preferred; this module
encloses the few quantities that are genuinely irrational (fractional
powers such as x^(2/3) in the report ratios, and logarithm-based
constants).  All enclosures are built with mpmath's interval type, which
rounds outward by construction.  mpmath loads on the first enclosure,
through `_mpmath`, not at import: the exact counts are integer work, and
an integer-only run (`spctl gen`, `energy`, `incidence --set`, a T_o sweep
through `collinear.t_o_count`) never loads it.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Optional

BASE_PREC = 128
MAX_PREC = 2048
# digits after the point in every decimal rendering of a report
DECIMAL_DIGITS = 20


def _mpmath():
    # the one way in to mpmath: imported on the first call, a sys.modules
    # lookup after that
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


def pow_frac(x, num: int, den: int):
    """Enclosure of x^(num/den) for an interval x with positive lower end."""
    iv = _mpmath().iv
    return iv.exp(iv.log(x) * iv.mpf(num) / iv.mpf(den))


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


def decimal_bounds(x) -> tuple[str, str]:
    """Deterministic decimal rendering of interval endpoints, for reports."""
    lo, hi = bounds(x)
    return (fraction_decimal(lo), fraction_decimal(hi))


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


def _power_product(term):
    # term: iterable of (base, Fraction exponent); integer exponents avoid
    # the exp/log detour so they stay tight
    iv = _mpmath().iv
    acc = iv.mpf(1)
    for base, exp in term:
        e = Fraction(exp)
        if e.denominator == 1:
            acc = acc * iv.mpf(base) ** int(e)
        else:
            acc = acc * pow_frac(iv.mpf(base), e.numerator, e.denominator)
    return acc


def _power_sum(terms):
    acc = _mpmath().iv.mpf(0)
    for term in terms:
        acc = acc + _power_product(term)
    return acc


def power_sum_ratio_decimal(numer: int, terms) -> tuple[str, str]:
    """Decimal endpoints of numer / sum_of_power_products, outward rounded.

    terms is a list of terms, each a list of (base, exponent) factors; the
    denominator is the sum of the term products.  Used for the asymptotic
    report ratios whose denominators mix fractional powers.
    """
    with _precision(BASE_PREC) as iv:
        return decimal_bounds(iv.mpf(numer) / _power_sum(terms))


def power_sum_decimal(terms) -> tuple[str, str]:
    """Decimal endpoints of a sum of power products, outward rounded."""
    with _precision(BASE_PREC):
        return decimal_bounds(_power_sum(terms))


def log_squared_fraction_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of (ln n)^2 at base precision."""
    with _precision(BASE_PREC) as iv:
        return bounds(iv.log(iv.mpf(n)) ** 2)


def ln2_bounds() -> tuple[Fraction, Fraction]:
    with _precision(BASE_PREC) as iv:
        return bounds(iv.log(iv.mpf(2)))
