"""Outward interval arithmetic and deterministic decimal rendering."""

import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv

from addcomb.intervals import (
    bounds,
    decide_leq,
    decimal_bounds,
    fraction_decimal,
    ln2_bounds,
    log_squared_fraction_bounds,
    pow_frac,
    power_sum_decimal,
    power_sum_ratio_decimal,
)


def test_fraction_decimal_exact_values():
    assert fraction_decimal(Fraction(1, 2)) == "0.50000000000000000000"
    assert fraction_decimal(Fraction(-3)) == "-3.00000000000000000000"
    assert fraction_decimal(Fraction(1, 3), digits=5) == "0.33333"
    assert fraction_decimal(Fraction(2, 3), digits=5) == "0.66667"


def test_fraction_decimal_round_half_even():
    assert fraction_decimal(Fraction(1, 8), digits=2) == "0.12"
    assert fraction_decimal(Fraction(3, 8), digits=2) == "0.38"


@given(st.fractions(min_value=-100, max_value=100, max_denominator=97))
def test_fraction_decimal_close_to_true_value(f):
    text = fraction_decimal(f, digits=12)
    assert abs(Fraction(text.replace(".", "")) / 10**12 - f) <= Fraction(1, 2 * 10**12)


def test_bounds_of_exact_inputs_are_tight():
    lo, hi = bounds(iv.mpf(7))
    assert lo == hi == 7
    lo, hi = bounds(iv.mpf(3) / iv.mpf(4))
    assert lo == hi == Fraction(3, 4)


def test_pow_frac_and_root4_enclose_truth():
    lo, hi = bounds(pow_frac(iv.mpf(2), 1, 2))
    # floor and ceil of sqrt(2) at 10 decimals bracket the true value
    floor10 = Fraction(math.isqrt(2 * 10**20), 10**10)
    assert lo <= floor10 + Fraction(1, 10**10) and floor10 <= hi
    assert lo < hi  # irrational, enclosure must be open
    lo, hi = bounds(iv.sqrt(iv.sqrt(iv.mpf(16))))
    assert lo <= 2 <= hi


def test_decide_leq_exact_and_strict():
    assert decide_leq(lambda: iv.mpf(2), lambda: iv.mpf(3)) is True
    assert decide_leq(lambda: iv.mpf(4), lambda: iv.mpf(3)) is False
    # sqrt(2)^2 vs 2: not separable by outward intervals at any precision
    assert decide_leq(lambda: pow_frac(iv.mpf(2), 1, 2) ** 2,
                      lambda: iv.mpf(2)) is None


def test_decide_leq_separates_close_irrationals():
    # sqrt(2) < 1.41421357 needs enough precision but is decidable
    def tight():
        return iv.mpf(141421357) / iv.mpf(10**8)

    assert decide_leq(lambda: pow_frac(iv.mpf(2), 1, 2), tight) is True
    assert decide_leq(tight,
                      lambda: pow_frac(iv.mpf(2), 1, 2)) is False


def test_decimal_bounds_orders_endpoints():
    lo, hi = decimal_bounds(pow_frac(iv.mpf(5), 1, 2))
    assert Fraction(lo) <= Fraction(hi)
    assert lo.startswith("2.2360679")


def test_power_sum_ratio_decimal_rational_case_exact():
    lo, hi = power_sum_ratio_decimal(1, [[(2, 1)]])
    assert lo == hi == "0.50000000000000000000"
    # denominator 2^3 + 4 = 12
    lo, hi = power_sum_ratio_decimal(6, [[(2, 3)], [(4, 1)]])
    assert lo == hi == "0.50000000000000000000"


def test_power_sum_ratio_decimal_irrational_case_encloses():
    # 1 / 2^(1/2): true value 0.7071067811865475244...
    lo, hi = power_sum_ratio_decimal(1, [[(2, Fraction(1, 2))]])
    assert Fraction(lo) <= Fraction(7071067811865475244, 10**19) <= Fraction(hi)
    assert Fraction(hi) - Fraction(lo) < Fraction(1, 10**15)


def test_power_sum_decimal():
    lo, hi = power_sum_decimal([[(3, 2)], [(4, 1)]])
    assert lo == hi == "13.00000000000000000000"


def test_ln2_bounds_enclose():
    lo, hi = ln2_bounds()
    assert lo < hi
    # 21-decimal bracket of ln 2 = 0.693147180559945309417232...
    ref_lo = Fraction(693147180559945309417, 10**21)
    ref_hi = ref_lo + Fraction(1, 10**21)
    assert lo <= ref_hi and ref_lo <= hi
    assert hi - lo < Fraction(1, 10**30)


def test_log_squared_bounds_enclose():
    # a tighter enclosure computed at higher precision must nest inside,
    # which pins the stored bounds as outward (doubles are 1 ulp too coarse
    # to check this directly)
    for n in (2, 16, 1000):
        lo, hi = log_squared_fraction_bounds(n)
        assert 0 < lo <= hi
        saved = iv.prec
        try:
            iv.prec = 512
            tight = iv.log(iv.mpf(n)) ** 2
            tlo, thi = bounds(tight)
        finally:
            iv.prec = saved
        assert lo <= tlo <= thi <= hi
