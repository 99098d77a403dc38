"""Integer enclosures and deterministic decimal rendering, against mpmath.

The report enclosures run on ints and Fractions.  mpmath's interval type,
which rounds outward by construction, is their oracle here: `pow_frac`,
`decimal_bounds` and the power sums below are the mpmath route the
package used before, at the same 128-bit precision, and a 512-bit
interval stands in for the true value.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv

from addcomb.errors import InvalidConfig
from addcomb.intervals import (
    BASE_PREC,
    _iroot,
    _power_sum,
    _precision,
    bounds,
    decide_leq,
    fraction_decimal,
    ln2_bounds,
    log_squared_fraction_bounds,
    power_sum_decimal,
    power_sum_ratio_decimal,
)


def pow_frac(x, num: int, den: int):
    """mpmath enclosure of x^(num/den) for an interval x with positive lower end."""
    return iv.exp(iv.log(x) * iv.mpf(num) / iv.mpf(den))


def decimal_bounds(x) -> tuple[str, str]:
    return tuple(map(fraction_decimal, bounds(x)))


def oracle_sum(terms):
    # the sum of power products in the current mpmath precision; integer
    # exponents avoid the exp/log detour so they stay tight
    acc = iv.mpf(0)
    for term in terms:
        prod = iv.mpf(1)
        for base, exp in term:
            e = Fraction(exp)
            if e.denominator == 1:
                prod = prod * iv.mpf(base) ** int(e)
            else:
                prod = prod * pow_frac(iv.mpf(base), e.numerator, e.denominator)
        acc = acc + prod
    return acc


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
    # floor and ceil of sqrt(2) at 10 decimals bracket the true value, for
    # the oracle and for the integer root bracket alike
    floor10 = Fraction(math.isqrt(2 * 10**20), 10**10)
    for lo, hi in (bounds(pow_frac(iv.mpf(2), 1, 2)), _power_sum([[(2, Fraction(1, 2))]])):
        assert lo <= floor10 + Fraction(1, 10**10) and floor10 <= hi
        assert lo < hi  # irrational, enclosure must be open
    for lo, hi in (bounds(iv.sqrt(iv.sqrt(iv.mpf(16)))), _power_sum([[(16, Fraction(1, 4))]])):
        assert lo <= 2 <= hi


@given(st.integers(0, 2**600), st.integers(1, 12))
@example(0, 3)
@example(1, 11)
@example(2**300, 3)
@example(3**33 - 1, 11)
@example(3**33, 11)
def test_iroot_is_the_floor_root(x, q):
    r = _iroot(x, q)
    assert r**q <= x < (r + 1) ** q


@given(st.integers(1, 5000), st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                                              Fraction(4, 3), Fraction(5, 3), Fraction(30, 11)]))
def test_power_brackets_hold_in_integers(b, e):
    # lo^q <= b^p <= hi^q with lo, hi = [r, r + 1] / 2^bits, in integers
    lo, hi = _power_sum([[(b, e)]])
    p, q = e.numerator, e.denominator
    assert lo.numerator**q <= b**p * lo.denominator**q
    assert b**p * hi.denominator**q <= hi.numerator**q


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
    with _precision(BASE_PREC):
        ref = decimal_bounds(pow_frac(iv.mpf(5), 1, 2))
    lo, hi = power_sum_decimal([[(5, Fraction(1, 2))]])
    assert Fraction(lo) <= Fraction(hi)
    assert lo.startswith("2.2360679")
    assert (lo, hi) == ref


# the term shapes of the report ratios in src/, sizes drawn below
_SHAPES = [
    lambda a, b, c: [[(a, 1), (b, Fraction(5, 3)), (c, Fraction(4, 3))]],
    lambda a, b, c: [[(c, Fraction(1, 2)), (a, Fraction(5, 3)), (b, Fraction(4, 3))],
                     [(c, Fraction(2, 3)), (a, Fraction(4, 3)), (b, Fraction(4, 3))],
                     [(c, 1), (a, 2)]],
    lambda a, b, c: [[(a, Fraction(10, 3)), (b, Fraction(8, 3))]],
    lambda a, b, c: [[(a, 12), (b, 10)]],
    lambda a, b, c: [[(a, Fraction(30, 11))]],
    lambda a, b, c: [[(a, Fraction(22))]],
    lambda a, b, c: [[(64 * a * a * b * b, Fraction(1, 3))], [(4 * a + b, 1)]],
]


@st.composite
def report_ratios(draw):
    size = st.integers(1, 300)
    terms = draw(st.sampled_from(_SHAPES))(draw(size), draw(size), draw(size))
    # a count of the size of the bound, times a small rational
    scale = draw(st.fractions(min_value=0, max_value=50, max_denominator=1000))
    return math.floor(_power_sum(terms)[0] * scale), terms


@settings(max_examples=300, deadline=None)
@given(report_ratios())
@example((1, [[(2, Fraction(1, 2))]]))
@example((5, [[(0, Fraction(1, 3)), (3, 1)], [(2, 1)]]))
def test_power_sums_match_the_mpmath_oracle(case):
    numer, terms = case
    lo, hi = _power_sum(terms)
    with _precision(512):
        wlo, whi = bounds(oracle_sum(terms))
    # meets the 512-bit enclosure, about 2^256 times narrower, so a bracket
    # one root step off the value would miss it
    assert lo <= whi and wlo <= hi
    with _precision(BASE_PREC):
        ref_sum = decimal_bounds(oracle_sum(terms))
        ref_ratio = decimal_bounds(iv.mpf(numer) / oracle_sum(terms))
    # nested in the oracle's strings, so equal to them whenever they agree
    for (glo, ghi), (rlo, rhi) in ((power_sum_decimal(terms), ref_sum),
                                   (power_sum_ratio_decimal(numer, terms), ref_ratio)):
        assert Fraction(rlo) <= Fraction(glo) <= Fraction(ghi) <= Fraction(rhi)


def test_power_sum_ratio_decimal_rational_case_exact():
    lo, hi = power_sum_ratio_decimal(1, [[(2, 1)]])
    assert lo == hi == "0.50000000000000000000"
    # denominator 2^3 + 4 = 12
    lo, hi = power_sum_ratio_decimal(6, [[(2, 3)], [(4, 1)]])
    assert lo == hi == "0.50000000000000000000"


def test_power_sum_ratio_decimal_zero_count_over_an_empty_set():
    # an empty set's count over its zero bound reads 0, as the mpmath route gave
    zero = ("0.00000000000000000000",) * 2
    assert power_sum_ratio_decimal(0, [[(0, 1), (3, Fraction(5, 3))]]) == zero
    assert power_sum_ratio_decimal(0, [[(0, Fraction(10, 3)), (5, Fraction(8, 3))]]) == zero


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


def test_log_bounds_equal_the_mpmath_oracle():
    # the stored epsilon of every regularize trace is built from these, so
    # they must be mpmath's 128-bit rationals exactly; past 2^128 mpmath
    # would round n itself first, so the random n stay below it
    rng = random.Random(7)
    ns = [*range(2, 2001), *(rng.randrange(2, 10**9) for _ in range(100)),
          *(rng.randrange(2, 2**128) for _ in range(50)), 2**64, 2**127 - 1]
    with _precision(BASE_PREC):
        assert ln2_bounds() == bounds(iv.log(iv.mpf(2)))
        for n in ns:
            assert log_squared_fraction_bounds(n) == bounds(iv.log(iv.mpf(n)) ** 2), n


def test_log_bounds_need_n_at_least_2():
    for n in (1, 0, -5):
        with pytest.raises(InvalidConfig, match="n >= 2"):
            log_squared_fraction_bounds(n)
