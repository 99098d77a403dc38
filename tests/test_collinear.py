"""Collinear 6-tuple counts, ordered triple counts, the identity check."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb.collinear import (
    coincident_tuples,
    t_count_brute,
    t_identity_check,
    t_o_count,
    t_split_brute,
    triple_count_report,
)
from addcomb.energy import energy
from addcomb.errors import BudgetExceeded, InvalidConfig
from addcomb.sets import RatSet, generate, random_set

tiny_sets = st.builds(
    RatSet,
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=2),
             min_size=1, max_size=4),
)


def test_t_hand_values():
    z = RatSet([0])
    z01 = RatSet([0, 1])
    z012 = RatSet([0, 1, 2])
    assert t_count_brute(z, z, z) == 1
    assert t_count_brute(z01, z01, z01) == 40
    assert t_count_brute(z012, z012, z012) == 273


def test_t_o_hand_values():
    z01 = RatSet([0, 1])
    z012 = RatSet([0, 1, 2])
    assert t_o_count(z01, z01, z01, "brute") == 0
    assert t_o_count(z012, z012, z012, "brute") == 48
    assert t_o_count(z012, z012, z012, "linehash") == 48
    assert t_o_count(RatSet([0]), RatSet([1, 2, 4]), RatSet([1, 2, 4]),
                     "linehash") == 10


def test_t_split_consistency():
    z012 = RatSet([0, 1, 2])
    total, distinct = t_split_brute(z012, z012, z012)
    assert total == 273 and distinct == 48


def test_t_o_mode_validation():
    a = RatSet([1])
    with pytest.raises(InvalidConfig):
        t_o_count(a, a, a, "magic")


def test_budget_enforced():
    a = RatSet(range(40))
    with pytest.raises(BudgetExceeded):
        t_count_brute(a, a, a, budget=1000)
    with pytest.raises(BudgetExceeded):
        t_o_count(a, a, a, "linehash", 10)


def test_t_o_budget_charges_pivot_work():
    # the ratio route keys |A1| |A2| |A3| ratios, whatever the argument
    # order, and runs at exactly that budget
    a, b, c = RatSet([0, 1]), RatSet([0, 2, 5]), RatSet([1, 2, 3, 7])
    cost = 2 * 3 * 4
    expected = t_o_count(a, b, c, "brute")
    for args in ((a, b, c), (c, a, b), (b, c, a)):
        assert t_o_count(*args, "linehash", cost) == expected
        with pytest.raises(BudgetExceeded) as exc:
            t_o_count(*args, "linehash", cost - 1)
        assert str(exc.value) == f"{cost} ratio keys exceed budget {cost - 1}"


def test_t_o_pivot_singleton_is_quadratic():
    # T_o({0}, A, A) pivots once on the origin: |A|^2 ratio keys, well
    # inside the default budget at |A| = 150 (a sum of fourth powers would
    # charge 2 * 150^4 > 10^9).  With 0 not in A, two grid points are
    # collinear with the origin iff a*d == b*c, so the count is the
    # multiplicative energy minus the |A|^2 coincident pairs.
    a = RatSet(range(1, 151))
    assert t_o_count(RatSet([0]), a, a) == energy(a, a, 2, "multiplicative") - 150 ** 2


def test_t_o_memory_stays_near_the_ratio_keys():
    # on equal grids Random(64, 512) keys its C(64, 3) = 41,664 3-sets by
    # their anharmonic invariant, 16,183 of them distinct; their histogram
    # peaked at 1.2 MB, and the pin is about twice that
    a = generate(random_set(64, 512, 1))
    tracemalloc.start()
    try:
        t_o_count(a, a, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


@given(tiny_sets, tiny_sets, tiny_sets)
@settings(max_examples=60, deadline=None)
def test_t_o_brute_equals_linehash(a, b, c):
    assert t_o_count(a, b, c, "brute") == t_o_count(a, b, c, "linehash")


@given(tiny_sets, tiny_sets, tiny_sets)
@settings(max_examples=40, deadline=None)
def test_t_o_symmetric_in_arguments(a, b, c):
    base = t_o_count(a, b, c, "linehash")
    assert t_o_count(b, a, c, "linehash") == base
    assert t_o_count(c, b, a, "linehash") == base


def test_triple_count_report_fields():
    z012 = RatSet([0, 1, 2])
    rep = triple_count_report(z012, z012, z012)
    assert rep.T == 273 and rep.T_o == 48
    assert rep.degenerate_terms == 225
    assert rep.T == rep.T_o + rep.degenerate_terms
    lo, hi = rep.ratio_vs_bound
    assert Fraction(lo) <= Fraction(hi)
    d = rep.to_json()
    assert d["T"] == 273 and d["T_o"] == 48


@given(tiny_sets, tiny_sets, tiny_sets)
@settings(max_examples=30, deadline=None)
def test_report_split_always_consistent(a, b, c):
    rep = triple_count_report(a, b, c)
    assert rep.T == rep.T_o + rep.degenerate_terms
    assert rep.T_o >= 0 and rep.degenerate_terms >= 0
    if a == b == c:
        # the u1 = u2 = u3 diagonal always contributes |A x A| coincidences
        assert rep.degenerate_terms >= len(a) ** 2


# subsets of one small pool, so the three sets overlap pairwise and jointly
overlapping_sets = st.builds(
    RatSet,
    st.lists(st.sampled_from([-1, 0, Fraction(1, 2), 1, 2, 3]), min_size=1, max_size=4),
)


@given(overlapping_sets, overlapping_sets, overlapping_sets)
@settings(max_examples=80, deadline=None)
def test_coincident_tuples_closed_form(a, b, c):
    total, distinct = t_split_brute(a, b, c)
    assert coincident_tuples(a, b, c) == total - distinct


@given(overlapping_sets | tiny_sets, overlapping_sets | tiny_sets, overlapping_sets)
@settings(max_examples=60, deadline=None)
def test_triple_count_report_matches_six_tuple_brute(a, b, c):
    rep = triple_count_report(a, b, c)
    assert (rep.T, rep.T_o) == t_split_brute(a, b, c)


def test_triple_count_report_n32_under_default_budget():
    a = RatSet(range(1, 33))
    # the 6-tuple route needs (32^3)^2 > 10^9 checks and is refused
    with pytest.raises(BudgetExceeded):
        t_split_brute(a, a, a)
    rep = triple_count_report(a, a, a)
    assert rep.T_o == t_o_count(a, a, a, "linehash")
    assert rep.degenerate_terms == coincident_tuples(a, a, a) == 3 * 32**4 - 2 * 32**2


def test_identity_hand_case():
    # A = {0,1}, C = {2}, D = {3}: only coincidence solutions, T = 2,
    # while the naive diagonal pairing would give 4
    rep = t_identity_check(RatSet([0, 1]), RatSet([2]), RatSet([3]))
    assert rep.ok
    assert rep.lhs == rep.rhs == t_count_brute(RatSet([0, 1]), RatSet([2]),
                                               RatSet([3])) == 2


@given(tiny_sets, tiny_sets, tiny_sets)
@settings(max_examples=40, deadline=None)
def test_identity_random(a, c, d):
    rep = t_identity_check(a, c, d)
    assert rep.ok
    assert rep.rhs == t_count_brute(a, c, d)


def test_t_lower_bound_via_mult_energy():
    a = RatSet([1, 2, 4, 8])
    to = t_o_count(RatSet([0]), a, a, "linehash")
    assert to >= energy(a, a, 2, "multiplicative") - len(a) ** 2
