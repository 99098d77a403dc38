"""Ratio-of-sums representation counts r(z) and the R(Z) energy."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb.errors import BudgetExceeded, InvalidConfig
from addcomb.ratios import (
    full_ratio_set,
    popular_ratios,
    r_of_z,
    ratio_profile,
)
from addcomb.sets import GeneratorConfig, RatSet, generate, random_set

small_sets = st.builds(
    RatSet,
    st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=2),
             min_size=1, max_size=5),
)
zs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _r_brute(z, a1, a2) -> int:
    # definition: solutions of a1' + a2' = z (a1 + a2) over (A1 x A2)^2,
    # as pairs of entries of the list of sums a1 + a2 (repeats kept)
    sums = [x + y for x in a1 for y in a2]
    return sum(sums.count(z * s) for s in sums)


def test_r_hand_value():
    a = RatSet([1, 2])
    assert r_of_z(1, a, a) == 6
    assert _r_brute(1, a, a) == 6


@given(zs, small_sets, small_sets)
@settings(max_examples=50, deadline=None)
def test_r_matches_brute_force(z, a1, a2):
    assert r_of_z(z, a1, a2) == _r_brute(z, a1, a2)


def test_ratio_profile_counts():
    a = RatSet([1, 2])
    z = RatSet([1, Fraction(1, 2), 7])
    prof = ratio_profile(z, a, a)
    assert prof.r[Fraction(1)] == 6
    assert prof.R == sum(c * c for c in prof.r.values())
    assert prof.sum_r == sum(prof.r.values())
    assert prof.zero_sums == 0
    assert prof.lemma_ratio is not None and prof.theorem_ratio is not None
    d = prof.to_json()
    assert d["R"] == prof.R and "1/2" in d["r"]


def test_ratio_profile_bounds_absent_when_sizes_reversed():
    big, small = RatSet([1, 2, 3]), RatSet([1])
    prof = ratio_profile(RatSet([1]), big, small)
    assert prof.lemma_ratio is None and prof.theorem_ratio is None


def test_zero_sums_tracked():
    a = RatSet([-1, 1])
    prof = ratio_profile(RatSet([1]), a, a)
    assert prof.zero_sums == 2  # (-1,1) and (1,-1)


def test_full_ratio_set_excludes_zero_only_ratios():
    a = RatSet([-1, 1])  # sums: -2, 0, 0, 2
    z = full_ratio_set(a, a)
    assert z == RatSet([1, -1])  # quotients of nonzero sums only


@given(small_sets, small_sets)
@settings(max_examples=60, deadline=None)
def test_full_ratio_set_matches_fraction_brute(a1, a2):
    sums = {x + y for x in a1 for y in a2} - {0}
    assert full_ratio_set(a1, a2) == RatSet(sp / s for s in sums for sp in sums)


@given(small_sets)
@settings(max_examples=30, deadline=None)
def test_full_ratio_set_members_have_solutions(a):
    z = full_ratio_set(a, a)
    for v in z:
        assert r_of_z(v, a, a) >= 1


def test_popular_ratios_deterministic_and_bounded():
    a = RatSet([1, 2, 3])
    top = popular_ratios(a, a)
    assert len(top) <= len(a) ** 2
    assert popular_ratios(a, a) == top
    top2 = popular_ratios(a, a, 2)
    assert len(top2) == 2
    assert top2.is_subset(full_ratio_set(a, a))
    # 1 is always the most popular ratio for a positive set (diagonal pairs)
    assert Fraction(1) in top2


def test_r_scale_invariance():
    # r(z) is invariant under dilating both sets: counts depend on ratios
    a = RatSet([1, 2, 5])
    b = RatSet([2, 4, 10])
    for z in (1, 2, Fraction(1, 3)):
        assert r_of_z(z, a, a) == r_of_z(z, b, b)


def _brute_ranking(a1, a2, count):
    # the definition: every quotient s'/s of nonzero sums, as a Fraction,
    # ranked by its brute r(z), r descending then z ascending
    sums = {x + y for x in a1 for y in a2} - {0}
    zs = {sp / s for s in sums for sp in sums}
    return RatSet(sorted(zs, key=lambda z: (-_r_brute(z, a1, a2), z))[:count])


@pytest.mark.parametrize("a1, a2, count", [
    (generate(GeneratorConfig(kind="AP", start=Fraction(1), step=Fraction(1), n=8)),
     None, None),
    (generate(GeneratorConfig(kind="AP", start=Fraction(1, 2), step=Fraction(1, 3),
                              n=7)), None, 10),
    (generate(GeneratorConfig(kind="Random", size=7, range=60, seed=3)), None, None),
    (generate(GeneratorConfig(kind="GridExample", s=2, p=3)), None, 20),
    (RatSet([1, 2, 5]), RatSet([Fraction(1, 2), 3, 4, 9]), None),  # A1 != A2
    (RatSet([-2, -1, Fraction(1, 3), 1, 2]), None, 12),  # zero sums: h(0) > 0
    (RatSet([1, 2, 3, 5]), None, 1),
    (RatSet([-1, 1, 3]), RatSet([-3, 2]), 1000),  # more than the candidates
])
def test_popular_ratios_matches_brute_ranking(a1, a2, count):
    a2 = a1 if a2 is None else a2
    want = len(a1) ** 2 if count is None else count
    assert popular_ratios(a1, a2, count) == _brute_ranking(a1, a2, want)


@given(small_sets, small_sets, st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_popular_ratios_matches_brute_ranking_random(a1, a2, count):
    # signed, fractional and zero-sum inputs; ties in r are common here, so
    # the z-ascending tie order is exercised too
    assert popular_ratios(a1, a2, count) == _brute_ranking(a1, a2, count)


def test_popular_ratios_memory_stays_near_the_sums():
    # Random(32, 256) has 292 nonzero sums and up to 292^2 quotients; the
    # merge holds one run per sum, where a table of every quotient's weight
    # peaked at about 8 MB
    a = generate(random_set(32, 256, 1))
    tracemalloc.start()
    try:
        popular_ratios(a, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_popular_ratios_rejects_count_below_one():
    a = RatSet([1, 2, 3, 5])
    for count in (0, -1):
        with pytest.raises(InvalidConfig):
            popular_ratios(a, a, count)


def test_popular_ratios_budget_boundary():
    # cost is |nonzero sums|^2: {-1, 1, 2} has sums -2, 0, 1, 2, 3, 4
    a = RatSet([-1, 1, 2])
    cost = 5 ** 2
    assert popular_ratios(a, a, budget=cost) == popular_ratios(a, a)
    with pytest.raises(BudgetExceeded):
        popular_ratios(a, a, budget=cost - 1)


def test_full_ratio_set_budget_boundary():
    # same cost as popular_ratios: |nonzero sums|^2, here 5^2
    a = RatSet([-1, 1, 2])
    sums = (-2, 1, 2, 3, 4)
    cost = len(sums) ** 2
    z = full_ratio_set(a, a, budget=cost)
    assert z == RatSet(Fraction(p, q) for p in sums for q in sums)
    with pytest.raises(BudgetExceeded, match="25 sum pairs exceed budget 24"):
        full_ratio_set(a, a, budget=cost - 1)
