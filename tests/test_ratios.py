"""Ratio-of-sums representation counts r(z) and the R(Z) energy."""

import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import ratios
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
    # Random(32, 256) has 292 nonzero sums and up to 292^2 quotients; one
    # band of keys lives at a time, where a table of every quotient's
    # weight peaked at about 8 MB
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


def test_popular_ratios_on_an_empty_first_set():
    # the default count |A1|^2 is 0, so the selection is empty; an explicit
    # count still has to be at least 1
    b = RatSet([1, 2])
    assert popular_ratios(RatSet(), b) == RatSet()
    assert popular_ratios(RatSet(), RatSet()) == RatSet()
    assert popular_ratios(RatSet(), b, 3) == RatSet()
    with pytest.raises(InvalidConfig):
        popular_ratios(RatSet(), b, 0)


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


def _brute_weights(a1, a2):
    # w(z) = r(z) - h(0)^2 for every quotient z of nonzero sums, as a
    # Counter of Fractions over the distinct sums with their multiplicities
    h = Counter(x + y for x in a1 for y in a2)
    h.pop(0, None)
    w = Counter()
    for s, hs in h.items():
        for sp, hsp in h.items():
            w[sp / s] += hs * hsp
    return w


def _band_count(a1, a2):
    bands, _, _ = ratios._quotients(a1, a2, 10**9)
    return sum(1 for _ in bands)


signed_sets = st.builds(
    RatSet,
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3),
             min_size=1, max_size=7),
)


@pytest.mark.parametrize("bands", ["one", "two", "more than keys"])
@given(a1=signed_sets, a2=st.one_of(st.none(), signed_sets),
       counts=st.lists(st.integers(1, 60), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_quotient_bands_match_a_fraction_ranking(bands, a1, a2, counts):
    # the band constant forces one band, two, or one per (sum, sum) pair,
    # which is more bands than keys whenever two pairs share a quotient;
    # signed inputs give zero sums and quotients of both signs
    a2 = a1 if a2 is None else a2
    h = {x + y for x in a1 for y in a2} - {0}
    pairs = len(h) ** 2
    band_pairs = {"one": max(pairs, 1), "two": max(-(-pairs // 2), 1),
                  "more than keys": 1}[bands]
    w = _brute_weights(a1, a2)
    ranked = sorted(w, key=lambda z: (-w[z], z))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratios, "_BAND_PAIRS", band_pairs)
        assert _band_count(a1, a2) == (1 if bands == "one" or pairs < 2 else
                                       2 if bands == "two" else pairs)
        assert full_ratio_set(a1, a2) == RatSet(w)
        for count in counts:
            assert popular_ratios(a1, a2, count) == RatSet(ranked[:count])


@pytest.mark.parametrize("band_pairs", [1, 7, 100, 10**9])
@pytest.mark.parametrize("n, count", [(12, 30), (16, 50), (32, 200)])
def test_popular_ratios_ties_inside_a_band(monkeypatch, band_pairs, n, count):
    # an AP has many quotients of equal weight, and the cut at count falls
    # inside a run of ties; a band dict is not K-ordered, so only the
    # (w, -K) comparison keeps the z-ascending tie rule
    a = generate(GeneratorConfig(kind="AP", start=Fraction(1), step=Fraction(1), n=n))
    # raising=False: the ranking checked here does not depend on the bands
    monkeypatch.setattr(ratios, "_BAND_PAIRS", band_pairs, raising=False)
    w = _brute_weights(a, a)
    ranked = sorted(w, key=lambda z: (-w[z], z))
    assert w[ranked[count - 1]] == w[ranked[count]]  # a tie straddles the cut
    assert popular_ratios(a, a, count) == RatSet(ranked[:count])
    assert popular_ratios(a, a) == RatSet(ranked[:n * n])


def test_ratio_profile_takes_both_routes():
    # r(p/q) sums over the multiples kq in the span of the sums when there
    # are fewer of them than sums, and over the sums otherwise
    a1, a2 = RatSet([1, 2, 100]), RatSet([1, 3, 250])
    sums = {x + y for x in a1 for y in a2}
    lo, hi = min(sums), max(sums)
    Z = RatSet([Fraction(1, 2), 2, Fraction(103, 101), Fraction(350, 101),
                Fraction(-7, 300), 0, 1])
    multiples = [hi // z.denominator + lo // -z.denominator + 1 for z in Z]
    assert {m < len(sums) for m in multiples} == {True, False}
    prof = ratio_profile(Z, a1, a2)
    assert prof.r == {z: _r_brute(z, a1, a2) for z in Z}
    assert prof.r[Fraction(103, 101)] > 0 and prof.r[Fraction(350, 101)] > 0
    # a span of the sums far past sys.maxsize takes the scan, with no range
    # length ever taken
    wide = RatSet([1, 2, 10**30])
    Z = RatSet([Fraction(1, 2), 1, 2, Fraction(10**30 + 2, 3)])
    assert ratio_profile(Z, wide, wide).r == {z: _r_brute(z, wide, wide) for z in Z}


def test_ratio_layer_on_zero_alone():
    # A = {0} has the one sum 0: no quotient of nonzero sums, while every z
    # has r(z) = h(0)^2 = 1
    a = RatSet([0])
    assert popular_ratios(a, a) == RatSet()
    assert popular_ratios(a, a, 5) == RatSet()
    assert full_ratio_set(a, a) == RatSet()
    Z = RatSet([0, 1, Fraction(-2, 3), 7])
    prof = ratio_profile(Z, a, a)
    assert prof.r == {z: 1 for z in Z}
    assert (prof.R, prof.sum_r, prof.zero_sums) == (4, 4, 1)
    assert r_of_z(Fraction(5, 3), a, a) == 1
    assert ratio_profile(RatSet(), a, a).r == {}
