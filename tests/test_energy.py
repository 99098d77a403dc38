"""Representation histograms, k-energies, the quarter-power union check."""

import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv, mp, workdps

import addcomb
from addcomb._kernels_py import packed_pair_counts
from addcomb.energy import (
    L4_BASE_BITS,
    L4_MAX_BITS,
    _packed_histogram,
    energy,
    energy_mul_product_form,
    l4_union_check,
    l4_verdict,
    rep_histogram,
)
from addcomb.errors import DivisionByZero, InvalidConfig
from addcomb.intervals import BASE_PREC, MAX_PREC, decide_leq
from addcomb.sets import (
    RatSet,
    ap,
    generate,
    gp,
    int_keys,
    integerize,
    random_set,
    set_op,
    unordered_keys,
)
from source_rules import call_sites, findings, nodes

small_sets = st.builds(
    RatSet,
    st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=3),
             min_size=1, max_size=6),
)
nonzero_sets = st.builds(
    RatSet,
    st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=3)
             .filter(lambda v: v != 0), min_size=1, max_size=6),
)


def test_rep_histogram_diff():
    h = rep_histogram(RatSet([1, 2, 3]), RatSet([1, 2, 3]), "diff")
    assert h.count(0) == 3 and h.count(1) == 2 and h.count(2) == 1
    assert h.count(5) == 0
    assert h.mass == 9 and h.support_size == 5 and h.max_count == 3


def test_rep_histogram_ops():
    a = RatSet([1, 2])
    assert rep_histogram(a, a, "sum").count(3) == 2
    assert rep_histogram(a, a, "prod").count(2) == 2
    assert rep_histogram(a, a, "ratio").count(Fraction(1, 2)) == 1
    with pytest.raises(InvalidConfig):
        rep_histogram(a, a, "mod")
    with pytest.raises(DivisionByZero):
        rep_histogram(a, RatSet([0, 1]), "ratio")


def test_energy_hand_values():
    a = RatSet([1, 2, 3])
    assert energy(a, a, 2, "additive") == 19
    assert energy(a, a, 3, "additive") == 45
    assert energy(RatSet([1, 2, 4]), None, 2, "multiplicative") == 19
    assert energy(RatSet([1, 2, 3, 4]), k=2) == 44
    assert energy(RatSet(range(1, 9)), k=3) == 2080


def test_energy_validation():
    a = RatSet([1, 2])
    with pytest.raises(InvalidConfig):
        energy(a, a, 1)
    with pytest.raises(InvalidConfig):
        energy(a, a, 9)
    with pytest.raises(InvalidConfig):
        energy(a, a, 2, "modular")


@given(small_sets, small_sets, st.integers(2, 4))
def test_additive_energy_symmetric(a, b, k):
    # r_(A-B)(x) = r_(B-A)(-x), so all moments agree
    assert energy(a, b, k, "additive") == energy(b, a, k, "additive")


@given(small_sets, st.integers(2, 4))
@settings(max_examples=60)
def test_energy_against_quadruple_brute_force(a, k):
    # independent definition: number of 2k-tuples with equal differences,
    # computed here as sum over x of r(x)^k via raw dictionaries
    r = Counter(p - q for p in a for q in a)
    assert energy(a, a, k, "additive") == sum(m**k for m in r.values())


@given(small_sets)
def test_cs_ladder(a):
    n = len(a)
    assert energy(a, a, 2) ** 2 <= n * n * energy(a, a, 3)


@given(nonzero_sets)
def test_mul_energy_vs_product_and_ratio_sets(a):
    em = energy(a, a, 2, "multiplicative")
    n = len(a)
    assert em * len(set_op(a, a, "prod")) >= n**4
    assert em * len(set_op(a, a, "ratio")) >= n**4


signed_rationals = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    min_size=1, max_size=6)
_BRUTE_OPS = {
    "diff": lambda a, b: a - b,
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "ratio": lambda a, b: a / b,
}


@given(signed_rationals,
       signed_rationals.map(lambda vs: [v for v in vs if v != 0]),
       st.fractions(min_value=-9, max_value=-1, max_denominator=5))
@settings(max_examples=80, deadline=None)
def test_int_route_matches_fraction_oracle(a_vals, b_vals, neg):
    # mixed denominators, 0 in A, a negative element in B: the
    # cleared-denominator tallies must equal a brute Fraction tally
    A = RatSet([0, *a_vals])
    B = RatSet([neg, *b_vals])
    for op, f in _BRUTE_OPS.items():
        brute = Counter(f(a, b) for a in A for b in B)
        assert rep_histogram(A, B, op).entries == brute, op
    for flavor, op in (("additive", "diff"), ("multiplicative", "ratio")):
        brute = Counter(_BRUTE_OPS[op](a, b) for a in A for b in B)
        for k in (2, 3, 4):
            assert energy(A, B, k, flavor) == sum(m**k for m in brute.values())


nonzero_rationals = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(lambda v: v != 0),
    max_size=6)
FLAVOR_OPS = {"additive": "diff", "multiplicative": "ratio"}


def _self_energy_input(flavor, s_vals, t_vals, shared):
    # ratios: A = S u -T, with T holding S[:shared], so pairs {a, -a} occur;
    # differences: A holds 0 next to S and T
    if flavor == "multiplicative":
        return RatSet([*s_vals, *(-v for v in (*s_vals[:shared], *t_vals))])
    return RatSet([0, *s_vals, *t_vals])


def _brute_moment(A, B, flavor, k):
    r = Counter(_BRUTE_OPS[FLAVOR_OPS[flavor]](a, b) for a in A for b in B)
    return sum(m**k for m in r.values())


@given(st.sampled_from(sorted(FLAVOR_OPS)), nonzero_rationals.filter(bool),
       nonzero_rationals, st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_self_energy_over_unordered_pairs(flavor, s_vals, t_vals, shared):
    # the unordered tally plus its fixed points against a brute Fraction
    # tally and against the ordered histogram of the same keys
    A = _self_energy_input(flavor, s_vals, t_vals, shared)
    hist = rep_histogram(A, A, FLAVOR_OPS[flavor])
    for k in range(2, 9):
        e = energy(A, A, k, flavor)
        assert e == _brute_moment(A, A, flavor, k) == hist.moment(k), k


@given(st.sampled_from(sorted(FLAVOR_OPS)), nonzero_rationals.filter(bool),
       nonzero_rationals, st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_self_energy_of_an_equal_copy(flavor, s_vals, t_vals, shared):
    # B equal to A by value, not by identity, takes the same route
    A = _self_energy_input(flavor, s_vals, t_vals, shared)
    B = RatSet(reversed(A.elements))
    assert B == A and B is not A
    for k in range(2, 9):
        assert energy(A, B, k, flavor) == _brute_moment(A, A, flavor, k), k


def test_self_energy_fixed_points_by_hand():
    # A = {-2, -1, 1, 2}: r(1) = 4, r(-1) = 4, r(2) = r(1/2) = r(-2) =
    # r(-1/2) = 2, so E_2 = 16 + 16 + 4 * 4 = 48
    assert energy(RatSet([-2, -1, 1, 2]), k=2, flavor="multiplicative") == 48
    assert energy(RatSet([]), k=3) == 0


def test_unordered_keys_refuse_like_int_keys():
    with pytest.raises(InvalidConfig):
        unordered_keys(RatSet([1, 2]), "sum")
    with pytest.raises(DivisionByZero) as exc:
        energy(RatSet([0, 1]), k=2, flavor="multiplicative")
    assert str(exc.value) == "ratio set: set contains 0"


def test_energy_mul_product_form_matches_prod_histogram():
    x, y = RatSet([1, 2, 3]), RatSet([2, 5])
    h = rep_histogram(x, y, "prod")
    assert energy_mul_product_form(x, y) == h.moment(2)


def test_energy_mul_product_form_allows_zero():
    # the identity's terms are shifted sets that may contain 0; the product
    # form must handle that (ratio-form energy could not)
    x, y = RatSet([0, 1]), RatSet([1, 2])
    # products: 0,0,1,2 -> r(0)=2, r(1)=1, r(2)=1 -> sum of squares 6
    assert energy_mul_product_form(x, y) == 6


# The packed sum and difference tallies against the definitional route, a
# Counter over the `int_keys` keys.  `energy` and `rep_histogram(...).moment`
# both take the packed route on a narrow set, so neither checks the other
# there.  Values k/d, with |k| <= m for one m per pair of sets and d from a
# set of denominators per set, mix denominators and signs; up to 30 values
# within [-m, m] reach both sides of the route rule (about one example in 6
# packs the sum tally)
@st.composite
def packable_pairs(draw):
    m = draw(st.integers(1, 30))

    def one():
        dens = draw(st.sampled_from([(1,), (2,), (1, 2), (1, 3), (2, 3)]))
        size = draw(st.integers(0, 30))
        value = st.builds(Fraction, st.integers(-m, m), st.sampled_from(dens))
        return RatSet(draw(st.lists(value, min_size=size, max_size=size)))

    return one(), one()


def _pair_counter(A, B, op):
    keys, den = int_keys(A, B, op)
    return Counter(keys), den


def _packs(A, B, op):
    return _packed_histogram(A, B, op, len(A) * len(B)) is not None


@given(st.sampled_from(["sum", "diff"]), packable_pairs())
@example("diff", (RatSet([]), RatSet([1])))
@example("sum", (RatSet([Fraction(1, 2)]), RatSet([Fraction(-2, 3)])))
@example("diff", (RatSet(range(-12, 12)), RatSet(Fraction(k, 2) for k in range(-12, 12))))
@settings(max_examples=200, deadline=None)
def test_packed_tally_matches_the_pair_counter(op, sets):
    A, B = sets
    h = rep_histogram(A, B, op)
    assert (h.counts, h.den) == _pair_counter(A, B, op)
    assert isinstance(h.counts, Counter)
    if len(A) and len(B):
        # the kernel itself, whichever way the rule goes
        _, (xs, ys) = integerize(A, B)
        assert packed_pair_counts(xs, ys, op == "diff") == h.counts
    diffs = _pair_counter(A, A, "diff")[0].values()
    for k in (2, 3, 8):
        assert energy(A, A, k) == sum(r**k for r in diffs), k


@pytest.mark.parametrize("config, self_packs, packs", [
    (ap(1, 1, 255), True, True),  # r(0) = 255, the last one-byte count
    (ap(1, 1, 256), True, True),  # r(0) = 256, two-byte slots
    (ap(Fraction(1, 2), Fraction(1, 3), 40), True, True),
    (random_set(60, 240, 1), True, True),
    (gp(1, 2, 40), False, False),  # 2**39 slots: the Counter route
    (random_set(16, 10**6, 1), False, False),
    # 16 slots: more than C(8, 2) / 2 unordered pairs, at most 8**2 / 2 ordered
    (ap(1, 1, 8), False, True),
], ids=str)
def test_both_routes_match_the_pair_counter(config, self_packs, packs):
    A = generate(config)
    n = len(A)
    assert (_packed_histogram(A, A, "diff", n * (n - 1) // 2) is not None) is self_packs
    for op in ("sum", "diff"):
        assert _packs(A, A, op) is packs
        h = rep_histogram(A, A, op)
        assert (h.counts, h.den) == _pair_counter(A, A, op), op
    assert h.count(0) == n
    diffs = _pair_counter(A, A, "diff")[0].values()
    for k in (2, 3):
        # on GP the unordered Counter tally against the ordered one
        assert energy(A, A, k) == sum(r**k for r in diffs) == h.moment(k), k


@pytest.mark.parametrize("n", [255, 256, 65535, 65536])
def test_packed_slots_hold_the_largest_count(n):
    # AP(0, 1, n) - AP(0, 1, n): r(x) = n - |x|, so r(0) = n fills one
    # slot of the narrowest width that holds it (1, 2, 2 and 4 bytes)
    xs = list(range(n))
    counts = packed_pair_counts(xs, xs, True)
    assert len(counts) == 2 * n - 1
    assert all(r == n - abs(x) for x, r in counts.items())
    assert packed_pair_counts(xs, xs, False)[n - 1] == n


def test_l4_union_single_and_pair():
    a = RatSet([1, 2, 3, 4])
    assert l4_union_check([a]) == "ok"
    assert l4_union_check([RatSet([1, 2]), RatSet([3, 4])]) == "ok"


def test_l4_verdict_violated_on_two_parts():
    # (1 + 1)^4 = 16 < 10^6: the integer roots decide the two-part sum as violated
    assert l4_verdict(10**6, [1, 1]) == "violated"
    assert l4_verdict(16, [1, 1]) == "ok"


def _oracle_verdict(lhs, part_energies):
    # the interval route: mpmath fourth roots, widened by decide_leq
    def rhs():
        s = iv.mpf(0)
        for e in part_energies:
            s = s + iv.sqrt(iv.sqrt(iv.mpf(e)))
        return (s * s) * (s * s)

    verdict = decide_leq(lambda: iv.mpf(lhs), rhs)
    return {True: "ok", False: "violated", None: "inconclusive"}[verdict]


def _fourth_power_floor(part_energies):
    # floor((sum of e^(1/4))^4), to place lhs next to the threshold
    with workdps(300):
        return int(mp.floor(sum(mp.root(e, 4) for e in part_energies) ** 4))


energy_lists = st.lists(st.integers(1, 10**30), min_size=2, max_size=5)


@st.composite
def l4_inputs(draw):
    shape = draw(st.sampled_from(["random", "near", "fourth-powers", "irrational-equality"]))
    if shape == "random":
        return draw(st.integers(0, 10**40)), draw(energy_lists)
    if shape == "near":
        parts = draw(energy_lists)
        return max(0, _fourth_power_floor(parts) + draw(st.integers(-2, 2))), parts
    if shape == "fourth-powers":
        roots = draw(st.lists(st.integers(1, 10**9), min_size=2, max_size=5))
        return sum(roots) ** 4 + draw(st.integers(-1, 1)), [r**4 for r in roots]
    # (2k^4)^(1/4) twice is (32 k^4)^(1/4): equal, and irrational
    k = draw(st.integers(1, 10**6))
    return 32 * k**4, [2 * k**4, 2 * k**4]


@given(l4_inputs())
@example((31, [2, 2]))
@example((33, [2, 2]))
@example((625, [16, 81]))
@example((626, [16, 81]))
@settings(max_examples=150, deadline=None)
def test_l4_verdict_matches_the_interval_oracle(case):
    lhs, parts = case
    assert l4_verdict(lhs, parts) == _oracle_verdict(lhs, parts)


def test_l4_verdict_climbs_the_oracle_ladder():
    # 128 -> 2048 bits, as decide_leq; (32, [2, 2]) stays open at the top
    assert (L4_BASE_BITS, L4_MAX_BITS) == (BASE_PREC, MAX_PREC)
    assert l4_verdict(32, [2, 2]) == "inconclusive"


def test_decide_leq_call_scanner_finds_every_form_of_the_call():
    src = (
        "from . import intervals\n"
        "from .intervals import decide_leq\n"
        "def verdict(lhs, rhs):\n"
        "    def inner():\n"
        "        return decide_leq(lhs, rhs)\n"
        "    return intervals.decide_leq(lhs, rhs), inner\n"
        "V = decide_leq(1, 2)\n"
    )
    assert call_sites(nodes(src), "decide_leq") == ["inner", "verdict", None]


def test_no_package_module_calls_decide_leq():
    # decide_leq is only the tests' oracle for the integer verdict
    assert findings(lambda walk: call_sites(walk, "decide_leq")) == {}
    assert "intervals" not in vars(sys.modules["addcomb.energy"])


def test_l4_union_validation():
    with pytest.raises(InvalidConfig):
        l4_union_check([])
    with pytest.raises(InvalidConfig):
        l4_union_check([RatSet([1, 2]), RatSet([2, 3])])  # overlap


def test_l4_union_disjointness_is_checked_on_the_union():
    # only the last two parts meet, at 1/2 on different scales
    parts = [RatSet([5, 7]), RatSet([Fraction(1, 2), 3]), RatSet([Fraction(1, 2), Fraction(1, 3)])]
    with pytest.raises(InvalidConfig, match="parts must be pairwise disjoint"):
        l4_union_check(parts)
    assert l4_union_check(parts[:2] + [RatSet([Fraction(1, 3)])]) == "ok"


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=2)
                .filter(lambda v: v != 0),
                min_size=2, max_size=10, unique=True),
       st.integers(2, 4), st.integers(0, 10**6))
@settings(max_examples=40)
def test_l4_union_random_partitions(vals, m, salt):
    buckets = [[] for _ in range(m)]
    for i, v in enumerate(vals):
        buckets[(i * 7919 + salt) % m].append(v)
    parts = [RatSet(b) for b in buckets if b]
    assert l4_union_check(parts) == "ok"


def test_package_energy_is_the_function_not_the_module():
    # the export shadows the submodule: the module is only in sys.modules
    assert addcomb.energy is sys.modules["addcomb.energy"].energy
