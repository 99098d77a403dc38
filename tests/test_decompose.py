"""Dyadic bands, extraction certificates, the two decompositions, the
one-step regularization, and the best-dilate search."""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addcomb import decompose, harness
from addcomb.decompose import (
    ExtractionCertificate,
    RegStep,
    RegTrace,
    band_count,
    best_z,
    bw_decompose,
    default_dilates,
    dyadic_band,
    extract_mult_structured,
    recheck_certificate,
    recheck_decomposition,
    recheck_reg_trace,
    regularize,
    xy_decompose,
)
from addcomb.energy import CountHistogram, energy, rep_histogram
from addcomb.errors import (
    DegenerateInput,
    EmptyCandidateList,
    EmptyHistogram,
    InvalidConfig,
    NonTermination,
)
from addcomb.sets import (
    GeneratorConfig, RatSet, affine, ap, canonical_json, generate, gp, grid_example,
)
from source_rules import call_sites, findings, nodes

nonzero_sets = st.builds(
    RatSet,
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=3)
             .filter(lambda v: v != 0), min_size=2, max_size=10, unique=True),
)


def _hist(d):
    return CountHistogram(dict(d), 1)


def test_dyadic_band_hand_cases():
    band = dyadic_band(_hist({0: 3, 1: 2, 2: 2, -1: 1}), 2)
    # counts 3,2,2 land in the [2,4) band: mass 9+4+4 = 17 beats the
    # [1,2) band's single count of mass 1
    assert band.t == 2
    assert band.P == RatSet([0, 1, 2])
    assert band.mass == 17


def test_dyadic_band_tie_prefers_smaller_t():
    # k=1: band t=1 has mass 1+1=2, band t=2 has mass 2: tie -> t=1
    band = dyadic_band(_hist({0: 1, 1: 1, 2: 2}), 1)
    assert band.t == 1 and band.P == RatSet([0, 1])


def test_dyadic_band_single_band():
    band = dyadic_band(_hist({5: 4}), 3)
    assert band.t == 4 and band.mass == 64


def test_dyadic_band_validation():
    with pytest.raises(EmptyHistogram):
        dyadic_band(CountHistogram({}, 1), 2)
    with pytest.raises(InvalidConfig):
        dyadic_band(_hist({1: 1}), 0)


def test_band_count():
    assert band_count(_hist({0: 1, 1: 2, 2: 3, 3: 9})) == 3  # t in {1,2,8}


@given(st.dictionaries(st.integers(-20, 20), st.integers(1, 200),
                       min_size=1, max_size=30),
       st.integers(1, 5))
@settings(max_examples=80)
def test_dyadic_band_pigeonhole(entries, k):
    h = _hist(entries)
    band = dyadic_band(h, k)
    r_max = h.max_count
    nbands = (r_max - 1).bit_length() + 1
    # selected mass covers the whole k-th moment up to the band count
    assert band.mass * nbands >= h.moment(k)
    # membership: every entry of P lies in [t, 2t)
    for x in band.P:
        assert band.t <= h.count(x) < 2 * band.t


def _dyadic_band_per_key(h, k):
    # the per-key loop that dyadic_band replaced, kept as its oracle:
    # (t, P, mass) of the band of largest k-th-moment mass, ties to smaller t
    support, masses = {}, {}
    for key, r in h.counts.items():
        j = r.bit_length() - 1
        support.setdefault(j, []).append(key)
        masses[j] = masses.get(j, 0) + r**k
    best_j = max(masses, key=lambda j: (masses[j], -j))
    return 1 << best_j, h.key_set(support[best_j]), masses[best_j]


@st.composite
def tied_counts(draw, k):
    # two bands of equal mass, r1^k r2^k each: r2^k keys of count r1 and
    # r1^k keys of count r2, plus a few counts of any band
    j1, j2 = sorted(draw(st.lists(st.integers(0, 2), min_size=2, max_size=2,
                                  unique=True)))
    r1 = draw(st.integers(1 << j1, (2 << j1) - 1))
    r2 = draw(st.integers(1 << j2, (2 << j2) - 1))
    counts = [r1] * r2**k + [r2] * r1**k + draw(st.lists(st.integers(1, 9), max_size=6))
    order = draw(st.permutations(range(len(counts))))
    return {key: counts[i] for key, i in enumerate(order)}


@given(st.sampled_from([1, 3]).flatmap(
    lambda k: st.tuples(st.just(k), tied_counts(k) | st.dictionaries(
        st.integers(-20, 20), st.integers(1, 40), min_size=1, max_size=30))))
@settings(max_examples=120, deadline=None)
def test_dyadic_band_matches_the_per_key_loop(case):
    k, counts = case
    h = _hist(counts)
    band = dyadic_band(h, k)
    assert (band.t, band.P, band.mass) == _dyadic_band_per_key(h, k)


def test_extract_small_pair():
    chosen, cert = extract_mult_structured(RatSet([1, 2]))
    assert chosen.is_subset(RatSet([1, 2])) and len(chosen) >= 1
    assert cert.branch in ("abscissae", "ordinates")
    assert recheck_certificate(RatSet([1, 2]), cert) == []


def test_extract_requires_two_elements():
    with pytest.raises(DegenerateInput):
        extract_mult_structured(RatSet([5]))


@given(nonzero_sets)
@settings(max_examples=40, deadline=None)
def test_extraction_certificate_rechecks(a):
    chosen, cert = extract_mult_structured(a)
    assert recheck_certificate(a, cert) == []
    assert chosen == cert.chosen
    assert cert.E3_input == energy(a, a, 3, "additive")


def test_recheck_certificate_names_tampered_branch_energy_and_chain():
    a = RatSet([1, 2, 3, 4, 6])
    _, cert = extract_mult_structured(a)
    assert (cert.branch, cert.t, cert.q2, cert.P) == ("ordinates", 4, 1, RatSet([0]))
    cases = [
        (replace(cert, branch="abscissae"), ["branch_rule"]),
        (replace(cert, Emul_output=cert.Emul_output + 1), ["Emul_output"]),
        # the chain bound follows from the band claims, so it fails only
        # beside one of them: t = 10 puts r(0) = 5 below the band, and
        # |P| t = 10 reaches 2 q2 |A2_pop| = 10 with one band in each level;
        # the argmax band of r_{A-A} is still t = 4
        (replace(cert, t=10), ["P_band_membership", "band_choice", "dyadic_chain"]),
    ]
    for tampered, expected in cases:
        assert recheck_certificate(a, tampered) == expected, expected


def test_recheck_certificate_needs_the_whole_band(monkeypatch):
    # an extraction run on its band P less one element derives q1, A1_pop,
    # q2, A2_pop, branch and Emul_output from the smaller P; only P's
    # claim to be the whole band fails
    a = generate(grid_example(5, 5))
    band = dyadic_band

    def thinned(h, k):
        b = band(h, k)
        return replace(b, P=b.P.difference(RatSet([next(iter(b.P))]))) if k == 3 else b

    monkeypatch.setattr(decompose, "dyadic_band", thinned)
    _, cert = extract_mult_structured(a)
    monkeypatch.undo()
    assert len(cert.P) == len(extract_mult_structured(a)[1].P) - 1
    assert recheck_certificate(a, cert) == ["P_band_membership"]


def test_dyadic_band_scanner_finds_every_form_of_the_call():
    src = (
        "from . import decompose\n"
        "def recheck_x(h):\n"
        "    def inner():\n"
        "        return dyadic_band(h, 1)\n"
        "    return decompose.dyadic_band(h, 3), inner\n"
        "B = dyadic_band(H, 2)\n"
    )
    assert call_sites(nodes(src), "dyadic_band") == ["inner", "recheck_x", None]


@pytest.mark.parametrize("step", ["dyadic_band", "_level", "_reg_step", "_two_sided_core"])
def test_no_recheck_calls_a_producer_step(step):
    # the replays restate the band choice, the level sets and the
    # regularization step, so a broken producer step cannot pass its own
    # check
    def replay_calls(walk):
        return [fn for fn in call_sites(walk, step) if fn.startswith("recheck_")]

    assert findings(replay_calls) == {}


def test_extraction_certificate_json_roundtrip():
    _, cert = extract_mult_structured(RatSet([1, 2, 3, 4, 6]))
    back = ExtractionCertificate.from_json(cert.to_json())
    assert back == cert


def test_bw_small_set_all_additive():
    res = bw_decompose(RatSet([1, 2]))
    assert res.parts["B"] == RatSet([1, 2])
    assert len(res.parts["C"]) == 0
    assert res.certificates == ()
    assert res.meta["M"] == "auto" and res.meta["pieces"] == 0


def test_bw_partition_and_guard():
    a = RatSet([1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48])
    res = bw_decompose(a)
    # certificates, partition, pieces and guard replay from scratch
    assert recheck_decomposition(a, res) == []
    assert res.meta["pieces"] == len(res.certificates)


def test_bw_explicit_threshold():
    # guard is E3+(B) > |A|^4 / M: tiny M -> huge threshold -> no extraction;
    # huge M -> everything moves to the multiplicative side
    a = RatSet([1, 2, 3, 4])
    assert bw_decompose(a, M=Fraction(1, 10**6)).parts["B"] == a
    aggressive = bw_decompose(a, M=Fraction(10**6))
    assert len(aggressive.parts["B"]) == 0
    assert aggressive.parts["C"] == a
    with pytest.raises(InvalidConfig):
        bw_decompose(a, M=0)
    # the replay refuses an M that bw_decompose would, with B empty or not
    for res in (aggressive, bw_decompose(a, M=Fraction(1, 10**9))):
        for M in ("0", "-5"):
            assert recheck_decomposition(a, replace(res, meta={**res.meta, "M": M})) == ["M"]


def test_bw_wide_m_is_refused_before_any_extraction(monkeypatch):
    # meta["M"] is written at entry, so an M past the digit limit is an
    # InvalidConfig before the extractions run, not a ValueError after
    def no_extraction(*_):
        raise AssertionError("an extraction ran")

    monkeypatch.setattr(decompose, "_extract_core", no_extraction)
    with pytest.raises(InvalidConfig, match="more than 4300 digits"):
        bw_decompose(RatSet([1, 2, 3, 4]), 10**5000)


@pytest.mark.parametrize("cfg, pieces", [
    (ap(Fraction(1, 2), Fraction(1, 3), 12), 1),
    (gp(1, 2, 16), 0),
])
def test_bw_tallies_each_remainder_once(monkeypatch, cfg, pieces):
    # the guard, the extraction and E_plus_B read one difference tally of
    # each remainder: A, then A less each piece in turn
    tallied = []

    def counting(real):
        def tally(S, T, *args):
            if T is S and ("diff" in args or "additive" in args):
                tallied.append(S)
            return real(S, T, *args)
        return tally

    for name in ("energy", "rep_histogram"):
        monkeypatch.setattr(decompose, name, counting(getattr(decompose, name)))
    a = generate(cfg)
    res = bw_decompose(a)
    remainders = [a]
    for cert in res.certificates:
        remainders.append(remainders[-1].difference(cert.chosen))
    assert len(res.certificates) == pieces
    assert tallied == remainders and remainders[-1] == res.parts["B"]


def test_xy_small_pair():
    res = xy_decompose(RatSet([1, 2]))
    assert res.parts["X"] == RatSet([1, 2])
    assert res.parts["Y"].is_subset(RatSet([1, 2]))
    assert len(res.parts["Y"]) >= 1


def test_xy_postconditions_ap32():
    a = RatSet(range(1, 33))
    assert recheck_decomposition(a, xy_decompose(a)) == []


# small sets on which xy_decompose leaves its degenerate path: (values,
# branch of each certificate, sha256 of the result's canonical JSON)
XY_WITNESSES = {
    "abscissae": (
        ["2", "7/2", "5", "13/2", "7", "8", "19/2", "11", "25/2", "14", "31/2", "16",
         "17", "37/2", "20", "43/2", "25", "30", "45", "58", "64", "65", "69", "85"],
        ["abscissae", "ordinates"],
        "99e572a2bff853690cfc71c60f94c7c454316f2bfa53f1b01d6f7451cb15ad41"),
    "three-pieces": (
        ["3", "10/3", "11/3", "4", "13/3", "14/3", "5", "16/3", "17/3", "20/3", "8",
         "28/3", "32/3", "12", "40/3", "44/3", "16"],
        ["ordinates"] * 3,
        "02f29133597f237460c149cb6d8ec2ca53044a7c7582134f4f4deef4c9198ca3"),
}


@pytest.mark.parametrize("name", sorted(XY_WITNESSES))
def test_xy_witnesses_are_pinned(name):
    values, branches, digest = XY_WITNESSES[name]
    a = generate(GeneratorConfig.from_json({"kind": "Literal", "values": values}))
    res = xy_decompose(a)
    assert [cert.branch for cert in res.certificates] == branches
    assert res.meta["pieces"] == len(branches)
    assert recheck_decomposition(a, res) == []
    text = canonical_json(res.to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


@given(nonzero_sets)
@settings(max_examples=30, deadline=None)
def test_xy_postconditions_random(a):
    assert recheck_decomposition(a, xy_decompose(a)) == []


@given(nonzero_sets, st.sampled_from(["auto", Fraction(1, 4), 8]))
@example(RatSet([3, 5, 7, 8, 10, 12, 14, 15, 17, 21]), "auto")  # two xy pieces
@settings(max_examples=40, deadline=None)
def test_reported_energies_recomputed_from_the_parts(a, M):
    # the producers reuse energies their certificates hold; recomputed
    # from the parts they must agree
    xy = xy_decompose(a)
    X, Y = xy.parts["X"], xy.parts["Y"]
    assert xy.energies == {"E3_X": energy(X, X, 3, "additive"),
                           "E_mul_Y": energy(Y, Y, 2, "multiplicative")}
    bw = bw_decompose(a, M)
    B, C = bw.parts["B"], bw.parts["C"]
    assert bw.energies == {"E_plus_B": energy(B, B, 2, "additive") if len(B) else 0,
                           "E_mul_C": energy(C, C, 2, "multiplicative") if len(C) else 0}


@pytest.mark.parametrize("run, message", [
    (bw_decompose, "energy split exceeded |A| iterations"),
    (xy_decompose, "cover loop exceeded |A| iterations"),
])
def test_extraction_chain_stops_after_size_of_a(monkeypatch, run, message):
    # an extraction that removes nothing would loop forever: both
    # decompositions stop after |A| of them
    empty = RatSet()
    stuck = ExtractionCertificate(t=1, q1=1, q2=1, P=empty, A1_pop=empty, A2_pop=empty,
                                  branch="ordinates", E3_input=0, Emul_output=0)
    calls = []
    monkeypatch.setattr(decompose, "_extract_core",
                        lambda rest, diff: calls.append(rest) or stuck)
    a = RatSet(range(1, 9))
    with pytest.raises(NonTermination) as exc:
        run(a)
    assert str(exc.value) == message
    assert calls == [a] * len(a)


def test_decomposition_result_json_roundtrip():
    from addcomb.decompose import DecompositionResult

    res = xy_decompose(RatSet([1, 2, 3, 5, 8, 13]))
    back = DecompositionResult.from_json(res.to_json())
    assert back.parts == res.parts
    assert back.certificates == res.certificates
    assert back.energies == res.energies
    assert back.target_ratio == res.target_ratio


def test_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        xy_decompose(RatSet([7]))
    from addcomb.errors import DivisionByZero

    with pytest.raises(DivisionByZero):
        bw_decompose(RatSet([0, 1]))


def test_regularize_trace_ap16():
    a = RatSet(range(1, 17))
    tr = regularize(a, 3)
    assert tr.k == 3
    assert recheck_reg_trace(a, tr) == []
    assert len(tr.steps) == 1


def test_regularize_validation():
    with pytest.raises(InvalidConfig):
        regularize(RatSet(range(1, 17)), 1)
    with pytest.raises(DegenerateInput):
        regularize(RatSet([1, 2, 3]), 2)


def test_regularize_epsilon_shrinks_with_size_and_k():
    e16 = regularize(RatSet(range(1, 17)), 2).epsilon
    e32 = regularize(RatSet(range(1, 33)), 2).epsilon
    assert e32 < e16
    e16k3 = regularize(RatSet(range(1, 17)), 3).epsilon
    assert e16k3 < e16


@given(nonzero_sets.filter(lambda a: len(a) >= 4), st.sampled_from([2, 3]))
@settings(max_examples=25, deadline=None)
def test_regularize_random_rechecks(a, k):
    assert recheck_reg_trace(a, regularize(a, k)) == []


def _assert_one_step_keeps_all(a, k):
    # the regularize lemma: epsilon |A| <= 1 forces one step and B = B' = A
    tr = regularize(a, k)
    assert tr.epsilon * len(a) <= 1
    assert len(tr.steps) == 1 and tr.steps[0].kept
    assert tr.B == tr.B_prime == a


def test_regularize_cannot_prune_on_default_corpus():
    for cfg in harness.DEFAULT_CORPUS:
        a = generate(cfg)
        for k in (2, 3):
            _assert_one_step_keeps_all(a, k)


@given(nonzero_sets.filter(lambda a: len(a) >= 4), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_regularize_cannot_prune_when_epsilon_n_at_most_one(a, k):
    _assert_one_step_keeps_all(a, k)


def test_regularize_stops_at_once_past_epsilon_n_one():
    # epsilon |A| > 1 here, yet the one step stops, as the lemma proves;
    # its band t = 512 leaves the zero difference, and keeps all of A
    a = generate(ap(1, 1, 1200))
    tr = regularize(a, 2)
    assert tr.epsilon * len(a) > 1
    (step,) = tr.steps
    assert step.kept and step.t == 512 and 0 not in tr.final_P
    assert tr.B == tr.B_prime == tr.B_dprime == a
    assert recheck_reg_trace(a, tr) == []


def test_regularize_refuses_a_set_past_its_lemma_before_any_tally(monkeypatch):
    def no_tally(*args):
        pytest.fail("regularize tallied a set its lemma does not cover")

    monkeypatch.setattr(decompose, "_epsilon", lambda k, n: Fraction(1))
    monkeypatch.setattr(decompose, "rep_histogram", no_tally)
    with pytest.raises(DegenerateInput, match="one-step lemma"):
        regularize(RatSet(range(1, 17)), 2)


@pytest.mark.parametrize("k, first", [(2, 4_002_154), (3, 23_729_908_049_827)])
def test_regularize_lemma_first_fails_at_its_threshold(k, first):
    # the exact condition |A| (2 eps)^k <= (1 - 2^-k)^k at the eps of |A|
    for n, holds in ((first - 1, True), (first, False)):
        assert decompose._stops_at_once(n, k, decompose._epsilon(k, n)) is holds


_REG_SET = RatSet([1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48])


def _tamper_step(tr, **changes):
    return replace(tr, steps=(tr.steps[0]._replace(**changes),) + tr.steps[1:])


def test_recheck_reg_trace_names_each_tampered_claim():
    a = _REG_SET
    tr = regularize(a, 2)
    st0 = tr.steps[0]
    # the core drops one element here, so B'' has a candidate to restore
    dropped = tr.B_prime.difference(tr.B_dprime)
    assert len(dropped) == 1 and st0.kept
    some = next(iter(tr.B_dprime))
    cases = [
        (_tamper_step(tr, size=st0.size + 1), ["step0_size"]),
        (_tamper_step(tr, t=2 * st0.t), ["step0_band"]),
        (_tamper_step(tr, p_size=st0.p_size + 1), ["step0_band"]),
        (_tamper_step(tr, g_size=st0.g_size + 1), ["step0_gsize"]),
        (_tamper_step(tr, g_kept=st0.g_kept - 1), ["step0_gkept"]),
        (_tamper_step(tr, kept=False), ["step0_stop_flag"]),
        (replace(tr, B=tr.B.difference(RatSet([some]))), ["final_sets", "B_prime_subset"]),
        (replace(tr, B=tr.B.union(RatSet([7]))), ["final_sets", "B_subset"]),
        (replace(tr, B_prime=tr.B_prime.difference(RatSet([some]))),
         ["final_sets", "B_dprime_subset"]),
        # 7 is not in A: the core replay reads its degree as 0
        (replace(tr, B_dprime=tr.B_dprime.union(RatSet([7]))),
         ["core_set", "core_sandwich", "B_dprime_subset"]),
        # B = B' = B'' is a chain, but B is not A
        (replace(tr, B=tr.B_dprime, B_prime=tr.B_dprime), ["final_sets"]),
        # eps = -1 keeps every vertex, as the right eps does here
        (replace(tr, epsilon=Fraction(-1)), ["epsilon"]),
        (replace(tr, B_prime=tr.B_dprime), ["final_sets"]),
        (replace(tr, B_dprime=tr.B_dprime.difference(RatSet([some]))), ["core_set"]),
        (replace(tr, B_dprime=tr.B_prime), ["core_set", "core_sandwich"]),
        (replace(tr, final_t=2 * tr.final_t), ["final_band"]),
        (replace(tr, final_P=tr.final_P.difference(RatSet([next(iter(tr.final_P))]))),
         ["final_band"]),
        (replace(tr, steps=()), ["step_count"]),
        (replace(tr, steps=tr.steps + tr.steps), ["step_count"]),
    ]
    assert recheck_reg_trace(a, tr) == []
    for tampered, expected in cases:
        assert recheck_reg_trace(a, tampered) == expected, expected


def _trace_at(a, k, eps):
    # the one regularization step on a at the given eps, which regularize
    # would not pick, built here
    diff = rep_histogram(a, a, "diff")
    band = dyadic_band(diff, k)
    g_size = sum(diff.counts_on(band.P))
    degs = rep_histogram(band.P, a, "sum").counts_on(a)
    keep = [d * eps.numerator * len(a) <= g_size * eps.denominator for d in degs]
    g_kept = sum(d for d, kept in zip(degs, keep) if kept)
    step = RegStep(len(a), band.t, len(band.P), g_size, g_kept, g_kept * 2**k >= g_size)
    core = [kept and d * 2 ** (k + 1) * len(a) >= g_size for kept, d in zip(keep, degs)]
    return RegTrace(k=k, epsilon=eps, steps=(step,), B=a, B_prime=a.select(keep),
                    B_dprime=a.select(core), final_t=band.t, final_P=band.P)


def test_recheck_reg_trace_refuses_a_shrinking_step():
    # the lemma of regularize leaves no shrinking step below |A| = 4,002,154
    # at k = 2, so these traces are built at eps = 1: GridExample(4, 4)
    # keeps 6 of 16 and goes on, and a step on those 6 stops.  Beside the
    # eps of k = 2 and |A| = 16, the two-step trace fails by its count, and
    # the first step alone by its stop flag, however it is recorded
    a = generate(grid_example(4, 4))
    first = _trace_at(a, 2, Fraction(1))
    second = _trace_at(first.B_prime, 2, Fraction(1))
    tr = replace(second, steps=first.steps + second.steps)
    assert [(st.size, st.kept) for st in tr.steps] == [(16, False), (6, True)]
    assert recheck_reg_trace(a, tr) == ["epsilon", "step_count"]
    assert recheck_reg_trace(a, first) == ["epsilon", "step0_stop_flag"]
    assert recheck_reg_trace(a, _tamper_step(first, kept=True)) == [
        "epsilon", "step0_stop_flag"]


def test_recheck_reg_trace_refuses_an_epsilon_regularize_would_not_pick():
    # at eps = 9/10 the core of AP(1, 1, 32) keeps 22 elements, not 32;
    # every other claim replays at the recorded eps and holds
    a = RatSet(range(1, 33))
    tr = _trace_at(a, 2, Fraction(9, 10))
    assert len(tr.B_dprime) == 22 and len(regularize(a, 2).B_dprime) == 32
    assert recheck_reg_trace(a, tr) == ["epsilon"]
    # k = 9 is past the range regularize takes; a k that is not an int is
    # refused, not compared
    assert recheck_reg_trace(a, replace(tr, k=9)) == ["epsilon"]
    with pytest.raises(InvalidConfig, match="k must be an int"):
        recheck_reg_trace(a, replace(tr, k="2"))


def test_reg_invariants_raise_under_python_O():
    # postconditions raise instead of asserting, so `python -O` keeps them
    code = f"""
import sys
from dataclasses import replace
from addcomb.decompose import _pruning_failures, _raise_first, regularize
from addcomb.errors import PostconditionFailed
from addcomb.sets import RatSet
if __debug__:
    sys.exit("not running under -O")
a = RatSet({[int(v) for v in _REG_SET]})
tr = regularize(a, 2)
_raise_first(_pruning_failures(a, tr))
try:
    _raise_first(_pruning_failures(a, replace(tr, B=tr.B.union(RatSet([7])))))
except PostconditionFailed as exc:
    print(exc)
"""
    src = str(Path(decompose.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "B is not a subset of A\n"


def test_recheck_decomposition_names_tampered_chain():
    # the 5x5 grid example covers in two extractions, the second one run on
    # the remainder the first one left
    a = generate(grid_example(5, 5))
    res = xy_decompose(a)
    c0, c1 = res.certificates
    X, Y = res.parts["X"], res.parts["Y"]
    # at M = 16 the first extraction leaves |B| = 17, |C| = 8
    bw = bw_decompose(a, Fraction(16))
    B, C = bw.parts["B"], bw.parts["C"]
    moved = RatSet([next(iter(C))])
    auto = bw_decompose(a)
    cases = [
        (replace(res, certificates=(c0, replace(c1, E3_input=c1.E3_input + 1))),
         ["E3_input"]),
        # without the first piece the second is replayed against all of A,
        # and Y and X no longer match the chain
        (replace(res, certificates=(c1,)),
         ["E3_input", "A1_band_definition", "band_choice", "pieces", "remainder"]),
        # a repeated piece is no longer inside the remainder
        (replace(res, certificates=(c0, c0)),
         ["P_band_membership", "E3_input", "A1_band_definition",
          "A1_mass_sandwich", "A2_band_definition", "A2_mass_sandwich",
          "chosen_subset", "band_choice", "pieces"]),
        # Y without one of its pieces: the first is in no other part, the
        # second alone leaves Y short of half of A
        (replace(res, parts={"X": X, "Y": c1.chosen}), ["cover", "pieces"]),
        (replace(res, parts={"X": X, "Y": c0.chosen}), ["Y_half", "pieces"]),
        # X is the remainder after the last extraction, not before it
        (replace(res, parts={"X": X.difference(c1.chosen), "Y": Y}),
         ["X_half", "remainder"]),
        # one element moved from C to B, then copied instead of moved
        (replace(bw, parts={"B": B.union(moved), "C": C.difference(moved)}), ["pieces"]),
        (replace(bw, parts={"B": B.union(moved), "C": C}), ["partition"]),
        # the B of M = auto breaks the guard of M = 16, the B of M = 16 that of 64
        (replace(auto, meta={**auto.meta, "M": "16"}), ["energy_guard"]),
        (replace(bw, meta={**bw.meta, "M": "64"}), ["energy_guard"]),
    ]
    for whole in (res, bw, auto):
        assert recheck_decomposition(a, whole) == []
    for tampered, expected in cases:
        assert recheck_decomposition(a, tampered) == expected, expected


def test_reg_trace_json_roundtrip():
    tr = regularize(RatSet(range(1, 17)), 2)
    back = RegTrace.from_json(tr.to_json())
    assert back == tr


def test_best_z_hand_cases():
    a = RatSet([1, 2, 4])
    # 7 of the 9 pairs (a,b) satisfy ab/2 in A; z=1 and z=1/4 reach only 6
    assert best_z(a) == (Fraction(1, 2), 7)
    assert best_z(a, [Fraction(1)]) == (Fraction(1), 6)
    # {1,2}: both candidates reach 3, tie goes to the smaller dilate
    assert best_z(RatSet([1, 2])) == (Fraction(1, 2), 3)


def test_best_z_value_definition():
    a = RatSet([1, 2, 4])
    for z in default_dilates(a):
        val = sum(1 for x in a for y in a if z * x * y in a)
        if z == Fraction(1, 2):
            assert val == 7


def test_best_z_singleton_one():
    assert best_z(RatSet([1]), [Fraction(1)]) == (Fraction(1), 1)


def test_best_z_tie_prefers_smaller():
    # both candidates realize the same count; smaller z wins
    a = RatSet([1, -1])
    z, val = best_z(a, [Fraction(1), Fraction(-1)])
    assert z == Fraction(-1)


def _best_z_cubic(A, candidates):
    # the definition, n^3 Fraction products per candidate; ties to smaller z
    best = None
    for z in sorted(candidates):
        val = sum(1 for a in A for b in A if z * a * b in A)
        if best is None or val > best[1]:
            best = (z, val)
    return best


_dilates = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4)
                    .filter(lambda v: v != 0), min_size=1, max_size=6)


@given(nonzero_sets, st.none() | _dilates)
@settings(max_examples=80, deadline=None)
def test_best_z_matches_cubic_oracle(a, cands):
    assert best_z(a, cands) == _best_z_cubic(a, default_dilates(a) if cands is None
                                             else set(cands))


@given(nonzero_sets, _dilates)
@settings(max_examples=40, deadline=None)
def test_best_z_ties_match_cubic_oracle(a, cands):
    # on a set symmetric about 0, z and -z always reach the same count
    sym = a.union(affine(a, -1, 0))
    cands = set(cands) | {-z for z in cands}
    z, val = best_z(sym, cands)
    assert (z, val) == _best_z_cubic(sym, cands)
    assert z < 0


def test_best_z_validation():
    with pytest.raises(EmptyCandidateList):
        best_z(RatSet([1, 2]), [])


def test_default_dilates():
    a = RatSet([2, 4])
    assert default_dilates(a) == RatSet([1, Fraction(1, 2), Fraction(1, 4)])
