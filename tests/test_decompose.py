"""Dyadic bands, extraction certificates, the two decompositions, the
regularization loop, and the best-dilate search."""

import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import decompose
from addcomb.decompose import (
    DyadicBand,
    ExtractionCertificate,
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
from addcomb.sets import RatSet, SplitMix64, generate, grid_example

nonzero_sets = st.builds(
    RatSet,
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=3)
             .filter(lambda v: v != 0), min_size=2, max_size=10, unique=True),
)


def _hist(d):
    return CountHistogram({Fraction(k): v for k, v in d.items()})


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
        dyadic_band(CountHistogram({}), 2)
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
    B, C = res.parts["B"], res.parts["C"]
    assert B.union(C) == a and B.is_disjoint(C)
    n = len(a)
    if len(B):
        assert energy(B, B, 3, "additive") ** 11 * n**6 <= n**44
    # certificates replay against the shrinking remainder
    assert recheck_decomposition(a, res) == []
    assert RatSet(x for cert in res.certificates for x in cert.chosen) == C


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


def test_xy_small_pair():
    res = xy_decompose(RatSet([1, 2]))
    assert res.parts["X"] == RatSet([1, 2])
    assert res.parts["Y"].is_subset(RatSet([1, 2]))
    assert len(res.parts["Y"]) >= 1


def test_xy_postconditions_ap32():
    a = RatSet(range(1, 33))
    res = xy_decompose(a)
    X, Y = res.parts["X"], res.parts["Y"]
    assert X.union(Y) == a
    assert 2 * len(X) >= len(a) and 2 * len(Y) >= len(a)


@given(nonzero_sets)
@settings(max_examples=30, deadline=None)
def test_xy_postconditions_random(a):
    res = xy_decompose(a)
    X, Y = res.parts["X"], res.parts["Y"]
    assert X.union(Y) == a
    assert 2 * len(X) >= len(a) and 2 * len(Y) >= len(a)
    assert recheck_decomposition(a, res) == []


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
    assert tr.B_dprime.is_subset(tr.B_prime)
    assert tr.B_prime.is_subset(tr.B)
    assert tr.B.is_subset(a)
    cap = -(-tr.epsilon.denominator // tr.epsilon.numerator)
    assert 1 <= len(tr.steps) <= cap


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
    tr = regularize(a, k)
    assert recheck_reg_trace(a, tr) == []
    # size chain: (1 - eps)^(steps-1) |A| <= |B|
    f = (1 - tr.epsilon) ** (len(tr.steps) - 1)
    assert len(tr.B) * f.denominator >= f.numerator * len(a)


_REG_SET = RatSet([1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48])


def _tamper_step(tr, **changes):
    return replace(tr, steps=(replace(tr.steps[0], **changes),) + tr.steps[1:])


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
        (replace(tr, B=tr.B.difference(RatSet([some]))), ["final_sets"]),
        (replace(tr, B_prime=tr.B_dprime), ["final_sets"]),
        (replace(tr, B_dprime=tr.B_dprime.difference(RatSet([some]))), ["core_set"]),
        (replace(tr, B_dprime=tr.B_prime), ["core_set", "core_sandwich"]),
        (replace(tr, final_t=2 * tr.final_t), ["final_band"]),
        (replace(tr, final_P=tr.final_P.difference(RatSet([next(iter(tr.final_P))]))),
         ["final_band"]),
        (replace(tr, steps=()), ["no_terminating_step"]),
        (replace(tr, steps=tr.steps + tr.steps[-1:]), ["trailing_steps"]),
    ]
    assert recheck_reg_trace(a, tr) == []
    for tampered, expected in cases:
        assert recheck_reg_trace(a, tampered) == expected, expected


def test_reg_invariants_raise_under_python_O():
    # postconditions raise instead of asserting, so `python -O` keeps them
    code = f"""
import sys
from dataclasses import replace
from addcomb.decompose import _assert_reg_invariants, regularize
from addcomb.errors import PostconditionFailed
from addcomb.sets import RatSet
if __debug__:
    sys.exit("not running under -O")
a = RatSet({[int(v) for v in _REG_SET]})
tr = regularize(a, 2)
_assert_reg_invariants(a, tr)
try:
    _assert_reg_invariants(a, replace(tr, B=tr.B.union(RatSet([7]))))
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
    assert recheck_decomposition(a, res) == []
    cases = [
        ((c0, replace(c1, E3_input=c1.E3_input + 1)), ["E3_input"]),
        # without the first piece the second is replayed against all of A
        ((c1,), ["E3_input", "A1_band_definition"]),
        # a repeated piece is no longer inside the remainder
        ((c0, c0), ["P_band_membership", "E3_input", "A1_band_definition",
                    "A1_mass_sandwich", "A2_band_definition", "A2_mass_sandwich",
                    "chosen_subset"]),
    ]
    for certs, expected in cases:
        assert recheck_decomposition(a, replace(res, certificates=certs)) == expected


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


def test_best_z_validation():
    with pytest.raises(EmptyCandidateList):
        best_z(RatSet([1, 2]), [])


def test_default_dilates():
    a = RatSet([2, 4])
    assert default_dilates(a) == RatSet([1, Fraction(1, 2), Fraction(1, 4)])
