"""Acceptance gate: nine criteria, one test and one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion
lines.  Every assertion here is exact; the asymptotic material is covered
by the byte-stable report regeneration of criterion 9.
"""

import time
from fractions import Fraction

from addcomb import harness
from addcomb.collinear import t_count_brute, t_identity_check, t_o_count
from addcomb.decompose import (
    bw_decompose,
    dyadic_band,
    recheck_decomposition,
    recheck_reg_trace,
    regularize,
    xy_decompose,
)
from addcomb.energy import energy, rep_histogram
from addcomb.ratios import r_of_z
from addcomb.sets import RatSet, SplitMix64, generate


def _corpus_sets():
    return [(cfg.label(), generate(cfg)) for cfg in harness.DEFAULT_CORPUS]


def test_criterion_1_oracle_equivalence_200_triples_under_60s():
    # the oracle suite compares brute and line-hash T_o (and the T split) on
    # 200 seeded triples; its two EXACT checks are the one copy of this claim
    start = time.monotonic()
    res = harness.run_suite("oracle")
    elapsed = time.monotonic() - start
    checks = {c.name: c for c in res.checks}
    for name, word in (("oracle_equivalence", "mismatched"),
                       ("split_consistency", "inconsistent")):
        c = checks[name]
        assert c.kind == "EXACT" and c.status == "pass", c
        assert c.details == f"200 triples, {word} seeds: none", c
    assert elapsed < 60, f"oracle suite took {elapsed:.1f}s"


def test_criterion_2_hand_checkable_counts():
    z, z01, z012 = RatSet([0]), RatSet([0, 1]), RatSet([0, 1, 2])
    assert t_count_brute(z, z, z) == 1
    assert t_count_brute(z01, z01, z01) == 40
    assert t_o_count(z01, z01, z01, "brute") == 0
    assert t_o_count(z012, z012, z012, "brute") == 48
    a = RatSet([1, 2, 3])
    assert energy(a, a, 2, "additive") == 19
    assert energy(a, a, 3, "additive") == 45
    assert energy(RatSet([1, 2, 4]), None, 2, "multiplicative") == 19
    assert energy(RatSet([1, 2, 3, 4]), k=2) == 44
    assert r_of_z(1, RatSet([1, 2]), RatSet([1, 2])) == 6


def test_criterion_3_st_bound_1000_random_arrangements():
    # the incidence suite decides the bound on 1000 seeded arrangements and
    # recounts 20 of them by Fraction membership; its two EXACT checks are
    # the one copy of this claim
    res = harness.run_suite("incidence")
    checks = {c.name: c for c in res.checks}
    for name, n in (("st_bound", 1000), ("incidence_recount", 20)):
        c = checks[name]
        assert c.kind == "EXACT" and c.status == "pass", c
        assert c.details == f"{n} arrangements, failing seeds: none", c


def test_criterion_4_exact_inequality_suite_default_corpus():
    res = harness.run_suite("exact")
    failures = [c for c in res.checks if c.status == "fail"]
    assert not failures, failures
    names = {c.name: c for c in res.checks}
    stems = ("cs_ladder:", "mul_energy_product_set:", "mul_energy_ratio_set:",
             "collinear_lower:", "log2_isomorphism:")
    for stem in stems:
        hits = [c for n, c in names.items() if n.startswith(stem)]
        assert hits, f"no checks for {stem}"
        assert all(c.status == "pass" for c in hits)
    assert names["l4_partitions"].status == "pass"


def test_criterion_5_identity_50_random_triples():
    for i in range(1, 51):
        rng = SplitMix64(1000 + i)
        a, c, d = (harness._seeded_rat_set(rng, 1 + rng.below(5))
                   for _ in range(3))
        rep = t_identity_check(a, c, d)
        assert rep.ok, f"triple {i}: lhs {rep.lhs} != rhs {rep.rhs}"
        assert rep.rhs == t_count_brute(a, c, d)


def test_criterion_6_decomposition_postconditions_every_corpus_set():
    for label, A in _corpus_sets():
        n = len(A)

        res = xy_decompose(A)
        X, Y = res.parts["X"], res.parts["Y"]
        assert X.union(Y) == A, label
        assert 2 * len(X) >= n and 2 * len(Y) >= n, label
        assert recheck_decomposition(A, res) == [], label

        res = bw_decompose(A)
        B, C = res.parts["B"], res.parts["C"]
        assert B.union(C) == A and B.is_disjoint(C), label
        if len(B):
            e3 = energy(B, B, 3, "additive")
            assert e3**11 * n**6 <= n**44, label
        assert recheck_decomposition(A, res) == [], label
        assert RatSet(x for cert in res.certificates for x in cert.chosen) == C, label


def test_criterion_7_regularization_postconditions():
    for label, A in _corpus_sets():
        for k in (2, 3):
            tr = regularize(A, k)
            assert recheck_reg_trace(A, tr) == [], (label, k)
            assert tr.B_dprime.is_subset(tr.B_prime), (label, k)
            assert tr.B_prime.is_subset(tr.B) and tr.B.is_subset(A), (label, k)
            cap = -(-tr.epsilon.denominator // tr.epsilon.numerator)
            assert len(tr.steps) <= cap, (label, k)
            # the last step keeps its set, so only the others shrink it
            shrink = (1 - tr.epsilon) ** (len(tr.steps) - 1)
            assert len(tr.B) * shrink.denominator >= \
                shrink.numerator * len(A), (label, k)


def test_criterion_8_dyadic_pigeonhole_every_histogram():
    # the selection routine asserts this bound internally on every call;
    # re-verify it here explicitly across a spread of real histograms
    for label, A in _corpus_sets():
        for op in ("diff", "sum"):
            h = rep_histogram(A, A, op)
            r_max = h.max_count
            nbands = (r_max - 1).bit_length() + 1
            for k in (1, 2, 3):
                band = dyadic_band(h, k)
                assert band.mass * nbands >= h.moment(k), (label, op, k)
    # adversarial shape: one heavy entry against many light ones
    from addcomb.energy import CountHistogram

    skew = CountHistogram({Fraction(i): 1 for i in range(65)}
                          | {Fraction(-1): 7})
    band = dyadic_band(skew, 3)
    assert band.mass * ((7 - 1).bit_length() + 1) >= skew.moment(3)
    assert band.t == 4  # the heavy element wins under true mass


def test_criterion_9_reports_byte_stable_and_within_baselines():
    r1 = harness.run_suite("reports")
    r2 = harness.run_suite("reports")
    assert r1.to_bytes() == r2.to_bytes()
    fams = {row["family"] for row in r1.ratio_tables}
    assert fams == {
        "collinear_ordered_vs_bound",
        "popular_ratio_energy_vs_bound",
        "bw_energy_split_vs_bound",
        "xy_energy_product_vs_bound",
    }
    fits = [c for c in r1.checks if c.name.startswith("fit:")]
    assert len(fits) == 5
    baselines = harness.load_baselines()
    for fam, hi in r1.max_constants.items():
        assert fam in baselines, fam
        assert Fraction(hi) <= 2 * Fraction(baselines[fam]), \
            f"{fam}: {hi} exceeds 2x baseline {baselines[fam]}"
