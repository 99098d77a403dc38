"""Verification suites, exponent fits, shift-product report, baselines."""

import json
from fractions import Fraction

import pytest

from addcomb import harness
from addcomb.errors import InsufficientPoints, InvalidConfig, ZeroShift
from addcomb.sets import RatSet, ap, gp, grid_example

SMALL_CORPUS = [ap(1, 1, 8), gp(1, 2, 8), grid_example(3, 3)]


def test_exact_suite_small_corpus_all_pass():
    res = harness.run_suite("exact", SMALL_CORPUS)
    assert res.ok
    assert all(c.status != "fail" for c in res.checks)
    names = {c.name for c in res.checks}
    # every advertised check family is present
    for stem in ("hand:", "cs_ladder:", "mass_conservation:",
                 "mul_energy_product_set:", "mul_energy_ratio_set:",
                 "collinear_lower:", "log2_isomorphism:"):
        assert any(n.startswith(stem) for n in names), stem
    assert "l4_partitions" in names and "shift_energy_identity" in names


def test_run_suite_validation():
    with pytest.raises(InvalidConfig):
        harness.run_suite("bogus")
    with pytest.raises(InvalidConfig):
        harness.run_suite("exact", [])


def test_suite_result_serialization():
    res = harness.run_suite("oracle", SMALL_CORPUS)
    doc = res.to_json()
    assert doc["suite"] == "oracle"
    assert doc["environment"]["backend"] == "pure"
    assert isinstance(doc["checks"], list) and doc["checks"]
    # canonical bytes parse back to the same document
    assert json.loads(res.to_bytes()) == json.loads(
        json.dumps(doc, sort_keys=True))


def test_exact_checks_marked_exact_only():
    res = harness.run_suite("exact", SMALL_CORPUS)
    for c in res.checks:
        assert c.kind in ("EXACT", "ASYMPTOTIC")
        if c.kind == "ASYMPTOTIC":
            assert c.status == "report-only"
        else:
            assert c.status in ("pass", "fail")


def test_decomposition_suite_emits_ratio_tables():
    res = harness.run_suite("decomposition", SMALL_CORPUS)
    assert res.ok
    fams = {row["family"] for row in res.ratio_tables}
    assert "bw_energy_split_vs_bound" in fams
    assert "xy_energy_product_vs_bound" in fams
    for row in res.ratio_tables:
        assert Fraction(row["lo"]) <= Fraction(row["hi"])
    for fam, hi in res.max_constants.items():
        assert any(row["family"] == fam and row["hi"] == hi
                   for row in res.ratio_tables)


def test_reports_suite_byte_stable_and_fits():
    r1 = harness.run_suite("reports")
    r2 = harness.run_suite("reports")
    assert r1.to_bytes() == r2.to_bytes()
    fit_checks = [c for c in r1.checks if c.name.startswith("fit:")]
    assert len(fit_checks) == 5
    for c in fit_checks:
        doc = json.loads(c.details)
        assert list(doc["sizes"]) == sorted(set(doc["sizes"]))
        assert isinstance(doc["slope"], float)


def test_fit_exponent_exact_power_laws():
    assert harness.fit_exponent([(2, 4), (4, 16), (8, 64)]).slope == pytest.approx(2.0)
    assert harness.fit_exponent([(2, 2), (4, 4), (8, 8)]).slope == pytest.approx(1.0)


def test_fit_exponent_validation():
    with pytest.raises(InsufficientPoints):
        harness.fit_exponent([(2, 4), (4, 16)])
    with pytest.raises(InsufficientPoints):
        harness.fit_exponent([(2, 4), (2, 5), (4, 16)])
    with pytest.raises(InvalidConfig):
        harness.fit_exponent([(2, 0), (4, 16), (8, 64)])


def test_fit_exponent_recomputable_from_stored_points():
    f = harness.fit_exponent([(3, 10), (5, 40), (9, 250)], family="t",
                             target=Fraction(2))
    again = harness.fit_exponent(list(zip(f.sizes, f.values)))
    assert again.slope == f.slope and again.intercept == f.intercept
    assert f.to_json()["target"] == "2"


def test_shift_product_report_gp_frozen():
    rep = harness.shift_product_report(RatSet([1, 2, 4, 8]), 1, 1)
    assert rep["K_mul"] == "7/4"
    assert rep["shifted_product_size"] == 10
    assert rep["triple_sum_size"] == 17
    assert rep["identity"] == "ok"


def test_shift_product_report_trivial_singleton():
    rep = harness.shift_product_report(RatSet([1]), 1, 2)
    assert rep["shifted_product_size"] == 1


def test_shift_product_report_validation():
    with pytest.raises(ZeroShift):
        harness.shift_product_report(RatSet([1, 2]), 0, 1)
    from addcomb.errors import DivisionByZero

    with pytest.raises(DivisionByZero):
        harness.shift_product_report(RatSet([0, 1]), 1, 1)


def test_shift_product_report_budget_skip():
    rep = harness.shift_product_report(RatSet([1, 2, 4, 8]), 1, 1, budget=10)
    assert rep["identity"] == "skipped (budget)"


def test_baselines_file_present_and_covering():
    base = harness.load_baselines()
    assert set(base) >= {
        "bw_energy_split_vs_bound",
        "collinear_ordered_vs_bound",
        "popular_ratio_energy_vs_bound",
        "xy_energy_product_vs_bound",
    }
    for v in base.values():
        assert Fraction(v) > 0


def test_environment_info_fields():
    env = harness.environment_info(seed=5, budget=123)
    assert env["seed"] == 5 and env["budget"] == 123
    assert env["backend"] == "pure"
    assert env["package"]
