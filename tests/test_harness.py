"""Verification suites, exponent fits, shift-product report, baselines."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import addcomb
from addcomb import harness
from addcomb.errors import InsufficientPoints, InvalidConfig, ZeroShift
from addcomb.incidence import scaled_incidences
from addcomb.sets import GeneratorConfig, RatSet, ap, canonical_json, gp, grid_example
from source_rules import imported_names, nodes, route_calls, scan

ROOT = Path(__file__).resolve().parent.parent
SMALL_CORPUS = [ap(1, 1, 8), gp(1, 2, 8), grid_example(3, 3)]


def _assert_scaled_arrangement_matches(seed):
    # the int arrangement is the Fraction one scaled by 12, point for point
    # and line for line, so both builders consume the same draws
    arr = harness._seeded_arrangement(seed)
    pts, lines = harness._seeded_scaled_arrangement(seed)
    s = harness.ARRANGEMENT_SCALE
    assert pts == {(int(p.x * s), int(p.y * s)) for p in arr.points}
    assert lines == {(l.a, l.b, l.c * s) for l in arr.lines}
    assert 1 <= len(pts) <= 200 and 1 <= len(lines) <= 200


def test_scaled_arrangement_is_the_fraction_arrangement_times_12():
    for seed in range(1, 51):
        _assert_scaled_arrangement_matches(seed)
    # sizes of seeds 1..50 as the Fraction-only generator drew them; a
    # reordered or re-seeded draw changes them
    arrs = [harness._seeded_arrangement(seed) for seed in range(1, 51)]
    assert sum(len(a.points) for a in arrs) == 5345
    assert sum(len(a.lines) for a in arrs) == 4703


def test_incidence_suite_stream_is_pinned():
    # totals over the 1000 seeds that the st_bound check draws, as the
    # one-draw-at-a-time generator drew them; the verify payload reports
    # only failing seeds, so a changed stream shows here and not there
    n_pts = n_lines = total = 0
    surplus = []
    for seed in range(1, 1001):
        pts, lines = harness._seeded_scaled_arrangement(seed)
        count = scaled_incidences(pts, lines)
        n_pts += len(pts)
        n_lines += len(lines)
        total += count
        surplus.append(count - 4 * len(pts) - len(lines))
    assert (n_pts, n_lines, total, max(surplus)) == (99459, 101992, 493, -31)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_scaled_arrangement_matches_at_any_seed(seed):
    _assert_scaled_arrangement_matches(seed)


# the incidence counters that the recount checks, and the kernel modules
RECOUNT_BANNED = ("count_incidences", "scaled_incidences", "incidences")
KERNEL_MODULES = ("_kernels_py", "_kernels")


def _recount_routes(walk):
    return route_calls(walk, "_direct_incidences", RECOUNT_BANNED, KERNEL_MODULES)


def test_the_incidence_recount_calls_no_counting_route():
    # the recount's `direct` must never come from the route it checks
    src = (
        "from ._kernels_py import _line_census\n"
        "from addcomb import _kernels as k\n"
        "def _direct_incidences(arr):\n"
        "    n = incidences(arr) + _line_census(arr.points)\n"
        "    return n + k.mul_pairs_count([1], [1]) + _kernels_py.t_o_linehash(1) + sum([1])\n"
        "def elsewhere(arr):\n"
        "    return count_incidences(arr)\n"
    )
    assert _recount_routes(nodes(src)) == [
        "incidences", "_line_census", "k.mul_pairs_count", "_kernels_py.t_o_linehash"]
    walk = scan(ROOT / "src/addcomb/harness.py")
    assert _recount_routes(walk) == []
    # the rule reads the helper itself, and the harness's kernel imports
    assert route_calls(walk, "_direct_incidences", ["sum"], ()) == ["sum"]
    assert "backend_name" in imported_names(walk, "_kernels")


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


def test_a_label_past_the_digit_limit_is_an_invalid_config():
    with pytest.raises(InvalidConfig, match="more than 4300 digits"):
        harness.run_suite("exact", [ap(10**5000, 1, 2)])


def test_suite_result_serialization():
    res = harness.run_suite("oracle", SMALL_CORPUS)
    doc = res.to_json()
    assert doc["suite"] == "oracle"
    assert doc["environment"]["backend"] == "pure"
    assert isinstance(doc["checks"], list) and doc["checks"]
    # the canonical text parses back to the same document
    assert json.loads(canonical_json(doc)) == json.loads(
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


def test_reports_suite_skips_sets_containing_zero():
    # AP(0,1,8) holds 0, which the bw and xy decompositions refuse; the
    # suite reports on the other two sets instead of aborting
    res = harness.run_suite("reports", [ap(0, 1, 8), ap(1, 1, 9), ap(1, 1, 10)])
    assert res.ok
    assert {row["set"] for row in res.ratio_tables} == {
        ap(1, 1, 9).label(), ap(1, 1, 10).label()}
    fits = [c for c in res.checks if c.name.startswith("fit:")]
    assert fits and all(c.details == "insufficient points" for c in fits)


def test_decomposition_and_reports_suites_skip_sets_of_fewer_than_two():
    # AP(1,1,1) and GP(2,1,4) = {2} hold one element, which xy refuses
    corpus = [ap(1, 1, 1), gp(2, 1, 4), ap(1, 1, 8)]
    for suite in ("decomposition", "reports"):
        res = harness.run_suite(suite, corpus)
        assert res.ok
        assert {row["set"] for row in res.ratio_tables} == {ap(1, 1, 8).label()}


def test_reports_suite_fits_each_family_over_its_positive_rows():
    # T_o = 0 on the 2-element set, so that family fits the other three sizes
    res = harness.run_suite("reports", [ap(1, 1, n) for n in (2, 5, 8, 12)])
    fits = {c.name: json.loads(c.details) for c in res.checks if c.name.startswith("fit:")}
    assert fits["fit:collinear_ordered"]["sizes"] == [5, 8, 12]
    assert fits["fit:popular_ratio_energy"]["sizes"] == [2, 5, 8, 12]
    # two positive rows are too few to fit
    res = harness.run_suite("reports", [ap(1, 1, n) for n in (2, 5, 8)])
    fits = {c.name: c.details for c in res.checks if c.name.startswith("fit:")}
    assert fits["fit:collinear_ordered"] == "insufficient points"
    assert json.loads(fits["fit:popular_ratio_energy"])["sizes"] == [2, 5, 8]


_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@given(st.lists(st.lists(_small, min_size=1, max_size=6), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_suites_never_raise_on_small_literal_corpora(sets):
    # 0, repeated values and sets of 1 to 3 elements included
    corpus = [GeneratorConfig(kind="Literal", values=tuple(vals)) for vals in sets]
    for suite in ("decomposition", "regularization", "reports"):
        assert harness.run_suite(suite, corpus).suite == suite


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
    # the identity charges (|A| |AA/alpha| |AA/beta|)^2 = (4 * 7 * 7)^2 tuple checks
    cost = (4 * 7 * 7) ** 2
    assert harness.shift_product_report(RatSet([1, 2, 4, 8]), 1, 1, cost)["identity"] == "ok"
    rep = harness.shift_product_report(RatSet([1, 2, 4, 8]), 1, 1, cost - 1)
    assert rep["identity"] == "skipped (budget)"


_nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=3).filter(lambda v: v != 0)


@given(st.lists(_nonzero, min_size=1, max_size=5), _nonzero, _nonzero)
@settings(max_examples=60, deadline=None)
def test_triple_sum_size_matches_fraction_brute(vals, alpha, beta):
    a = RatSet(vals)
    brute = {x + alpha * y + beta * z for x in a for y in a for z in a}
    # budget 0 skips the identity; only the sizes are under test here
    rep = harness.shift_product_report(a, alpha, beta, budget=0)
    assert rep["triple_sum_size"] == len(brute)


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
    import platform

    import mpmath

    env = harness.environment_info(seed=5, budget=123)
    assert env["seed"] == 5 and env["budget"] == 123
    assert env["backend"] == "pure"
    assert env["package"] == addcomb.__version__ == "0.1.0"
    # platform and the installed mpmath's version are read inside
    # environment_info, not at import, and still fill the same keys
    assert env["python"] == platform.python_version()
    assert env["mpmath"] == mpmath.__version__
    assert sorted(env) == ["backend", "budget", "mpmath", "package", "python", "seed"]


def test_environment_info_without_mpmath(monkeypatch):
    from importlib import metadata

    def version(name):
        raise metadata.PackageNotFoundError(name)

    monkeypatch.setattr(metadata, "version", version)
    assert harness.environment_info()["mpmath"] == "absent"


def test_version_is_the_pyproject_version():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as f:
        assert addcomb.__version__ == tomllib.load(f)["project"]["version"]
