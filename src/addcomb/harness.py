"""Verification suites, corpus management, exponent fits, and reports.

Checks come in two kinds, enforced structurally: EXACT checks assert an
exact mathematical statement and can fail a run; ASYMPTOTIC entries carry
ratio data for bounds with implicit constants and are always report-only.
All suite output is deterministic for a given corpus (seeds pinned, JSON
keys sorted, no timestamps), so reports are byte-stable across runs.
"""

from __future__ import annotations

import json
import math
import platform
import statistics
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata, resources
from itertools import combinations
from typing import Optional, Sequence

import mpmath

from . import decompose, ratios
from ._kernels import backend_name
from .collinear import t_count_brute, t_identity_check, t_o_count, triple_count_report
from .core import DEFAULT_BUDGET, canonical_line, line_through, point
from .energy import energy, l4_union_check, rep_histogram
from .errors import (
    BudgetExceeded,
    DegeneratePair,
    InsufficientPoints,
    InvalidConfig,
    PostconditionFailed,
    ZeroShift,
)
from .incidence import Arrangement, incidences, rich_lines, st_bound_check
from .intervals import power_sum_ratio_decimal
from .sets import (
    GeneratorConfig,
    RatSet,
    SplitMix64,
    affine,
    ap,
    format_rational,
    generate,
    gp,
    grid_example,
    random_set,
    set_op,
)

SUITE_NAMES = ("exact", "oracle", "incidence", "decomposition", "regularization", "reports")

# Default corpus: zero-free, sizes 4..64, mix of additive / multiplicative /
# grid / random structure.  Fractional entries exercise the rational paths.
DEFAULT_CORPUS = [
    ap(1, 1, 8),
    ap(1, 1, 16),
    ap(1, 1, 32),
    ap(1, 1, 64),
    ap(3, 5, 24),
    ap(Fraction(1, 2), Fraction(1, 3), 12),
    gp(1, 2, 8),
    gp(1, 2, 16),
    gp(1, 2, 32),
    gp(Fraction(2, 3), Fraction(3, 2), 12),
    grid_example(2, 2),
    grid_example(3, 3),
    grid_example(4, 4),
    grid_example(5, 5),
    random_set(16, 100, 1),
    random_set(24, 200, 2),
    random_set(32, 500, 3),
    random_set(48, 2000, 4),
    random_set(64, 10000, 5),
]

# Report corpus: the grid family the ratio tables and fits are built from.
GRID_FAMILY = [grid_example(s, s) for s in (2, 3, 4, 5)]


@dataclass(frozen=True)
class Check:
    name: str
    kind: str  # "EXACT" or "ASYMPTOTIC"
    status: str  # "pass" / "fail" / "report-only"
    details: str

    def to_json(self) -> dict:
        return {"name": self.name, "kind": self.kind, "status": self.status,
                "details": self.details}


@dataclass(frozen=True)
class VerifySuiteResult:
    suite: str
    checks: tuple
    ratio_tables: tuple
    max_constants: dict
    environment: dict

    @property
    def ok(self) -> bool:
        return not any(c.kind == "EXACT" and c.status == "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [c.to_json() for c in self.checks],
            "ratio_tables": [dict(sorted(r.items())) for r in self.ratio_tables],
            "max_constants": dict(sorted(self.max_constants.items())),
            "environment": dict(sorted(self.environment.items())),
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":")).encode() + b"\n"


@dataclass(frozen=True)
class ExponentFit:
    """Log-log least-squares fit of value against set size (report-only)."""

    family: str
    sizes: tuple
    values: tuple
    slope: float
    intercept: float
    target: Optional[Fraction]

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "sizes": list(self.sizes),
            "values": list(self.values),
            "slope": self.slope,
            "intercept": self.intercept,
            "target": str(self.target) if self.target is not None else None,
        }


def fit_exponent(points: Sequence, family: str = "",
                 target: Optional[Fraction] = None) -> ExponentFit:
    """Least-squares slope of ln(value) against ln(size).

    Needs at least three points with distinct sizes and positive values;
    double precision is fine here, the fit never gates a pass/fail check.
    """
    pts = sorted(points)
    sizes = [s for s, _ in pts]
    values = [v for _, v in pts]
    if len(sizes) < 3 or len(set(sizes)) != len(sizes):
        raise InsufficientPoints("need >= 3 points with distinct sizes")
    if any(v <= 0 for v in values) or any(s <= 0 for s in sizes):
        raise InvalidConfig("sizes and values must be positive")
    fitted = statistics.linear_regression(
        [math.log(s) for s in sizes], [math.log(v) for v in values]
    )
    return ExponentFit(family=family, sizes=tuple(sizes), values=tuple(values),
                       slope=fitted.slope, intercept=fitted.intercept, target=target)


def environment_info(seed: int = 0, budget: int = DEFAULT_BUDGET) -> dict:
    try:
        pkg = metadata.version("addcomb")
    except metadata.PackageNotFoundError:
        pkg = "0.1.0"
    return {
        "seed": seed,
        "budget": budget,
        "backend": backend_name(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "package": pkg,
    }


def load_baselines() -> dict:
    """Stored max ratios for the ASYMPTOTIC families (empty if absent)."""
    try:
        text = resources.files("addcomb").joinpath("data/baselines.json").read_text()
    except (FileNotFoundError, ModuleNotFoundError):
        return {}
    return json.loads(text)


# ---------------------------------------------------------------------------
# small deterministic generators for the pinned-seed suites


def _seeded_rat_set(rng: SplitMix64, size: int, num_range: int = 10,
                    max_den: int = 3) -> RatSet:
    vals = set()
    while len(vals) < size:
        num = rng.below(2 * num_range + 1) - num_range
        den = 1 + rng.below(max_den)
        vals.add(Fraction(num, den))
    return RatSet(vals)


def _seeded_arrangement(seed: int) -> Arrangement:
    rng = SplitMix64(seed)
    n_pts = 1 + rng.below(200)
    n_lines = 1 + rng.below(200)
    pts = []
    for _ in range(n_pts):
        x = Fraction(rng.below(2001) - 1000, 1 + rng.below(4))
        y = Fraction(rng.below(2001) - 1000, 1 + rng.below(4))
        pts.append(point(x, y))
    lines = []
    for _ in range(n_lines):
        a = rng.below(41) - 20
        b = rng.below(41) - 20
        if a == 0 and b == 0:
            a = 1
        c = rng.below(2001) - 1000
        lines.append(canonical_line(a, b, c))
    return Arrangement.build(pts, lines)


def _materialize(corpus: Sequence[GeneratorConfig]):
    return [(cfg.label(), generate(cfg)) for cfg in corpus]


def _exact(name: str, ok: bool, details: str) -> Check:
    return Check(name=name, kind="EXACT", status="pass" if ok else "fail",
                 details=details)


def _report(name: str, details: str) -> Check:
    return Check(name=name, kind="ASYMPTOTIC", status="report-only", details=details)


def _note(tables: list, maxima: dict, family: str, lbl: str, lo: str, hi: str) -> None:
    # one ratio-table row; maxima keeps each family's largest upper end
    tables.append({"family": family, "set": lbl, "lo": lo, "hi": hi})
    cur = maxima.get(family)
    if cur is None or Fraction(hi) > Fraction(cur):
        maxima[family] = hi


def _baseline_drift_check(maxima: dict) -> Check:
    # regression sensing, not a bound: warns (never fails) past 2x stored max
    baselines = load_baselines()
    exceeded = [family for family, hi in sorted(maxima.items())
                if family in baselines
                and Fraction(hi) > 2 * Fraction(baselines[family])]
    return _report(
        "baseline_drift",
        "exceeded 2x stored baseline: " + (", ".join(exceeded) if exceeded else "none"))


# ---------------------------------------------------------------------------
# suites


def _suite_exact(corpus, budget: int):
    checks = []

    # hand-checkable fixed counts
    z = RatSet([0])
    z01 = RatSet([0, 1])
    z012 = RatSet([0, 1, 2])
    a123 = RatSet([1, 2, 3])
    a124 = RatSet([1, 2, 4])
    a1234 = RatSet([1, 2, 3, 4])
    hand = [
        ("T({0})", t_count_brute(z, z, z, budget), 1),
        ("T({0,1})", t_count_brute(z01, z01, z01, budget), 40),
        ("T_o({0,1})", t_o_count(z01, z01, z01, "brute", budget), 0),
        ("T_o({0,1,2})", t_o_count(z012, z012, z012, "brute", budget), 48),
        ("E_plus({1,2,3})", energy(a123, a123, 2, "additive"), 19),
        ("E3_plus({1,2,3})", energy(a123, a123, 3, "additive"), 45),
        ("E_mul({1,2,4})", energy(a124, a124, 2, "multiplicative"), 19),
        ("E_plus({1,2,3,4})", energy(a1234, a1234, 2, "additive"), 44),
        ("r(1;{1,2})", ratios.r_of_z(1, RatSet([1, 2]), RatSet([1, 2])), 6),
    ]
    for name, got, want in hand:
        checks.append(_exact(f"hand:{name}", got == want, f"got {got}, expected {want}"))

    sets_ = _materialize(corpus)
    zero_free = [(lbl, A) for lbl, A in sets_ if 0 not in A]

    for lbl, A in sets_:
        n = len(A)
        e2 = energy(A, A, 2, "additive")
        e3 = energy(A, A, 3, "additive")
        checks.append(_exact(
            f"cs_ladder:{lbl}", e2 * e2 <= n * n * e3,
            f"E+^2={e2 * e2} vs |A|^2 E3+={n * n * e3}"))
        diff_mass = rep_histogram(A, A, "diff").mass
        checks.append(_exact(
            f"mass_conservation:{lbl}", diff_mass == n * n,
            f"sum r_(A-A) = {diff_mass}, |A|^2 = {n * n}"))

    for lbl, A in zero_free:
        n = len(A)
        em = energy(A, A, 2, "multiplicative")
        aa = len(set_op(A, A, "prod"))
        ra = len(set_op(A, A, "ratio"))
        checks.append(_exact(
            f"mul_energy_product_set:{lbl}", em * aa >= n**4,
            f"E_mul*|AA|={em * aa} vs |A|^4={n**4}"))
        checks.append(_exact(
            f"mul_energy_ratio_set:{lbl}", em * ra >= n**4,
            f"E_mul*|A/A|={em * ra} vs |A|^4={n**4}"))
        try:
            to = t_o_count(RatSet([0]), A, A, "linehash", budget)
            checks.append(_exact(
                f"collinear_lower:{lbl}", to >= em - n * n,
                f"T_o(0,A,A)={to} vs E_mul-|A|^2={em - n * n}"))
        except BudgetExceeded:
            checks.append(_report(f"collinear_lower:{lbl}", "budget exceeded"))

    # log2 isomorphism: exponentiating an integer set turns sums into
    # products, so every additive k-energy must transfer verbatim
    for lbl, A in sets_:
        if not all(a.denominator == 1 for a in A):
            continue
        if max(abs(a) for a in A) > 2048:
            continue
        img = RatSet(Fraction(2) ** int(a) for a in A)
        ok = all(
            energy(img, img, k, "multiplicative") == energy(A, A, k, "additive")
            for k in (2, 3, 4)
        )
        checks.append(_exact(f"log2_isomorphism:{lbl}", ok, "k in {2,3,4}"))

    # quarter-power inequality on 100 seeded random partitions (<= 4 parts)
    if zero_free:
        rng = SplitMix64(20260823)
        bad = []
        for i in range(100):
            _, A = zero_free[i % len(zero_free)]
            m = 2 + rng.below(3)
            buckets = [[] for _ in range(m)]
            for a in A:
                buckets[rng.below(m)].append(a)
            parts = [RatSet(b) for b in buckets if b]
            if l4_union_check(parts) != "ok":
                bad.append(i)
        checks.append(_exact(
            "l4_partitions", not bad,
            f"100 partitions, failures: {bad if bad else 'none'}"))
    else:
        checks.append(_report("l4_partitions", "no zero-free corpus sets"))

    # collinearity identity on 50 seeded random (A, C, D) triples
    bad = []
    for i in range(1, 51):
        rng = SplitMix64(1000 + i)
        trip = [_seeded_rat_set(rng, 1 + rng.below(5)) for _ in range(3)]
        rep = t_identity_check(trip[0], trip[1], trip[2], budget)
        if not rep.ok:
            bad.append(i)
    checks.append(_exact(
        "shift_energy_identity", not bad,
        f"50 triples, failures: {bad if bad else 'none'}"))

    return checks, [], {}


def _suite_oracle(corpus, budget: int):
    checks = []
    mismatches = []
    split_bad = []
    for seed in range(1, 201):
        rng = SplitMix64(seed)
        trip = [_seeded_rat_set(rng, 1 + rng.below(6)) for _ in range(3)]
        brute = t_o_count(trip[0], trip[1], trip[2], "brute", budget)
        fast = t_o_count(trip[0], trip[1], trip[2], "linehash", budget)
        if brute != fast:
            mismatches.append(seed)
        rep = triple_count_report(trip[0], trip[1], trip[2], budget)
        if not (rep.T == rep.T_o + rep.degenerate_terms and rep.T >= rep.T_o
                and rep.T_o == brute):
            split_bad.append(seed)
    checks.append(_exact(
        "oracle_equivalence", not mismatches,
        f"200 triples, mismatched seeds: {mismatches if mismatches else 'none'}"))
    checks.append(_exact(
        "split_consistency", not split_bad,
        f"200 triples, inconsistent seeds: {split_bad if split_bad else 'none'}"))
    return checks, [], {}


def _suite_incidence(corpus, budget: int):
    checks = []
    bad = []
    for seed in range(1, 1001):
        arr = _seeded_arrangement(seed)
        if not st_bound_check(arr).ok:
            bad.append(seed)
    checks.append(_exact(
        "st_bound", not bad,
        f"1000 arrangements, failing seeds: {bad if bad else 'none'}"))

    # independent recount on a sample: kernel count vs direct membership
    recount_bad = []
    for seed in range(1, 21):
        arr = _seeded_arrangement(seed)
        direct = sum(1 for li in arr.lines for p in arr.points if li.contains(p))
        if incidences(arr) != direct:
            recount_bad.append(seed)
    checks.append(_exact(
        "incidence_recount", not recount_bad,
        f"20 arrangements, failing seeds: {recount_bad if recount_bad else 'none'}"))

    # rich lines really are rich, and no rich line is missed
    rng = SplitMix64(77)
    pts = [point(Fraction(rng.below(9)), Fraction(rng.below(9))) for _ in range(40)]
    pts = list(dict.fromkeys(pts))
    rich = rich_lines(pts, 3)
    ok = all(sum(1 for p in pts if li.contains(p)) >= 3 for li in rich)
    spanned = set()
    for p, q in combinations(pts, 2):
        try:
            spanned.add(line_through(p, q))
        except DegeneratePair:
            pass
    missed = [li for li in spanned
              if sum(1 for p in pts if li.contains(p)) >= 3 and li not in rich]
    checks.append(_exact(
        "rich_lines", ok and not missed,
        f"{len(rich)} rich lines on 40-point sample, missed: {len(missed)}"))
    return checks, [], {}


def _suite_decomposition(corpus, budget: int):
    checks = []
    tables = []
    maxima = {}

    for lbl, A in _materialize(corpus):
        if 0 in A:
            continue
        n = len(A)

        res = decompose.bw_decompose(A)
        B, C = res.parts["B"], res.parts["C"]
        guard_ok = True
        if len(B):
            e3b = energy(B, B, 3, "additive")
            guard_ok = e3b**11 * n**6 <= n**44
        cert_fail = decompose.recheck_decomposition(A, res)
        checks.append(_exact(
            f"bw_partition:{lbl}",
            B.is_disjoint(C) and B.union(C) == A and guard_ok and not cert_fail,
            f"|B|={len(B)} |C|={len(C)} pieces={res.meta['pieces']} "
            f"cert failures: {cert_fail if cert_fail else 'none'}"))
        _note(tables, maxima, "bw_energy_split_vs_bound", lbl, *res.target_ratio)

        res = decompose.xy_decompose(A)
        X, Y = res.parts["X"], res.parts["Y"]
        cert_fail = decompose.recheck_decomposition(A, res)
        checks.append(_exact(
            f"xy_cover:{lbl}",
            X.union(Y) == A and 2 * len(X) >= n and 2 * len(Y) >= n
            and not cert_fail,
            f"|X|={len(X)} |Y|={len(Y)} pieces={res.meta['pieces']} "
            f"cert failures: {cert_fail if cert_fail else 'none'}"))
        _note(tables, maxima, "xy_energy_product_vs_bound", lbl, *res.target_ratio)

        # single-extraction report: output structure vs the input energy
        Ap, cert = decompose.extract_mult_structured(A)
        fails = decompose.recheck_certificate(A, cert)
        checks.append(_exact(
            f"extraction_certificate:{lbl}", not fails,
            f"branch={cert.branch} |A'|={len(Ap)} failures: {fails if fails else 'none'}"))
        lo, hi = decompose.extraction_ratio_decimal(n, cert)
        _note(tables, maxima, "extraction_energy_vs_bound", lbl, lo, hi)
        # size report: |A'|^2 |A|^2 / E3+(A), the squared form of the
        # lemma's lower bound |A'| >= c sqrt(E3+)/|A| (exact rational)
        c_sq = Fraction(len(Ap) ** 2 * n * n, cert.E3_input)
        checks.append(_report(
            f"extraction_size:{lbl}",
            f"|A'|^2|A|^2/E3+ = {c_sq} (>= c^2 for the lemma's constant c)"))

        if n <= 16:
            zbest, val = decompose.best_z(A)
            em = energy(A, A, 2, "multiplicative")
            checks.append(_report(
                f"best_z:{lbl}",
                f"z={format_rational(Fraction(zbest))} value={val} "
                f"value*|A|/E_mul = {Fraction(val * n, em)}"))
    checks.append(_baseline_drift_check(maxima))
    return checks, tables, maxima


def _suite_regularization(corpus, budget: int):
    checks = []
    for lbl, A in _materialize(corpus):
        if len(A) < 4:
            continue
        for k in (2, 3):
            tr = decompose.regularize(A, k)
            fails = decompose.recheck_reg_trace(A, tr)
            cap = -(-tr.epsilon.denominator // tr.epsilon.numerator)
            shrink = (1 - tr.epsilon) ** (len(tr.steps) - 1)
            ok = (not fails and len(tr.steps) <= cap
                  and len(tr.B) * shrink.denominator >= shrink.numerator * len(A))
            checks.append(_exact(
                f"regularize_k{k}:{lbl}", ok,
                f"steps={len(tr.steps)} |B|={len(tr.B)} |B'|={len(tr.B_prime)} "
                f"|B''|={len(tr.B_dprime)} failures: {fails if fails else 'none'}"))
    return checks, [], {}


def _suite_reports(corpus, budget: int):
    checks = []
    tables = []
    maxima = {}
    fits = []

    per_size = []
    for lbl, A in _materialize(corpus):
        n = len(A)
        row = {"label": lbl, "n": n}

        # bound shape follows the asymmetric statement |A1||A2|^(5/3)|A3|^(4/3)
        to = t_o_count(A, A, A, "linehash", budget)
        lo, hi = power_sum_ratio_decimal(
            to, [[(n, Fraction(1)), (n, Fraction(5, 3)), (n, Fraction(4, 3))]])
        _note(tables, maxima, "collinear_ordered_vs_bound", lbl, lo, hi)
        row["T_o"] = to

        Z = ratios.popular_ratios(A, A, budget=budget)
        prof = ratios.ratio_profile(Z, A, A)
        _note(tables, maxima, "popular_ratio_energy_vs_bound", lbl, *prof.theorem_ratio)
        row["R"] = prof.R

        res = decompose.bw_decompose(A)
        eb = res.energies["E_plus_B"]
        ec = res.energies["E_mul_C"]
        _note(tables, maxima, "bw_energy_split_vs_bound", lbl, *res.target_ratio)
        row["bw_max_energy"] = max(eb, ec)

        res = decompose.xy_decompose(A)
        _note(tables, maxima, "xy_energy_product_vs_bound", lbl, *res.target_ratio)
        row["xy_product"] = res.energies["E3_X"] ** 4 * res.energies["E_mul_Y"] ** 3

        row["growth"] = max(len(set_op(A, A, "diff")), len(set_op(A, A, "prod")))
        per_size.append(row)

    fit_specs = [
        ("collinear_ordered", "T_o", Fraction(4)),
        ("popular_ratio_energy", "R", Fraction(6)),
        ("bw_energy_split", "bw_max_energy", Fraction(30, 11)),
        ("xy_energy_product", "xy_product", Fraction(22)),
        ("sum_product_growth", "growth", 1 + Fraction(105, 347)),
    ]
    for family, key, target in fit_specs:
        pts = [(row["n"], row[key]) for row in per_size]
        try:
            fits.append(fit_exponent(pts, family=family, target=target))
        except InsufficientPoints:
            checks.append(_report(f"fit:{family}", "insufficient points"))
    for f in fits:
        checks.append(_report(
            f"fit:{f.family}",
            json.dumps(f.to_json(), sort_keys=True, separators=(",", ":"))))

    checks.append(_baseline_drift_check(maxima))
    return checks, tables, maxima


_SUITES = {
    "exact": _suite_exact,
    "oracle": _suite_oracle,
    "incidence": _suite_incidence,
    "decomposition": _suite_decomposition,
    "regularization": _suite_regularization,
    "reports": _suite_reports,
}


def run_suite(name: str, corpus: Optional[Sequence[GeneratorConfig]] = None,
              budget: int = DEFAULT_BUDGET, seed: int = 0) -> VerifySuiteResult:
    """Run one verification suite over a corpus of set generators.

    corpus defaults to DEFAULT_CORPUS (GRID_FAMILY for the reports suite).
    The oracle and incidence suites draw their instances from pinned seeds
    and use the corpus argument only as context.  Result is deterministic
    for fixed inputs; any EXACT failure flips .ok.
    """
    if name not in _SUITES:
        raise InvalidConfig(f"unknown suite {name!r}; options: {', '.join(SUITE_NAMES)}")
    if corpus is None:
        corpus = GRID_FAMILY if name == "reports" else DEFAULT_CORPUS
    if not corpus:
        raise InvalidConfig("corpus must be nonempty")
    checks, tables, maxima = _SUITES[name](corpus, budget)
    return VerifySuiteResult(
        suite=name,
        checks=tuple(checks),
        ratio_tables=tuple(tables),
        max_constants=maxima,
        environment=environment_info(seed=seed, budget=budget),
    )


# ---------------------------------------------------------------------------
# shift-product report


def shift_product_report(A: RatSet, alpha, beta,
                         budget: int = DEFAULT_BUDGET) -> dict:
    """Growth of (A+alpha)(A+beta) against the product-set ratio K = |AA|/|A|.

    Reports K_mul, K_div, |(A+alpha)(A+beta)| with its ratio against
    K^-3 |A|^2, and the triple sum |A + alpha A + beta A| with its ratio
    against K^-5 |A|^2 (all exact rationals).  When the sizes fit the
    budget, the collinearity identity on (A, AA/alpha, AA/beta) is run and
    a mismatch raises PostconditionFailed.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha == 0 or beta == 0:
        raise ZeroShift("shifts must be nonzero")
    A.require_nonzero("shift-product report")
    n = len(A)
    aa = set_op(A, A, "prod")
    dd = set_op(A, A, "ratio")
    k_mul = Fraction(len(aa), n)
    k_div = Fraction(len(dd), n)
    shifted_prod = set_op(affine(A, 1, alpha), affine(A, 1, beta), "prod")
    triple = RatSet(a + alpha * b + beta * c for a in A for b in A for c in A)
    ratio_prod = Fraction(len(shifted_prod)) * k_mul**3 / (n * n)
    ratio_triple = Fraction(len(triple)) * k_mul**5 / (n * n)
    report = {
        "K_mul": str(k_mul),
        "K_div": str(k_div),
        "shifted_product_size": len(shifted_prod),
        "triple_sum_size": len(triple),
        "ratio_vs_Kmul3": str(ratio_prod),
        "ratio_vs_Kmul5": str(ratio_triple),
    }
    C = affine(aa, 1 / alpha, 0)
    D = affine(aa, 1 / beta, 0)
    if (n * len(C) * len(D)) ** 2 <= budget:
        rep = t_identity_check(A, C, D, budget)
        if not rep.ok:
            raise PostconditionFailed(
                f"shift identity failed: {rep.lhs} != {rep.rhs}")
        report["identity"] = "ok"
    else:
        report["identity"] = "skipped (budget)"
    return report
