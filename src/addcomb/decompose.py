"""Constructive decompositions: dyadic bands, the popular-set extractor,
the additive/multiplicative energy split, the X/Y cover, the graph
regularization loop, and the best-dilate search.

Control flow never depends on floating point: irrational thresholds are
replaced by exact rational surrogates chosen on the sound side (documented
per routine), and every certificate or trace stores enough to re-verify
all band memberships from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .energy import CountHistogram, energy, l4_union_check, rep_histogram
from .errors import (
    DegenerateInput,
    EmptyCandidateList,
    EmptyHistogram,
    InvalidConfig,
    IterationOverflow,
    NonTermination,
    PostconditionFailed,
)
from .intervals import ln2_bounds, log_squared_fraction_bounds, power_sum_ratio_decimal
from .sets import RatSet, format_rational, parse_rational


# ---------------------------------------------------------------------------
# dyadic bands


@dataclass(frozen=True)
class DyadicBand:
    """One dyadic level [t, 2t) of a count histogram.

    mass is the k-th moment restricted to the band; the selected band always
    satisfies mass * (number of nonempty bands) >= full k-th moment, hence
    mass * (ceil(log2 r_max) + 1) >= full moment.
    """

    t: int
    P: RatSet
    mass: int


def dyadic_band(h: CountHistogram, k: int) -> DyadicBand:
    """The band with the largest k-th-moment mass; ties toward smaller t.

    Selecting by true band mass (not the |P| * t^k proxy) is what makes the
    pigeonhole guarantee above unconditional; the proxy can lose to a thin
    band of large counts.  Ties cannot change the guarantee, so the smaller
    t wins for determinism.
    """
    if k < 1:
        raise InvalidConfig("dyadic_band needs k >= 1")
    if not h.entries:
        raise EmptyHistogram("cannot band an empty histogram")
    support: dict = {}
    masses: dict = {}
    r_max = 0
    for x, r in h.entries.items():
        j = r.bit_length() - 1  # t = 2^j <= r < 2^(j+1)
        support.setdefault(j, []).append(x)
        masses[j] = masses.get(j, 0) + r**k
        if r > r_max:
            r_max = r
    best_j = max(masses, key=lambda j: (masses[j], -j))
    best = masses[best_j]
    # pigeonhole guarantee, enforced on every histogram that gets banded:
    # argmax mass >= total/(nonempty bands), and bands <= ceil(log2 r_max) + 1
    if best * ((r_max - 1).bit_length() + 1) < sum(masses.values()):
        raise PostconditionFailed("dyadic pigeonhole bound violated")
    return DyadicBand(t=1 << best_j, P=RatSet(support[best_j]), mass=best)


def band_count(h: CountHistogram) -> int:
    """Number of nonempty dyadic bands; equals floor(log2 r_max) + 1 at most."""
    return len({r.bit_length() - 1 for r in h.entries.values()})


# ---------------------------------------------------------------------------
# popular-set extractor


@dataclass(frozen=True)
class ExtractionCertificate:
    """Everything needed to re-verify one extraction from scratch.

    P is the popular-difference band (t <= r_{A-A} < 2t, third moment);
    A1_pop the popular abscissae (q1 <= r_{P+A} < 2q1); A2_pop the popular
    ordinates (q2 <= r_{A1_pop - P} < 2q2).  branch records which set was
    returned: "ordinates" when q2 <= |A2_pop|, "abscissae" otherwise.
    """

    t: int
    q1: int
    q2: int
    P: RatSet
    A1_pop: RatSet
    A2_pop: RatSet
    branch: str
    E3_input: int
    Emul_output: int

    @property
    def chosen(self) -> RatSet:
        return self.A2_pop if self.branch == "ordinates" else self.A1_pop

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "q1": self.q1,
            "q2": self.q2,
            "P": [format_rational(x) for x in self.P],
            "A1_pop": [format_rational(x) for x in self.A1_pop],
            "A2_pop": [format_rational(x) for x in self.A2_pop],
            "branch": self.branch,
            "E3_input": self.E3_input,
            "Emul_output": self.Emul_output,
        }

    @staticmethod
    def from_json(d: dict) -> "ExtractionCertificate":
        return ExtractionCertificate(
            t=d["t"], q1=d["q1"], q2=d["q2"],
            P=RatSet(parse_rational(x) for x in d["P"]),
            A1_pop=RatSet(parse_rational(x) for x in d["A1_pop"]),
            A2_pop=RatSet(parse_rational(x) for x in d["A2_pop"]),
            branch=d["branch"], E3_input=d["E3_input"],
            Emul_output=d["Emul_output"],
        )


def _restricted_hist(pairs_hist: CountHistogram, keys: RatSet) -> CountHistogram:
    # keep only the counts attained at elements of `keys`
    entries = {}
    for a in keys:
        r = pairs_hist.entries.get(a)
        if r:
            entries[a] = r
    return CountHistogram(entries)


def _extract_core(A: RatSet):
    diff = rep_histogram(A, A, "diff")
    band = dyadic_band(diff, 3)
    t, P = band.t, band.P

    # popular abscissae: band of a -> r_{P+A}(a) over a in A
    h1_full = rep_histogram(P, A, "sum")
    h1 = _restricted_hist(h1_full, A)
    b1 = dyadic_band(h1, 1)
    q1, A1 = b1.t, b1.P

    # popular ordinates: band of b -> r_{A1-P}(b) over b in A
    h2_full = rep_histogram(A1, P, "diff")
    h2 = _restricted_hist(h2_full, A)
    b2 = dyadic_band(h2, 1)
    q2, A2 = b2.t, b2.P

    # postcondition: band memberships hold verbatim
    if not all(t <= diff.entries[x] < 2 * t for x in P):
        raise PostconditionFailed("P left its difference band [t, 2t)")
    if not all(q1 <= h1.entries[a] < 2 * q1 for a in A1):
        raise PostconditionFailed("A1 left its band [q1, 2 q1)")
    if not all(q2 <= h2.entries[b] < 2 * q2 for b in A2):
        raise PostconditionFailed("A2 left its band [q2, 2 q2)")

    branch = "ordinates" if q2 <= len(A2) else "abscissae"
    chosen = A2 if branch == "ordinates" else A1
    cert = ExtractionCertificate(
        t=t, q1=q1, q2=q2, P=P, A1_pop=A1, A2_pop=A2, branch=branch,
        E3_input=diff.moment(3),
        Emul_output=energy(chosen, chosen, 2, "multiplicative"),
    )
    return chosen, cert


def extract_mult_structured(A: RatSet):
    """One extraction step: a popular subset A' of A with its certificate.

    The two-branch rule mirrors the source dichotomy with the implicit
    constant taken to be 1; the certificate records which branch fired so
    the choice is auditable.
    """
    if len(A) < 2:
        raise DegenerateInput("extraction needs |A| >= 2")
    A.require_nonzero("extraction")
    return _extract_core(A)


def extraction_ratio_decimal(source_size: int, cert: ExtractionCertificate):
    """Outward decimal interval of E3(A)^4 Emul(A')^3 / (|A'|^12 |A|^10)."""
    numer = cert.E3_input**4 * cert.Emul_output**3
    return power_sum_ratio_decimal(
        numer, [[(len(cert.chosen), 12), (source_size, 10)]]
    )


def recheck_certificate(source: RatSet, cert: ExtractionCertificate) -> list:
    """Re-derive every certificate claim from the source set.

    Returns the list of failed claim names (empty means fully verified).
    Checks are set equalities against the band definitions, the popularity
    mass sandwich, the branch rule, the recorded energies, and the chained
    dyadic inequality 2 q2 |A2| nb1 nb2 > |P| t with nb1, nb2 the actual
    nonempty band counts of the two popularity histograms.  The chain is
    guaranteed: sum over A of r_{P+A} equals the band mass of r_{A-A} on P
    (at least |P| t), the argmax band holds a 1/nb1 share of it, that share
    reappears verbatim as the total of the second histogram, and each
    popular set bounds its band mass by 2 q |pop|.
    """
    failures = []
    A = source
    diff = rep_histogram(A, A, "diff")
    band_ok = all(cert.t <= diff.entries.get(x, 0) < 2 * cert.t for x in cert.P)
    if not (band_ok and len(cert.P) > 0):
        failures.append("P_band_membership")
    if cert.E3_input != diff.moment(3):
        failures.append("E3_input")

    h1 = _restricted_hist(rep_histogram(cert.P, A, "sum"), A)
    expect_A1 = RatSet(
        a for a, r in h1.entries.items() if cert.q1 <= r < 2 * cert.q1
    )
    if expect_A1 != cert.A1_pop:
        failures.append("A1_band_definition")
    mass1 = sum(h1.entries.get(a, 0) for a in cert.A1_pop)
    n1 = len(cert.A1_pop)
    if not (cert.q1 * n1 <= mass1 < 2 * cert.q1 * n1):
        failures.append("A1_mass_sandwich")

    h2 = _restricted_hist(rep_histogram(cert.A1_pop, cert.P, "diff"), A)
    expect_A2 = RatSet(
        b for b, r in h2.entries.items() if cert.q2 <= r < 2 * cert.q2
    )
    if expect_A2 != cert.A2_pop:
        failures.append("A2_band_definition")
    n2 = len(cert.A2_pop)
    mass2 = sum(h2.entries.get(b, 0) for b in cert.A2_pop)
    if not (cert.q2 * n2 <= mass2 < 2 * cert.q2 * n2):
        failures.append("A2_mass_sandwich")

    expected_branch = "ordinates" if cert.q2 <= n2 else "abscissae"
    if cert.branch != expected_branch:
        failures.append("branch_rule")
    if not cert.chosen.is_subset(A) or len(cert.chosen) < 1:
        failures.append("chosen_subset")
    if cert.Emul_output != energy(cert.chosen, cert.chosen, 2, "multiplicative"):
        failures.append("Emul_output")

    nb1, nb2 = band_count(h1), band_count(h2)
    if not 2 * cert.q2 * n2 * nb1 * nb2 > len(cert.P) * cert.t:
        failures.append("dyadic_chain")
    return failures


def recheck_decomposition(source: RatSet, res: DecompositionResult) -> list:
    """Replay the certificate chain of a decomposition of source.

    Each certificate is rechecked against the remainder its extraction
    saw: source minus every earlier chosen piece.  Returns the failed
    claim names in chain order (empty means fully verified).
    """
    failures = []
    rem = source
    for cert in res.certificates:
        failures += recheck_certificate(rem, cert)
        rem = rem.difference(cert.chosen)
    return failures


# ---------------------------------------------------------------------------
# energy-split and cover decompositions


@dataclass(frozen=True)
class DecompositionResult:
    """Partition/cover of A with certificates and the bound-ratio report.

    kind "bw": parts {B, C}, B disjoint-union C = A, E_3^+(B) below the
    M threshold; kind "xy": parts {X, Y}, X union Y = A, both halves large.
    target_ratio is the outward decimal interval of the theorem ratio.
    """

    kind: str
    parts: dict
    certificates: tuple
    energies: dict
    target_ratio: tuple
    meta: dict

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "parts": {
                name: [format_rational(x) for x in part]
                for name, part in sorted(self.parts.items())
            },
            "certificates": [c.to_json() for c in self.certificates],
            "energies": dict(sorted(self.energies.items())),
            "target_ratio": list(self.target_ratio),
            "meta": dict(sorted(self.meta.items())),
        }

    @staticmethod
    def from_json(d: dict) -> "DecompositionResult":
        return DecompositionResult(
            kind=d["kind"],
            parts={
                name: RatSet(parse_rational(x) for x in part)
                for name, part in d["parts"].items()
            },
            certificates=tuple(
                ExtractionCertificate.from_json(c) for c in d["certificates"]
            ),
            energies=dict(d["energies"]),
            target_ratio=tuple(d["target_ratio"]),
            meta=dict(d["meta"]),
        )


def _guard_energy_large(e3: int, n: int, M) -> bool:
    # guard: E_3^+(B) > |A|^4 / M, in exact integer form
    if M == "auto":
        # M = |A|^(6/11): compare e3^11 * n^6 > n^44
        return e3**11 * n**6 > n**44
    m = Fraction(M)
    return e3 * m.numerator > n**4 * m.denominator


def bw_decompose(A: RatSet, M: Union[str, Fraction, int] = "auto") -> DecompositionResult:
    """Split A = B disjoint-union C with E_3^+(B) small and C a union of
    multiplicatively structured extractor outputs.

    M = "auto" uses the threshold |A|^(6/11); because that exponent is
    irrational the guard is evaluated as E_3^+(B)^11 |A|^6 > |A|^44, which
    is exactly equivalent in integers.  Explicit rational M is compared by
    cross multiplication.  Iteration count is capped at |A| (each pass
    removes a nonempty set), with NonTermination signalling a bug.
    """
    A.require_nonzero("bw decomposition")
    if M != "auto":
        if Fraction(M) <= 0:
            raise InvalidConfig("M must be positive or 'auto'")
    n = len(A)
    B = A
    parts_c = []
    certs = []
    iters = 0
    while len(B) > 0 and _guard_energy_large(energy(B, B, 3, "additive"), n, M):
        iters += 1
        if iters > n:
            raise NonTermination("energy split exceeded |A| iterations")
        D, cert = _extract_core(B)
        parts_c.append(D)
        certs.append(cert)
        B = B.difference(D)
    C = RatSet([])
    for D in parts_c:
        C = C.union(D)
    if parts_c:
        # quarter-power recombination across the extracted pieces
        if l4_union_check(parts_c) == "violated":
            raise PostconditionFailed("quarter-power union bound violated")
    e_plus_b = energy(B, B, 2, "additive") if len(B) else 0
    e_mul_c = energy(C, C, 2, "multiplicative") if len(C) else 0
    ratio = power_sum_ratio_decimal(
        max(e_plus_b, e_mul_c), [[(max(n, 1), Fraction(30, 11))]]
    )
    return DecompositionResult(
        kind="bw",
        parts={"B": B, "C": C},
        certificates=tuple(certs),
        energies={"E_plus_B": e_plus_b, "E_mul_C": e_mul_c},
        target_ratio=ratio,
        meta={"M": "auto" if M == "auto" else str(Fraction(M)), "pieces": len(parts_c)},
    )


def xy_decompose(A: RatSet) -> DecompositionResult:
    """Cover A = X union Y with 2|X| >= |A| and 2|Y| >= |A|.

    Repeatedly extract popular subsets A_j from the remainder until their
    union reaches half of A; X is the remainder before the last extraction,
    Y the union of all extracted sets.  Sizes are compared as 2|X| >= |A|
    (no rounding of |A|/2 is ever involved).
    """
    A.require_nonzero("xy decomposition")
    if len(A) < 2:
        raise DegenerateInput("xy decomposition needs |A| >= 2")
    n = len(A)
    B_prev = A  # B_{j-1} entering iteration j
    X = A
    extracted = []
    certs = []
    covered = 0
    iters = 0
    while 2 * covered < n:
        iters += 1
        if iters > n:
            raise NonTermination("cover loop exceeded |A| iterations")
        D, cert = _extract_core(B_prev)
        extracted.append(D)
        certs.append(cert)
        covered += len(D)
        if 2 * covered >= n:
            X = B_prev  # remainder before this final extraction
            break
        B_prev = B_prev.difference(D)
    Y = RatSet([])
    for D in extracted:
        Y = Y.union(D)
    if 2 * len(X) < n:
        raise PostconditionFailed("X holds less than half of A")
    if 2 * len(Y) < n:
        raise PostconditionFailed("Y holds less than half of A")
    if X.union(Y) != A:
        raise PostconditionFailed("X and Y do not cover A")
    e3_x = energy(X, X, 3, "additive")
    e_mul_y = energy(Y, Y, 2, "multiplicative")
    ratio = power_sum_ratio_decimal(e3_x**4 * e_mul_y**3, [[(n, Fraction(22))]])
    return DecompositionResult(
        kind="xy",
        parts={"X": X, "Y": Y},
        certificates=tuple(certs),
        energies={"E3_X": e3_x, "E_mul_Y": e_mul_y},
        target_ratio=ratio,
        meta={"pieces": len(extracted)},
    )


# ---------------------------------------------------------------------------
# regularization


@dataclass(frozen=True)
class RegStep:
    size: int
    t: int
    p_size: int
    g_size: int
    g_kept: int
    kept: bool


@dataclass(frozen=True)
class RegTrace:
    """Full audit trail of the degree-regularization loop.

    epsilon is the exact rational the loop actually ran with: an outward
    LOWER bound (128-bit) of ln 2 / (k 2^(k+1) ln^2 |A|).  Rounding down
    is the sound side twice over: the degree threshold |G|/(eps |A_i|)
    only grows, so the filter keeps at least everything the ideal
    threshold would keep, and the step cap ceil(1/eps) only grows.
    """

    k: int
    epsilon: Fraction
    steps: tuple
    B: RatSet
    B_prime: RatSet
    B_dprime: RatSet
    final_t: int
    final_P: RatSet

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "epsilon": str(self.epsilon),
            "steps": [
                [s.size, s.t, s.p_size, s.g_size, s.g_kept, s.kept] for s in self.steps
            ],
            "B": [format_rational(x) for x in self.B],
            "B_prime": [format_rational(x) for x in self.B_prime],
            "B_dprime": [format_rational(x) for x in self.B_dprime],
            "final_t": self.final_t,
            "final_P": [format_rational(x) for x in self.final_P],
        }

    @staticmethod
    def from_json(d: dict) -> "RegTrace":
        return RegTrace(
            k=d["k"], epsilon=Fraction(d["epsilon"]),
            steps=tuple(RegStep(*s) for s in d["steps"]),
            B=RatSet(parse_rational(x) for x in d["B"]),
            B_prime=RatSet(parse_rational(x) for x in d["B_prime"]),
            B_dprime=RatSet(parse_rational(x) for x in d["B_dprime"]),
            final_t=d["final_t"],
            final_P=RatSet(parse_rational(x) for x in d["final_P"]),
        )


def _epsilon_bounds(k: int, n: int):
    # enclosure of ln2 / (k 2^(k+1) ln^2 n); both logs natural
    l2lo, l2hi = ln2_bounds()
    lglo, lghi = log_squared_fraction_bounds(n)
    denom = k * 2 ** (k + 1)
    return l2lo / (denom * lghi), l2hi / (denom * lglo)


def _reg_step(cur: RatSet, k: int, eps: Fraction):
    """One pass of the regularization loop on the working set cur.

    Bands the k-th difference moment and keeps a iff its band degree
    deg(a) = #{b in cur : a - b in P} is at most |G| / (eps |cur|).
    Returns (t, P, g_size, deg, kept_set, g_kept, stop): regularize runs
    it, recheck_reg_trace replays it.
    """
    diff = rep_histogram(cur, cur, "diff")
    band = dyadic_band(diff, k)
    t, P = band.t, band.P
    g_size = sum(diff.entries[x] for x in P)
    deg_hist = _restricted_hist(rep_histogram(P, cur, "sum"), cur)
    deg = {a: deg_hist.entries.get(a, 0) for a in cur}
    # keep a iff deg(a) <= |G| / (eps |cur|), cross-multiplied
    na = len(cur)
    kept_set = RatSet(
        a for a in cur
        if deg[a] * eps.numerator * na <= g_size * eps.denominator
    )
    g_kept = sum(deg[a] for a in kept_set)
    return t, P, g_size, deg, kept_set, g_kept, g_kept * 2**k >= g_size


def _two_sided_core(kept_set: RatSet, deg: dict, k: int, n: int, g_size: int) -> RatSet:
    # deg(x) >= |G| / (2^(k+1) |B|), cross-multiplied
    return RatSet(x for x in kept_set if deg[x] * 2 ** (k + 1) * n >= g_size)


def regularize(A: RatSet, k: int) -> RegTrace:
    """Shrink A to a set B whose popular-difference graph is regular enough,
    then carve the two-sided-degree core B'' out of B' subset of B.

    Each pass bands the k-th difference moment, drops the vertices whose
    band degree exceeds |G_i| / (epsilon |A_i|), and repeats while the kept
    graph loses a 2^k factor; all comparisons are exact rationals.
    """
    if not 2 <= k <= 8:
        raise InvalidConfig("regularize needs k in [2, 8]")
    if len(A) < 4:
        raise DegenerateInput("regularize needs |A| >= 4")
    eps, _ = _epsilon_bounds(k, len(A))
    cap = -(-eps.denominator // eps.numerator)  # ceil(1/eps)
    steps = []
    cur = A
    while True:
        if len(steps) >= cap:
            raise IterationOverflow("regularization exceeded ceil(1/epsilon) steps")
        t, P, g_size, deg, kept_set, g_kept, stop = _reg_step(cur, k, eps)
        steps.append(RegStep(size=len(cur), t=t, p_size=len(P), g_size=g_size,
                             g_kept=g_kept, kept=stop))
        if stop:
            break
        cur = kept_set
    trace = RegTrace(
        k=k, epsilon=eps, steps=tuple(steps),
        B=cur, B_prime=kept_set,
        B_dprime=_two_sided_core(kept_set, deg, k, len(cur), g_size),
        final_t=t, final_P=P,
    )
    _assert_reg_invariants(A, trace)
    return trace


def _assert_reg_invariants(A: RatSet, tr: RegTrace) -> None:
    if not tr.B_dprime.is_subset(tr.B_prime):
        raise PostconditionFailed("B'' is not a subset of B'")
    if not tr.B_prime.is_subset(tr.B):
        raise PostconditionFailed("B' is not a subset of B")
    if not tr.B.is_subset(A):
        raise PostconditionFailed("B is not a subset of A")
    # size chain: |B| >= (1 - eps)^(shrink steps) |A|, exact rational power
    shrinks = len(tr.steps) - 1
    factor = (1 - tr.epsilon) ** shrinks
    if len(tr.B) * factor.denominator < factor.numerator * len(A):
        raise PostconditionFailed("|B| fell below (1 - eps)^(shrink steps) |A|")
    cap = -(-tr.epsilon.denominator // tr.epsilon.numerator)
    if len(tr.steps) > cap:
        raise PostconditionFailed("regularization ran past ceil(1/eps) steps")


def recheck_reg_trace(A: RatSet, tr: RegTrace) -> list:
    """Re-verify a regularization trace from scratch; returns failed claims.

    The trace must end at its first terminating step: steps recorded after
    it fail as "trailing_steps".
    """
    failures = []
    cur = A
    eps = tr.epsilon
    for i, st in enumerate(tr.steps):
        if len(cur) != st.size:
            failures.append(f"step{i}_size")
            break
        t, P, g_size, deg, kept_set, g_kept, stop = _reg_step(cur, tr.k, eps)
        claims = (
            ("band", t == st.t and len(P) == st.p_size),
            ("gsize", g_size == st.g_size),
            ("gkept", g_kept == st.g_kept),
            ("stop_flag", stop == st.kept),
        )
        wrong = [name for name, ok in claims if not ok]
        if wrong:
            failures.append(f"step{i}_{wrong[0]}")
            break
        if stop:
            if cur != tr.B or kept_set != tr.B_prime:
                failures.append("final_sets")
            if t != tr.final_t or P != tr.final_P:
                failures.append("final_band")
            if _two_sided_core(kept_set, deg, tr.k, len(cur), g_size) != tr.B_dprime:
                failures.append("core_set")
            # element-wise two-sided degree sandwich on the core
            for x in tr.B_dprime:
                lo_ok = deg[x] * 2 ** (tr.k + 1) * len(cur) >= g_size
                hi_ok = deg[x] * eps.numerator * len(cur) <= g_size * eps.denominator
                if not (lo_ok and hi_ok):
                    failures.append("core_sandwich")
                    break
            if i != len(tr.steps) - 1:
                # nothing may be recorded after the terminating step
                failures.append("trailing_steps")
            return failures
        cur = kept_set
    else:
        failures.append("no_terminating_step")
    return failures


# ---------------------------------------------------------------------------
# best dilate


def default_dilates(A: RatSet) -> RatSet:
    """Candidate dilates {1} union {1/a : a in A}."""
    A.require_nonzero("dilate candidates")
    return RatSet([Fraction(1)] + [1 / a for a in A])


def best_z(A: RatSet, candidates: Optional[RatSet] = None):
    """The candidate z maximizing #{(a,b) in A^2 : z a b in A}.

    That count equals the self-correlation sum over the dilated set zA:
    for x in zA, |zA intersect x zA| summed over x.  Ties go to the
    smaller z; returns (z, value).  The search is over the supplied
    candidates only (default {1} union {1/a : a in A}).
    """
    A.require_nonzero("best_z")
    # coerce to RatSet: sorted iteration makes the tie rule deterministic
    candidates = default_dilates(A) if candidates is None else RatSet(candidates)
    if len(candidates) == 0:
        raise EmptyCandidateList("best_z needs at least one candidate")
    candidates.require_nonzero("best_z candidates")
    best = None
    for z in candidates:
        val = sum(1 for a in A for b in A if z * a * b in A)
        if best is None or val > best[1]:
            best = (z, val)
    return best
