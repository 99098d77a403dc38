"""Constructive decompositions: dyadic bands, the popular-set extractor,
the additive/multiplicative energy split, the X/Y cover, the one-step graph
regularization, and the best-dilate search.

Control flow never depends on floating point: irrational thresholds are
replaced by exact rational surrogates chosen on the sound side (documented
per routine), and every certificate or trace stores enough to re-verify
all band memberships from scratch.

The replays share no step code with the producers, only the tally
`rep_histogram`, `energy`, epsilon and the claim tables `_cover_failures`
and `_pruning_failures`.  They pick each band by their own argmax
(`_argmax_band`).  `recheck_certificate` tests levels by its own rule
(`_is_level`) and E_mul by its product form.  `recheck_reg_trace` builds
the step's level and |G| itself, counts degrees as r_{A-P} where the
producer counts r_{P+A}, and restates the keep and core rules.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import NamedTuple, Optional, Union

from .energy import (CountHistogram, energy, energy_mul_product_form, l4_verdict,
                     rep_histogram)
from .errors import (
    DegenerateInput,
    EmptyCandidateList,
    EmptyHistogram,
    InvalidConfig,
    NonTermination,
    PostconditionFailed,
)
from .intervals import ln2_bounds, log_squared_fraction_bounds, power_sum_ratio_decimal
from .sets import RatSet, Record, affine, as_fraction, as_int, format_rational


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
    t wins for determinism.  The masses are summed over the distinct
    counts, each r^k times the number of keys that attain r, and one pass
    over the keys then collects the chosen band's P.
    """
    if as_int(k, "k") < 1:
        raise InvalidConfig("dyadic_band needs k >= 1")
    if not h.counts:
        raise EmptyHistogram("cannot band an empty histogram")
    multiplicity = Counter(h.counts.values())
    masses: dict = {}
    for r, m in multiplicity.items():
        j = r.bit_length() - 1  # t = 2^j <= r < 2^(j+1)
        masses[j] = masses.get(j, 0) + m * r**k
    best_j = max(masses, key=lambda j: (masses[j], -j))
    best = masses[best_j]
    # pigeonhole guarantee, enforced on every histogram that gets banded:
    # argmax mass >= total/(nonempty bands), and bands <= ceil(log2 r_max) + 1
    if best * ((max(multiplicity) - 1).bit_length() + 1) < sum(masses.values()):
        raise PostconditionFailed("dyadic pigeonhole bound violated")
    t = 1 << best_j
    P = h.key_set(key for key, r in h.counts.items() if t <= r < 2 * t)
    return DyadicBand(t=t, P=P, mass=best)


def band_count(h: CountHistogram) -> int:
    """Number of nonempty dyadic bands; equals floor(log2 r_max) + 1 at most."""
    return len({r.bit_length() - 1 for r in h.counts.values()})


# ---------------------------------------------------------------------------
# popular-set extractor


@dataclass(frozen=True)
class ExtractionCertificate(Record):
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

    @staticmethod
    def from_json(d: dict) -> "ExtractionCertificate":
        return ExtractionCertificate(
            t=d["t"], q1=d["q1"], q2=d["q2"],
            P=RatSet(d["P"]), A1_pop=RatSet(d["A1_pop"]), A2_pop=RatSet(d["A2_pop"]),
            branch=d["branch"], E3_input=d["E3_input"], Emul_output=d["Emul_output"],
        )


def _extract_core(A: RatSet, diff: CountHistogram) -> ExtractionCertificate:
    # diff is rep_histogram(A, A, "diff"), the tally of A's differences
    band = dyadic_band(diff, 3)
    t, P = band.t, band.P

    # popular abscissae: band of a -> r_{P+A}(a) over a in A
    h1 = rep_histogram(P, A, "sum").restrict(A)
    b1 = dyadic_band(h1, 1)
    q1, A1 = b1.t, b1.P

    # popular ordinates: band of b -> r_{A1-P}(b) over b in A
    h2 = rep_histogram(A1, P, "diff").restrict(A)
    b2 = dyadic_band(h2, 1)
    q2, A2 = b2.t, b2.P

    # postcondition: band memberships hold verbatim
    if not all(t <= r < 2 * t for r in diff.counts_on(P)):
        raise PostconditionFailed("P left its difference band [t, 2t)")
    if not all(q1 <= r < 2 * q1 for r in h1.counts_on(A1)):
        raise PostconditionFailed("A1 left its band [q1, 2 q1)")
    if not all(q2 <= r < 2 * q2 for r in h2.counts_on(A2)):
        raise PostconditionFailed("A2 left its band [q2, 2 q2)")

    branch = "ordinates" if q2 <= len(A2) else "abscissae"
    chosen = A2 if branch == "ordinates" else A1
    return ExtractionCertificate(
        t=t, q1=q1, q2=q2, P=P, A1_pop=A1, A2_pop=A2, branch=branch,
        E3_input=diff.moment(3),
        Emul_output=energy(chosen, chosen, 2, "multiplicative"),
    )


def extract_mult_structured(A: RatSet):
    """One extraction step: a popular subset A' of A with its certificate.

    The two-branch rule mirrors the source dichotomy with the implicit
    constant taken to be 1; the certificate records which branch fired so
    the choice is auditable.
    """
    if len(A) < 2:
        raise DegenerateInput("extraction needs |A| >= 2")
    A.require_nonzero("extraction")
    cert = _extract_core(A, rep_histogram(A, A, "diff"))
    return cert.chosen, cert


def extraction_ratio_decimal(source_size: int, cert: ExtractionCertificate):
    """Decimal strings of a rational bracket of E3(A)^4 Emul(A')^3 /
    (|A'|^12 |A|^10), each end rounded to nearest."""
    numer = cert.E3_input**4 * cert.Emul_output**3
    return power_sum_ratio_decimal(
        numer, [[(len(cert.chosen), 12), (source_size, 10)]]
    )


def _argmax_band(h: CountHistogram, k: int):
    # the replay's own band choice: the t = 2^j whose [t, 2t) holds the
    # largest sum of r^k, ties to the smaller t; None for no counts
    mass = Counter()
    for r, m in Counter(h.counts.values()).items():
        mass[1 << (r.bit_length() - 1)] += m * r**k
    return min(mass, key=lambda t: (-mass[t], t), default=None)


def _is_level(h: CountHistogram, t: int, on_S: list) -> bool:
    # the replays' own level rule: S = {x : t <= r(x) < 2t} iff its counts
    # on_S = h.counts_on(S), and as many counts of h, lie in [t, 2t)
    return (all(t <= r < 2 * t for r in on_S)
            and sum(t <= r < 2 * t for r in h.counts.values()) == len(on_S))


def recheck_certificate(source: RatSet, cert: ExtractionCertificate) -> list:
    """Re-derive every certificate claim from the source set.

    Returns the list of failed claim names (empty means fully verified).
    Checks are the band definitions by `_is_level` (P is the whole
    nonempty level t <= r_{A-A} < 2t), the band choice (t, q1, q2 the
    argmax bands of k = 3, 1, 1, by `_argmax_band`), the popularity mass
    sandwich, the branch rule, the recorded energies (E_mul by its product
    form), and the chained dyadic inequality 2 q2 |A2| nb1 nb2 > |P| t with
    nb1, nb2 the nonempty band counts of the two popularity histograms.  The
    chain is guaranteed: sum over A of r_{P+A} equals the band mass of
    r_{A-A} on P (at least |P| t), the argmax band holds a 1/nb1 share of
    it, that share reappears verbatim as the total of the second histogram,
    and each popular set bounds its band mass by 2 q |pop|.
    """
    failures = []
    A = source
    diff = rep_histogram(A, A, "diff")
    if not (len(cert.P) and _is_level(diff, cert.t, diff.counts_on(cert.P))):
        failures.append("P_band_membership")
    if cert.E3_input != diff.moment(3):
        failures.append("E3_input")

    h1 = rep_histogram(cert.P, A, "sum").restrict(A)
    on1, n1 = h1.counts_on(cert.A1_pop), len(cert.A1_pop)
    if not _is_level(h1, cert.q1, on1):
        failures.append("A1_band_definition")
    if not (cert.q1 * n1 <= sum(on1) < 2 * cert.q1 * n1):
        failures.append("A1_mass_sandwich")

    h2 = rep_histogram(cert.A1_pop, cert.P, "diff").restrict(A)
    on2, n2 = h2.counts_on(cert.A2_pop), len(cert.A2_pop)
    if not _is_level(h2, cert.q2, on2):
        failures.append("A2_band_definition")
    if not (cert.q2 * n2 <= sum(on2) < 2 * cert.q2 * n2):
        failures.append("A2_mass_sandwich")

    if cert.branch != ("ordinates" if cert.q2 <= n2 else "abscissae"):
        failures.append("branch_rule")
    if not cert.chosen.is_subset(A) or len(cert.chosen) < 1:
        failures.append("chosen_subset")
    if cert.Emul_output != energy_mul_product_form(cert.chosen, cert.chosen):
        failures.append("Emul_output")

    if (cert.t, cert.q1, cert.q2) != (_argmax_band(diff, 3), _argmax_band(h1, 1),
                                      _argmax_band(h2, 1)):
        failures.append("band_choice")
    nb1, nb2 = band_count(h1), band_count(h2)
    if not 2 * cert.q2 * n2 * nb1 * nb2 > len(cert.P) * cert.t:
        failures.append("dyadic_chain")
    return failures


def recheck_decomposition(source: RatSet, res: DecompositionResult) -> list:
    """Replay a whole decomposition of source; returns the failed claim
    names (empty means fully verified).

    First the certificate chain: each certificate is rechecked against the
    remainder its extraction saw, source minus every earlier chosen piece.
    Then the parts.  bw: B disjoint-union C = A ("partition"), C is the
    union of the chosen pieces ("pieces"), the recorded M is "auto" or
    positive ("M"), and E_3^+(B) <= |A|^4 / M for it ("energy_guard").
    xy: the cover claims of `_cover_failures`, Y is the union of the chosen
    pieces ("pieces"), and X is the remainder before the last extraction
    ("remainder").
    """
    failures = []
    rem = before_last = source
    for cert in res.certificates:
        failures += recheck_certificate(rem, cert)
        before_last, rem = rem, rem.difference(cert.chosen)
    pieces = RatSet().union(*(cert.chosen for cert in res.certificates))
    if res.kind == "bw":
        B, C = res.parts["B"], res.parts["C"]
        if not (B.is_disjoint(C) and B.union(C) == source):
            failures.append("partition")
        if C != pieces:
            failures.append("pieces")
        M = res.meta["M"]
        m = None if M == "auto" else as_fraction(M)
        if m is not None and m <= 0:
            failures.append("M")
        elif len(B):
            # restated from the theorem rather than taken from the producer's
            # guard, so a broken guard still fails here
            e3, n = energy(B, B, 3, "additive"), len(source)
            if m is None:
                ok = e3**11 * n**6 <= n**44  # M = |A|^(6/11)
            else:
                ok = e3 * m.numerator <= n**4 * m.denominator
            if not ok:
                failures.append("energy_guard")
    else:
        X, Y = res.parts["X"], res.parts["Y"]
        failures += [name for name, _ in _cover_failures(source, X, Y)]
        if Y != pieces:
            failures.append("pieces")
        if X != before_last:
            failures.append("remainder")
    return failures


# ---------------------------------------------------------------------------
# energy-split and cover decompositions


@dataclass(frozen=True)
class DecompositionResult(Record):
    """Partition/cover of A with certificates and the bound-ratio report.

    kind "bw": parts {B, C}, B disjoint-union C = A, E_3^+(B) below the
    M threshold; kind "xy": parts {X, Y}, X union Y = A, both halves large.
    target_ratio holds the decimal strings of a rational bracket of the
    theorem ratio, each end rounded to nearest.
    """

    kind: str
    parts: dict
    certificates: tuple
    energies: dict
    target_ratio: tuple
    meta: dict

    @staticmethod
    def from_json(d: dict) -> "DecompositionResult":
        return DecompositionResult(
            kind=d["kind"],
            parts={name: RatSet(part) for name, part in d["parts"].items()},
            certificates=tuple(ExtractionCertificate.from_json(c) for c in d["certificates"]),
            energies=dict(d["energies"]),
            target_ratio=tuple(d["target_ratio"]),
            meta=dict(d["meta"]),
        )


def _extract_next(certs: list, rest: RatSet, diff: CountHistogram, n: int,
                  loop: str) -> RatSet:
    # one more extraction from rest, whose difference tally is diff; each
    # removes a nonempty set, so more than n = |A| of them mean a bug
    if len(certs) >= n:
        raise NonTermination(f"{loop} exceeded |A| iterations")
    certs.append(_extract_core(rest, diff))
    return rest.difference(certs[-1].chosen)


def _guard_energy_large(e3: int, n: int, M) -> bool:
    # guard: E_3^+(B) > |A|^4 / M (a Fraction or "auto"), exactly
    if M == "auto":
        # M = |A|^(6/11): compare e3^11 * n^6 > n^44
        return e3**11 * n**6 > n**44
    return e3 * M.numerator > n**4 * M.denominator


def _pieces_emul(union: RatSet, certs: list) -> int:
    # E_mul of the union of the chosen pieces; a lone piece is the union,
    # and its certificate holds the energy already
    if len(certs) == 1:
        return certs[0].Emul_output
    return energy(union, union, 2, "multiplicative") if len(union) else 0


def bw_decompose(A: RatSet, M: Union[str, Fraction, int] = "auto") -> DecompositionResult:
    """Split A = B disjoint-union C with E_3^+(B) small and C a union of
    multiplicatively structured extractor outputs.

    M = "auto" uses the threshold |A|^(6/11); because that exponent is
    irrational the guard is evaluated as E_3^+(B)^11 |A|^6 > |A|^44, which
    is exactly equivalent in integers.  Any other M is a rational by the
    rule of `sets._num_den`, compared by cross multiplication.  One ordered
    difference tally of each remainder gives its E_3^+ to the guard, its
    histogram to the extraction and, for B, E_plus_B.  Iteration count is
    capped at |A| (each pass removes a nonempty set), with NonTermination
    signalling a bug.
    """
    A.require_nonzero("bw decomposition")
    if M != "auto":
        M = as_fraction(M)
        if M <= 0:
            raise InvalidConfig("M must be positive or 'auto'")
    # written now, so an M past the digit limit is refused before any extraction
    shown = M if M == "auto" else format_rational(M)
    n = len(A)
    B, certs = A, []
    diff = rep_histogram(B, B, "diff")  # one tally per remainder
    while _guard_energy_large(diff.moment(3), n, M):
        B = _extract_next(certs, B, diff, n, "energy split")
        diff = rep_histogram(B, B, "diff")
    pieces = [cert.chosen for cert in certs]
    C = RatSet().union(*pieces)
    e_plus_b = diff.moment(2)
    e_mul_c = _pieces_emul(C, certs)
    # quarter-power recombination across the extracted pieces, which are
    # disjoint and nonempty and whose E_mul each certificate holds
    if pieces and l4_verdict(e_mul_c, [cert.Emul_output for cert in certs]) == "violated":
        raise PostconditionFailed("quarter-power union bound violated")
    ratio = power_sum_ratio_decimal(
        max(e_plus_b, e_mul_c), [[(max(n, 1), Fraction(30, 11))]]
    )
    return DecompositionResult(
        kind="bw",
        parts={"B": B, "C": C},
        certificates=tuple(certs),
        energies={"E_plus_B": e_plus_b, "E_mul_C": e_mul_c},
        target_ratio=ratio,
        meta={"M": shown, "pieces": len(certs)},
    )


def _raise_first(failures: list) -> None:
    # producers raise on the first failed (claim, message) pair
    if failures:
        raise PostconditionFailed(failures[0][1])


def _cover_failures(A: RatSet, X: RatSet, Y: RatSet) -> list:
    # (claim, message) for each failed cover claim; xy_decompose raises on
    # the first, recheck_decomposition reports them all
    n = len(A)
    claims = (
        ("X_half", 2 * len(X) >= n, "X holds less than half of A"),
        ("Y_half", 2 * len(Y) >= n, "Y holds less than half of A"),
        ("cover", X.union(Y) == A, "X and Y do not cover A"),
    )
    return [(name, msg) for name, ok, msg in claims if not ok]


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
    rest, certs = A, []
    while 2 * (n - len(rest)) < n:
        diff = rep_histogram(rest, rest, "diff")
        rest = _extract_next(certs, rest, diff, n, "cover loop")
    X = rest.union(certs[-1].chosen)  # the remainder before the last extraction
    Y = A.difference(rest)
    _raise_first(_cover_failures(A, X, Y))
    e3_x = certs[-1].E3_input  # X is the set the last extraction saw
    e_mul_y = _pieces_emul(Y, certs)
    ratio = power_sum_ratio_decimal(e3_x**4 * e_mul_y**3, [[(n, Fraction(22))]])
    return DecompositionResult(
        kind="xy",
        parts={"X": X, "Y": Y},
        certificates=tuple(certs),
        energies={"E3_X": e3_x, "E_mul_Y": e_mul_y},
        target_ratio=ratio,
        meta={"pieces": len(certs)},
    )


# ---------------------------------------------------------------------------
# regularization


class RegStep(NamedTuple):
    size: int
    t: int
    p_size: int
    g_size: int
    g_kept: int
    kept: bool


@dataclass(frozen=True)
class RegTrace(Record):
    """Full audit trail of the one regularization step.

    steps holds that one step, and B is A itself; both stay fields so
    every payload keeps its pinned form.  epsilon is the exact rational the
    step ran with: an outward LOWER bound (128-bit) of ln 2 / (k 2^(k+1)
    ln^2 |A|).  Rounding down is the sound side: the degree threshold
    |G|/(eps |A|) only grows, so the filter keeps at least everything the
    ideal threshold would keep.
    """

    k: int
    epsilon: Fraction
    steps: tuple
    B: RatSet
    B_prime: RatSet
    B_dprime: RatSet
    final_t: int
    final_P: RatSet

    @staticmethod
    def from_json(d: dict) -> "RegTrace":
        return RegTrace(
            k=d["k"], epsilon=as_fraction(d["epsilon"]),
            steps=tuple(RegStep(*s) for s in d["steps"]),
            B=RatSet(d["B"]), B_prime=RatSet(d["B_prime"]), B_dprime=RatSet(d["B_dprime"]),
            final_t=d["final_t"], final_P=RatSet(d["final_P"]),
        )


def _epsilon(k: int, n: int) -> Fraction:
    # lower end of the enclosure of ln2 / (k 2^(k+1) ln^2 n); both logs natural
    l2lo, _ = ln2_bounds()
    _, lghi = log_squared_fraction_bounds(n)
    return l2lo / (k * 2 ** (k + 1) * lghi)


def _stops_at_once(n: int, k: int, eps: Fraction) -> bool:
    # the condition of the lemma of `regularize`: n (2 eps)^k <= (1 - 2^-k)^k
    return n * (2 * eps) ** k <= (1 - Fraction(1, 2**k)) ** k


def regularize(A: RatSet, k: int) -> RegTrace:
    """Drop from B = A the vertices of too high degree in its popular-
    difference graph, giving B', then carve the two-sided-degree core B''.

    The step bands the k-th moment of the ordered difference tally r of A:
    P is the argmax band t <= r < 2t, G the pairs (a, b) with a - b in P,
    and deg(a) = #{b in A : a - b in P}.  It keeps the a with deg(a) <=
    |G| / (epsilon |A|), and it stops when the kept degrees sum to at least
    |G| / 2^k; all comparisons are exact rationals.

    Lemma: with n = |A|, if n (2 epsilon)^k <= (1 - 2^-k)^k, this first
    step stops, so no step ever shrinks A and repeats.  Proof: each deg(a)
    is at most min(|P|, n), and the degrees sum to |G| >= t |P|.  A pruned
    vertex has deg(a) > |G| / (epsilon n), so fewer than epsilon n are
    pruned, and they remove less than epsilon n min(|P|, n) of G.  The step
    goes on only if that exceeds (1 - 2^-k) |G| >= (1 - 2^-k) t |P|, so
    t < epsilon n / (1 - 2^-k) and |P| < epsilon n^2 / ((1 - 2^-k) t).  The
    band's mass is below |P| (2t)^k, and it is at least n^k: r(0) = n, and
    the argmax band weighs at least the band that holds 0, though 0 need
    not lie in P.  So n^k < epsilon n^2 2^k t^(k-1) / (1 - 2^-k), which is
    below n^(k+1) (2 epsilon)^k / (1 - 2^-k)^k, against the condition.
    When epsilon n <= 1 the step even keeps every vertex, as deg(a) <= |P|
    <= |G| <= |G| / (epsilon n), so B' = A.  At this epsilon that holds for
    n <= 1145 at k = 2 and for n <= 5030 at k = 3.

    Checked exactly at this epsilon, the condition first fails at n =
    4,002,154 for k = 2 and at n = 23,729,908,049,827 for k = 3 (later for
    larger k), where the tally holds n^2 differences.  A set past it is
    refused by DegenerateInput before any tally.
    """
    if not 2 <= as_int(k, "k") <= 8:
        raise InvalidConfig("regularize needs k in [2, 8]")
    n = len(A)
    if n < 4:
        raise DegenerateInput("regularize needs |A| >= 4")
    eps = _epsilon(k, n)
    if not _stops_at_once(n, k, eps):
        raise DegenerateInput("regularize needs |A| (2 eps)^k <= (1 - 2^-k)^k, "
                              "the bound of its one-step lemma")
    diff = rep_histogram(A, A, "diff")
    band = dyadic_band(diff, k)
    g_size = sum(diff.counts_on(band.P))
    degs = rep_histogram(band.P, A, "sum").counts_on(A)
    # keep a iff deg(a) <= |G| / (eps |A|), cross-multiplied
    keep = [d * eps.numerator * n <= g_size * eps.denominator for d in degs]
    g_kept = sum(compress(degs, keep))
    stop = g_kept * 2**k >= g_size
    if not stop:
        raise PostconditionFailed("the regularization step did not stop, against its lemma")
    # B'': the kept a with deg(a) >= |G| / (2^(k+1) |A|), cross-multiplied
    core = [kept and d * 2 ** (k + 1) * n >= g_size for kept, d in zip(keep, degs)]
    step = RegStep(n, band.t, len(band.P), g_size, g_kept, stop)
    trace = RegTrace(k=k, epsilon=eps, steps=(step,), B=A, B_prime=A.select(keep),
                     B_dprime=A.select(core), final_t=band.t, final_P=band.P)
    _raise_first(_pruning_failures(A, trace))
    return trace


def _pruning_failures(A: RatSet, tr: RegTrace) -> list:
    # (claim, message) for each failed link of the subset chain; regularize
    # raises on the first, recheck_reg_trace reports them all
    claims = (
        ("B_dprime_subset", tr.B_dprime.is_subset(tr.B_prime), "B'' is not a subset of B'"),
        ("B_prime_subset", tr.B_prime.is_subset(tr.B), "B' is not a subset of B"),
        ("B_subset", tr.B.is_subset(A), "B is not a subset of A"),
    )
    return [(name, msg) for name, ok, msg in claims if not ok]


def recheck_reg_trace(A: RatSet, tr: RegTrace) -> list:
    """Re-verify a regularization trace from scratch; returns failed claims.

    First, k is in [2, 8] and epsilon is the one `regularize` runs with at
    k and |A| ("epsilon").  The trace holds exactly one step, as the lemma
    of `regularize` proves ("step_count").  That step is replayed on A at
    the recorded epsilon on a route of its own: t by `_argmax_band`, P and
    |G| read off the tally here, deg(a) as r_{A-P}(a), which is the
    producer's r_{P+A}(a) as P = -P, and the keep and core rules restated.
    The first of its claims that fails is reported as "step0_<claim>", and
    the step must stop as recorded ("step0_stop_flag").  A step that
    replays is held to the final sets, band and core.  Last come the links
    of `_pruning_failures`, the subset chain B'' <= B' <= B <= A.
    """
    eps, k, n = tr.epsilon, tr.k, len(A)
    ok = 2 <= as_int(k, "k") <= 8 and n >= 4 and eps == _epsilon(k, n)
    failures = [] if ok else ["epsilon"]
    chain = [name for name, _ in _pruning_failures(A, tr)]
    if len(tr.steps) != 1:
        return failures + ["step_count"] + chain
    (st,) = tr.steps
    diff = rep_histogram(A, A, "diff")
    t = _argmax_band(diff, k)
    level = {key: r for key, r in diff.counts.items() if t <= r < 2 * t}
    P, g_size = diff.key_set(level), sum(level.values())
    degs = rep_histogram(A, P, "diff").counts_on(A)
    # deg(a) <= |G| / (eps |A|) keeps a
    high = [d * eps.numerator * n <= g_size * eps.denominator for d in degs]
    g_kept = sum(d for d, h in zip(degs, high) if h)
    claims = (
        ("size", n == st.size),
        ("band", t == st.t and len(P) == st.p_size),
        ("gsize", g_size == st.g_size),
        ("gkept", g_kept == st.g_kept),
        ("stop_flag", st.kept and g_kept * 2**k >= g_size),
    )
    wrong = [f"step0_{name}" for name, ok in claims if not ok]
    if wrong:
        return failures + wrong[:1] + chain
    if A != tr.B or A.select(high) != tr.B_prime:
        failures.append("final_sets")
    if t != tr.final_t or P != tr.final_P:
        failures.append("final_band")
    # the core also asks deg(a) >= |G| / (2^(k+1) |A|)
    core = A.select(h and d * 2 ** (k + 1) * n >= g_size for d, h in zip(degs, high))
    if core != tr.B_dprime:
        failures.append("core_set")
    # the two-sided degree sandwich holds on every element of B''
    if not tr.B_dprime.is_subset(core):
        failures.append("core_sandwich")
    return failures + chain


# ---------------------------------------------------------------------------
# best dilate


def default_dilates(A: RatSet) -> RatSet:
    """Candidate dilates {1} union {1/a : a in A}."""
    A.require_nonzero("dilate candidates")
    return RatSet([1] + [1 / a for a in A])


def best_z(A: RatSet, candidates: Optional[RatSet] = None):
    """The candidate z maximizing #{(a,b) in A^2 : z a b in A}.

    That count is the sum over c in A of r_{A.A}(c / z), so one product
    histogram serves every candidate with |A| lookups each.  Ties go to
    the smaller z; returns (z, value).  The search is over the supplied
    candidates only (default {1} union {1/a : a in A}).
    """
    A.require_nonzero("best_z")
    # coerce to RatSet: sorted iteration makes the tie rule deterministic
    candidates = default_dilates(A) if candidates is None else RatSet(candidates)
    if len(candidates) == 0:
        raise EmptyCandidateList("best_z needs at least one candidate")
    candidates.require_nonzero("best_z candidates")
    prod = rep_histogram(A, A, "prod")
    best = None
    for z in candidates:
        val = sum(prod.counts_on(affine(A, 1 / z, 0)))
        if best is None or val > best[1]:
            best = (z, val)
    return best
