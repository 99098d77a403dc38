"""The JSON bytes of every result type, pinned by sha256.

Each case builds one `Record` from a fixed small input and hashes
`canonical_json(x.to_json())`.  The hashes were recorded before the result
types shared one encoder, when each wrote its own `to_json`, so a change to
the encoding rule or to a field shows up here and not only in the
full-size benchmark payloads.
"""

import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from addcomb import decompose as dec
from addcomb import harness, ratios
from addcomb.collinear import t_identity_check, triple_count_report
from addcomb.core import canonical_line, point
from addcomb.incidence import Arrangement, line_moment_sums, st_bound_check
from addcomb.sets import RatSet, Record, canonical_json, gp

A = RatSet([1, 2, 3, 4, 6, 8, 12, Fraction(3, 2)])
B = RatSet([Fraction(1, 2), 1, 2, 5])
C = RatSet([-1, 0, Fraction(2, 3)])
# fixed in place of the machine's versions, which the real block records
ENVIRONMENT = {"backend": "pure", "budget": 10, "mpmath": "1", "package": "0",
               "python": "3", "seed": 0}

CASES = {
    "Check": (
        lambda: harness.Check("hand:x", "EXACT", "pass", "got 1, expected 1"),
        "8938bf11c8bf3cc28bf38b8797d71be6a144f4f3fa7bb1300a7eb4bf11c0f9de"),
    "VerifySuiteResult": (
        lambda: replace(harness.run_suite("decomposition", [gp(1, 2, 6)]),
                        environment=ENVIRONMENT),
        "a155ef491747f3d457b649cb0967f250763dc610ad1fea94703b08cb8ec2ba77"),
    "ExponentFit": (
        lambda: harness.fit_exponent([(2, 3), (3, 10), (4, 30)], "f", Fraction(5, 3)),
        "e5d9213bb8df9caa8acbbb87abc3a3b25ede90cb3ae4bf71918077b9087b97f2"),
    "TripleCountReport": (
        lambda: triple_count_report(C, B, A),
        "3bf99f65755b31d08284df670906dc497854d05e3579391db6accad47f9c1034"),
    "IdentityReport": (
        lambda: t_identity_check(C, B, B),
        "33329883344b965ddf619b4e5bcb15d9875921b77b6236e65c5baf48cc70bf3a"),
    "STReport": (
        lambda: st_bound_check(Arrangement.build(
            [point(Fraction(x, 2), y) for x in range(3) for y in range(3)],
            [canonical_line(1, -1, 0), canonical_line(0, 1, 1)])),
        "51a633db200f6fa76e48d7f48ddecd57aea995f375f5f844a86a7f090a7c702a"),
    "RatioProfile": (
        lambda: ratios.ratio_profile(ratios.popular_ratios(B, A, 4), B, A),
        "748d44e893a49f3a12a7354d87b723c08db7603befc52b8e021fa8cfb04d7e55"),
    # |A1| > |A2|: both bound ratios are None
    "RatioProfile without bounds": (
        lambda: ratios.ratio_profile(RatSet([1, 2]), A, B),
        "a18bb6ee6ee8b16143e14db13904137b577d953bc6f7ed81a996899eadf9bcf3"),
    "ExtractionCertificate": (
        lambda: dec.extract_mult_structured(A)[1],
        "46e10b51aa1a7cce45fa130715ce757009e08b97d0701aee7440e881b7a67ab0"),
    "DecompositionResult bw": (
        lambda: dec.bw_decompose(A),
        "c7288e058955bcef416683dc93fe1cacc85d645779881ff1c1756e894670c0cf"),
    # M = 8 lowers the guard below E3+(A), so one piece is extracted
    "DecompositionResult bw M=8": (
        lambda: dec.bw_decompose(A, 8),
        "03bf334a4eae61cb54ac74392cb8374a776cd1fb1490c4e2dfb77905d030ac4c"),
    "DecompositionResult xy": (
        lambda: dec.xy_decompose(A),
        "0e734af31e43f3b4903f64bac5e8a7e9f6aed7a0fd4ac9f26efe6cc48f865c23"),
    "RegTrace": (
        lambda: dec.regularize(A, 2),
        "ad9e24213a4c991c7d2230a84bf8e6786e6508a097d158b3d68eee52237065ae"),
    "MomentSumReport": (
        lambda: line_moment_sums(C, B, A, 2),
        "f8ed3ba874f294f976e7d163c206db2a23a42ead5de937f10381dc8a25401f0d"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_bytes_are_pinned(case):
    build, digest = CASES[case]
    record = build()
    assert isinstance(record, Record)
    text = canonical_json(record.to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text
