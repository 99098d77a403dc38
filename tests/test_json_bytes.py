"""The JSON bytes of every result type, pinned by sha256.

Each case builds one `Record` from a fixed small input and hashes
`canonical_json(x.to_json())`.  The hashes were recorded before the result
types shared one encoder, when each wrote its own `to_json`, so a change to
the encoding rule or to a field shows up here and not only in the
full-size benchmark payloads.

The n = 32 decomposition cases run `bw_decompose`, `xy_decompose` and
`regularize(., 3)` on the six set kinds of the energy sweep; their hashes
were recorded before the self-energies tallied unordered pairs and the
decompositions reused the energies their certificates hold.
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
from addcomb.sets import (RatSet, Record, ap, canonical_json, generate, gp, grid_example,
                          random_set)

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

# n = 32 sets of the energy sweep: (config, sha256 of bw, xy and
# regularize(., 3))
SWEEP_SETS = {
    "AP(1, 1)": (ap(1, 1, 32), {
        "bw": "ab73b0a09eaf9e5945a53a4bca8912fcf64a32650e03e2ddb090dda992e8991b",
        "xy": "22f0436e0c8615acf685d6882beda984522a3a2f324d000cdad684586a83bf72",
        "reg3": "e87d3ae070f8de4bbd2a178fba54b30752e51425597c6bd39d805a6a2d44023b",
    }),
    "AP(1/2, 1/3)": (ap(Fraction(1, 2), Fraction(1, 3), 32), {
        "bw": "d0e964c84fdd1b944aa60c1fa566dec1c90f34bbc2737a3a4c2209a9c4785985",
        "xy": "af4f638b1a4095c40601e4d8bc8626c16028258153f4836677fa202d799926bd",
        "reg3": "a0660b7e777d4dc2d875a15f1c6a2097b67adfa9d2db8c1d0757f7c1f3aaab8d",
    }),
    "GP(1, 2)": (gp(1, 2, 32), {
        "bw": "5bf15ffea00127b12236adb8a51f3be2ffed2eb47b51a89213a249829dc0a293",
        "xy": "ca748eb3f822a086f7a40f12d222e3b91751eb80b91a08f74ef282616c3a6af4",
        "reg3": "ef37180d83a68331c9c8759a33d7957f5308be7da477aa191af1ba4d03054feb",
    }),
    "GP(2/3, 3/2)": (gp(Fraction(2, 3), Fraction(3, 2), 32), {
        "bw": "8c79a8421d69d6433dea19bf462f2635aead433c991f43b25feb500cf3a4bf7c",
        "xy": "92e68541fe6e7b5f3cb36bf764a73944cb73278fdb26dbf99c7c62745a0e1204",
        "reg3": "b4e338a8604a33e91a0171d1443d2829a49a8512cbead693d4771bfc7f58f699",
    }),
    "Random(32, 256, 1)": (random_set(32, 256, 1), {
        "bw": "35bf8bcf6144d8616b681889a56115a40040350725bdab02aaabd1375fe41df7",
        "xy": "0a050fc97fc2b2b1a280500fde39ec62d51505a9ae9e375a7357132ab48b1161",
        "reg3": "d7e4e88fbfc2a5c5a0e4951a977c5ef1be15d4662ef98eda8358c35dab9dbc0c",
    }),
    "GridExample(4, 8)": (grid_example(4, 8), {
        "bw": "c0c1d021aea643d7ecac5f21b6d68ea7fad5b6c99c5cfa9034ae27dd50529005",
        "xy": "a27b89ff15e54a6c7bdc225c528cc22339e67e816f36294fe3f8b286c9b620a3",
        "reg3": "18b17b70a11bf5b01c063f97971f5653a2d20e1cbf7037c2974645651d11af26",
    }),
}
SWEEP_OPS = {
    "bw": dec.bw_decompose,
    "xy": dec.xy_decompose,
    "reg3": lambda A: dec.regularize(A, 3),
}
CASES.update({
    f"{kind} {name}": (lambda cfg=cfg, run=run: run(generate(cfg)), digests[kind])
    for name, (cfg, digests) in SWEEP_SETS.items() for kind, run in SWEEP_OPS.items()
})


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_bytes_are_pinned(case):
    build, digest = CASES[case]
    record = build()
    assert isinstance(record, Record)
    text = canonical_json(record.to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text
