"""Negative controls: a broken producer must fail the verify suite that
replays its output.

Each test patches one mutant into the package, runs only the suite that
must catch it, and names the replay claim that does.
"""

from collections import Counter

from addcomb import decompose, harness


def _reanchored_band(h, k):
    # the mutant: the largest t whose band mass still meets the pigeonhole
    # bound, a band the producer's own postconditions accept
    masses = Counter()
    for r, m in Counter(h.counts.values()).items():
        masses[r.bit_length() - 1] += m * r**k
    bands = (max(h.counts.values()) - 1).bit_length() + 1
    j = max(j for j, mass in masses.items() if mass * bands >= sum(masses.values()))
    return decompose.DyadicBand(t=1 << j, P=decompose._level(h, 1 << j), mass=masses[j])


def test_decomposition_suite_catches_a_band_that_is_not_the_argmax(monkeypatch):
    monkeypatch.setattr(decompose, "dyadic_band", _reanchored_band)
    res = harness.run_suite("decomposition")
    failed = [c for c in res.checks if c.kind == "EXACT" and c.status == "fail"]
    assert not res.ok
    assert any("band_choice" in c.details for c in failed), failed
