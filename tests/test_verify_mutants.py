"""Negative controls: a broken producer must fail the verify suite that
replays its output.

Each test patches one mutant into the package, runs only the suite that
must catch it, and names the replay claim that does.
"""

from collections import Counter

import pytest

from addcomb import decompose, harness


def _reanchored_band(h, k):
    # the mutant: the largest t whose band mass still meets the pigeonhole
    # bound, a band the producer's own postconditions accept
    masses = Counter()
    for r, m in Counter(h.counts.values()).items():
        masses[r.bit_length() - 1] += m * r**k
    bands = (max(h.counts.values()) - 1).bit_length() + 1
    j = max(j for j, mass in masses.items() if mass * bands >= sum(masses.values()))
    t = 1 << j
    P = h.key_set(key for key, r in h.counts.items() if t <= r < 2 * t)
    return decompose.DyadicBand(t=t, P=P, mass=masses[j])


_energy = decompose.energy


def _emul_plus_one(A, B=None, k=2, flavor="additive"):
    # the mutant: every multiplicative energy one too large
    return _energy(A, B, k, flavor) + (flavor == "multiplicative")


# (attribute of decompose, its mutant, the suite that must catch it, the
# replay claim that does)
MUTANTS = {
    "band_not_argmax_decomposition": ("dyadic_band", _reanchored_band, "decomposition",
                                      "band_choice"),
    "band_not_argmax_regularization": ("dyadic_band", _reanchored_band, "regularization",
                                       "step0_band"),
    "emul_plus_one": ("energy", _emul_plus_one, "decomposition", "Emul_output"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_replaying_suite_catches_the_mutant(monkeypatch, name):
    attr, mutant, suite, claim = MUTANTS[name]
    monkeypatch.setattr(decompose, attr, mutant)
    res = harness.run_suite(suite)
    failed = [c for c in res.checks if c.kind == "EXACT" and c.status == "fail"]
    assert not res.ok
    assert any(claim in c.details for c in failed), failed
