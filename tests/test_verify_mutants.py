"""Negative controls: a broken producer must fail the verify suite that
replays its output.

Each test patches one mutant into the module that calls it, runs only
the suite that must catch it, and names the replay claim that does: a
claim listed in a failing check's details, or the failing check itself.
"""

from collections import Counter

import pytest

from addcomb import decompose, harness, incidence


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


_count_incidences = incidence.count_incidences


def _count_one_short(*arrays):
    # the mutant: the kernel misses one incidence wherever it finds any;
    # seeds 4, 14, 16, 17 and 20 of the recount's sample carry incidences
    count = _count_incidences(*arrays)
    return count - (count >= 1)


_scaled_incidences = incidence.scaled_incidences


def _scaled_one_more(points, lines):
    # the mutant: the 1000-seed route alone counts one incidence too many,
    # which no st_bound verdict notices (no surplus is above -31)
    return _scaled_incidences(points, lines) + 1


# (module it patches, attribute, its mutant, the suite that must catch
# it, the replay claim that does)
MUTANTS = {
    "band_not_argmax_decomposition": (decompose, "dyadic_band", _reanchored_band,
                                      "decomposition", "band_choice"),
    "band_not_argmax_regularization": (decompose, "dyadic_band", _reanchored_band,
                                       "regularization", "step0_band"),
    "emul_plus_one": (decompose, "energy", _emul_plus_one, "decomposition", "Emul_output"),
    "count_incidences_one_short": (incidence, "count_incidences", _count_one_short,
                                   "incidence", "incidence_recount"),
    "scaled_incidences_one_more": (harness, "scaled_incidences", _scaled_one_more,
                                   "incidence", "incidence_recount"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_replaying_suite_catches_the_mutant(monkeypatch, name):
    module, attr, mutant, suite, claim = MUTANTS[name]
    monkeypatch.setattr(module, attr, mutant)
    res = harness.run_suite(suite)
    failed = [c for c in res.checks if c.kind == "EXACT" and c.status == "fail"]
    assert not res.ok
    assert any(c.name == claim or claim in c.details for c in failed), failed
