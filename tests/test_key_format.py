"""The one home of the pair-key format.

A pair key over den is an int k for k/den, for every op, quotients
included, so den is always an int.  No module of `src/addcomb` compares a
`den` with None (a rule of the one scanner, `source_rules`), and `set_op`
and `rep_histogram` refuse a bad op or a zero divisor with the same error,
raised in `sets.int_keys`.
"""

import pytest

from addcomb.energy import rep_histogram
from addcomb.errors import DivisionByZero, InvalidConfig
from addcomb.sets import RatSet, set_op
from source_rules import den_none_checks, findings, nodes


def test_scanner_finds_every_form_of_the_check():
    src = (
        "def f(h, den, x):\n"
        "    if den is None:\n"
        "        return 1\n"
        "    if h.den is not None:\n"
        "        return 2\n"
        "    if None == self.den:\n"
        "        return 3\n"
        "    if x is None or scale is None or h.den > 0:\n"
        "        return 4\n"
        "    return den != None\n"
    )
    assert den_none_checks(nodes(src)) == [2, 4, 6, 10]


def test_no_module_branches_on_the_key_format():
    assert findings(den_none_checks) == {}


A = RatSet([1, 2])

# (divisor set, op, the error both pairwise operations raise)
REFUSALS = {
    "unknown-op": (A, "xor", InvalidConfig("unknown set operation 'xor'")),
    "zero-divisor": (RatSet([0, 1]), "ratio", DivisionByZero("ratio set: set contains 0")),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_set_op_and_rep_histogram_refuse_alike(name):
    B, op, want = REFUSALS[name]
    for run in (set_op, rep_histogram):
        with pytest.raises(type(want)) as exc:
            run(A, B, op)
        assert type(exc.value) is type(want) and str(exc.value) == str(want), run
