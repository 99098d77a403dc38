"""Source rules on what `src/addcomb` raises, and the one budget rule.

Three rules of the one scanner (`source_rules`): `core.charge` is the only
place that raises BudgetExceeded; every other `raise` names an
`errors.AddcombError` subclass, re-raises, or is one of the listed protocol
errors at its site; and no module holds an `assert` statement, so each
guarantee holds under `python -O`.  Every entry point that charges `--budget` runs at budget ==
its cost and refuses at cost - 1 with the message
"<units> <what> exceed budget <budget>".
"""

import pytest

from addcomb.collinear import t_count_brute, t_identity_check, t_o_count, t_split_brute
from addcomb.errors import BudgetExceeded
from addcomb.incidence import line_moment_sums
from addcomb.ratios import full_ratio_set, popular_ratios
from addcomb.sets import RatSet
from source_rules import (PACKAGE, PROTOCOL_RAISES, assert_lines, findings, nodes, raise_sites,
                          scan, stray_raises)


def test_scanner_finds_every_form_of_the_raise():
    src = (
        "from . import errors\n"
        "from .errors import BudgetExceeded\n"
        "def outer(n):\n"
        "    def inner():\n"
        "        raise BudgetExceeded('x')\n"
        "    if n:\n"
        "        raise errors.BudgetExceeded\n"
        "    try:\n"
        "        n()\n"
        "    except TypeError:\n"
        "        raise\n"
        "    raise ValueError(n) from None\n"
        "raise BudgetExceeded\n"
    )
    assert raise_sites(nodes(src)) == [("BudgetExceeded", "inner"), ("BudgetExceeded", "outer"),
                                (None, "outer"), ("ValueError", "outer"),
                                ("BudgetExceeded", None)]


def test_only_charge_raises_budget_exceeded():
    assert findings(lambda walk: [fn for name, fn in raise_sites(walk)
                                  if name == "BudgetExceeded"]) == {
        "src/addcomb/core.py": ["charge"]}


def test_error_rule_flags_a_builtin_raise():
    src = (
        "from .errors import InvalidConfig\n"
        "def public(x):\n"
        "    if x:\n"
        "        raise InvalidConfig('x')\n"
        "    try:\n"
        "        x()\n"
        "    except TypeError:\n"
        "        raise\n"
        "    raise ValueError(x)\n"
        "def __getitem__(self, x):\n"
        "    raise KeyError(x)\n"
    )
    walk = nodes(src)
    assert stray_raises("core.py", walk) == [("ValueError", "public"), ("KeyError", "__getitem__")]
    assert stray_raises("energy.py", walk) == [("ValueError", "public")]


def test_every_raise_names_an_addcomb_error():
    found = {p.name: stray_raises(p.name, scan(p)) for p in PACKAGE}
    assert {name: sites for name, sites in found.items() if sites} == {}
    # each listed protocol raise is still there, so the list cannot go stale
    assert PROTOCOL_RAISES <= {(p.name, *site) for p in PACKAGE for site in raise_sites(scan(p))}


def test_assert_scanner_finds_nested_asserts():
    src = "assert True\nclass C:\n    def f(self, x):\n        assert x, 'no'\n"
    assert assert_lines(nodes(src)) == [1, 4]


def test_no_assert_in_the_package():
    assert findings(assert_lines) == {}


A, B, C = RatSet([0, 1]), RatSet([0, 2, 5]), RatSet([1, 2, 3, 7])
SIGNED = RatSet([-1, 1, 2])  # nonzero sums -2, 1, 2, 3, 4

# (entry point run at a budget, units it charges, what the units count)
ENTRY_POINTS = {
    "t_count_brute": (lambda bud: t_count_brute(A, B, C, bud), (2 * 3 * 4) ** 2,
                      "tuple checks"),
    "t_split_brute": (lambda bud: t_split_brute(A, B, C, bud), (2 * 3 * 4) ** 2,
                      "tuple checks"),
    "t_o_count-brute": (lambda bud: t_o_count(C, A, B, "brute", bud), (2 * 3 * 4) ** 2,
                        "tuple checks"),
    "t_o_count-linehash": (lambda bud: t_o_count(C, A, B, "linehash", bud), 2 * 3 * 4,
                           "ratio keys"),
    "t_identity_check": (lambda bud: t_identity_check(A, B, C, bud), (2 * 3 * 4) ** 2,
                         "tuple checks"),
    "popular_ratios": (lambda bud: popular_ratios(SIGNED, SIGNED, budget=bud), 5 ** 2,
                       "sum pairs"),
    "full_ratio_set": (lambda bud: full_ratio_set(SIGNED, SIGNED, bud), 5 ** 2,
                       "sum pairs"),
    "line_moment_sums-triple": (lambda bud: line_moment_sums(A, B, C, 2, "triple", bud),
                                (2 * 3) ** 2, "pair checks"),
    "line_moment_sums-pairs": (lambda bud: line_moment_sums(A, B, C, 2, "pairs", bud),
                               6 + 36 + 120, "grid point pairs"),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_charges_exactly_its_units(name):
    run, units, what = ENTRY_POINTS[name]
    run(units)
    with pytest.raises(BudgetExceeded) as exc:
        run(units - 1)
    assert str(exc.value) == f"{units} {what} exceed budget {units - 1}"
