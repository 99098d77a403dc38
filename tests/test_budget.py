"""The one budget rule.

`core.charge` is the only place in `src/addcomb` that raises
BudgetExceeded (an AST scan), and every entry point that charges
`--budget` runs at budget == its cost and refuses at cost - 1 with the
message "<units> <what> exceed budget <budget>".
"""

import ast
from pathlib import Path

import pytest

from addcomb.collinear import t_count_brute, t_identity_check, t_o_count, t_split_brute
from addcomb.errors import BudgetExceeded
from addcomb.incidence import line_moment_sums
from addcomb.ratios import full_ratio_set, popular_ratios
from addcomb.sets import RatSet

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/addcomb/*.py"))


def budget_raises(source: str) -> list:
    """The enclosing function (None at module level) of each statement in
    `source` that raises BudgetExceeded, in source order."""
    tree = ast.parse(source)
    owner = {}
    # ast.walk is breadth-first, so an inner function overwrites its outer one
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[node] = fn.name
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
        if name == "BudgetExceeded":
            found.append((node.lineno, owner.get(node)))
    return [fn for _, fn in sorted(found)]


def test_scanner_finds_every_form_of_the_raise():
    src = (
        "from . import errors\n"
        "from .errors import BudgetExceeded\n"
        "def outer(n):\n"
        "    def inner():\n"
        "        raise BudgetExceeded('x')\n"
        "    if n:\n"
        "        raise errors.BudgetExceeded\n"
        "    raise ValueError(n)\n"
        "raise BudgetExceeded\n"
    )
    assert budget_raises(src) == ["inner", "outer", None]


def test_only_charge_raises_budget_exceeded():
    found = {p.relative_to(ROOT).as_posix(): budget_raises(p.read_text(encoding="utf-8"))
             for p in SOURCES}
    assert {path: fns for path, fns in found.items() if fns} == {
        "src/addcomb/core.py": ["charge"]}


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
