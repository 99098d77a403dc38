"""Source rules on what `src/addcomb` raises, and the one budget rule.

AST scans of every module: `core.charge` is the only place that raises
BudgetExceeded; every other `raise` names an `errors.AddcombError`
subclass, re-raises, or is one of the listed protocol errors at its site;
and no module holds an `assert` statement, so each guarantee holds under
`python -O`.  Every entry point that charges `--budget` runs at budget ==
its cost and refuses at cost - 1 with the message
"<units> <what> exceed budget <budget>".
"""

import ast
from pathlib import Path

import pytest

from addcomb import errors
from addcomb.collinear import t_count_brute, t_identity_check, t_o_count, t_split_brute
from addcomb.errors import BudgetExceeded
from addcomb.incidence import line_moment_sums
from addcomb.ratios import full_ratio_set, popular_ratios
from addcomb.sets import RatSet

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/addcomb/*.py"))

ADDCOMB_ERRORS = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type) and issubclass(obj, errors.AddcombError)}
# (module, exception, enclosing function) of the raises that a Python
# protocol requires to be that builtin exception
PROTOCOL_RAISES = {
    ("energy.py", "KeyError", "__getitem__"),  # _Entries is a Mapping
    ("sets.py", "AttributeError", "__setattr__"),  # RatSet is immutable
}


def raise_sites(source: str) -> list:
    """(exception name, enclosing function) of each `raise` in `source`, in
    source order.  The name is None for a bare re-raise; the function is
    None at module level."""
    tree = ast.parse(source)
    owner = {}
    # ast.walk is breadth-first, so an inner function overwrites its outer one
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[node] = fn.name
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise):
            continue
        name = None
        if node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
        found.append((node.lineno, name, owner.get(node)))
    return [(name, fn) for _, name, fn in sorted(found, key=lambda f: f[0])]


def stray_raises(module: str, source: str) -> list:
    """The raise sites of `source` that break the error rule: not an
    AddcombError subclass, not a bare re-raise, not a listed protocol raise."""
    return [(name, fn) for name, fn in raise_sites(source)
            if name is not None and name not in ADDCOMB_ERRORS
            and (module, name, fn) not in PROTOCOL_RAISES]


def assert_lines(source: str) -> list:
    """Line number of each `assert` statement in `source`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def _read_sources() -> dict:
    return {p.name: p.read_text(encoding="utf-8") for p in SOURCES}


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
    assert raise_sites(src) == [("BudgetExceeded", "inner"), ("BudgetExceeded", "outer"),
                                (None, "outer"), ("ValueError", "outer"),
                                ("BudgetExceeded", None)]


def test_only_charge_raises_budget_exceeded():
    found = {path: [fn for name, fn in raise_sites(src) if name == "BudgetExceeded"]
             for path, src in _read_sources().items()}
    assert {path: fns for path, fns in found.items() if fns} == {"core.py": ["charge"]}


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
    assert stray_raises("core.py", src) == [("ValueError", "public"), ("KeyError", "__getitem__")]
    assert stray_raises("energy.py", src) == [("ValueError", "public")]


def test_every_raise_names_an_addcomb_error():
    sources = _read_sources()
    found = {path: stray_raises(path, src) for path, src in sources.items()}
    assert {path: sites for path, sites in found.items() if sites} == {}
    # each listed protocol raise is still there, so the list cannot go stale
    sites = {(path, name, fn) for path, src in sources.items()
             for name, fn in raise_sites(src)}
    assert PROTOCOL_RAISES <= sites


def test_assert_scanner_finds_nested_asserts():
    src = "assert True\nclass C:\n    def f(self, x):\n        assert x, 'no'\n"
    assert assert_lines(src) == [1, 4]


def test_no_assert_in_the_package():
    found = {path: assert_lines(src) for path, src in _read_sources().items()}
    assert {path: lines for path, lines in found.items() if lines} == {}


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
