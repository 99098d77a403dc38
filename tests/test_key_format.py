"""The one home of the pair-key format.

A pair key over den is an int k for k/den, for every op, quotients
included, so den is always an int.  No module of `src/addcomb` compares a
`den` with None (an AST scan), and `set_op` and `rep_histogram` refuse a
bad op or a zero divisor with the same error, raised in `sets.int_keys`.
"""

import ast
from pathlib import Path

import pytest

from addcomb.energy import rep_histogram
from addcomb.errors import DivisionByZero, InvalidConfig
from addcomb.sets import RatSet, set_op

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/addcomb/*.py"))


def den_none_checks(source: str) -> list:
    """Line numbers of the comparisons in `source` between a name or
    attribute called `den` and None, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        named = any((x.id if isinstance(x, ast.Name) else getattr(x, "attr", None)) == "den"
                    for x in operands)
        none = any(isinstance(x, ast.Constant) and x.value is None for x in operands)
        if named and none:
            found.append(node.lineno)
    return sorted(found)


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
    assert den_none_checks(src) == [2, 4, 6, 10]


def test_no_module_branches_on_the_key_format():
    assert SOURCES
    found = {p.relative_to(ROOT).as_posix(): den_none_checks(p.read_text(encoding="utf-8"))
             for p in SOURCES}
    assert {path: lines for path, lines in found.items() if lines} == {}


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
