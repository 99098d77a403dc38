"""The one integer line census.

`incidence._line_census` counts `_canonical_span` keys of integerized
points for `spanned_line_multiplicities`, `rich_lines` and the pairs family.
The Fraction route, `core.line_through` per point pair, is only the
independent check: no module of `src/addcomb` but `harness.py` calls it
(an AST scan).  `core.py` defines it and `__init__.py` re-exports it.
"""

import ast
from pathlib import Path

from addcomb import incidence

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/addcomb/*.py"))


def line_through_calls(source: str) -> list:
    """The enclosing function (None at module level) of each call of
    `line_through` in `source`, by name or attribute, in source order."""
    tree = ast.parse(source)
    owner = {}
    # ast.walk is breadth-first, so an inner function overwrites its outer one
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[node] = fn.name
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name == "line_through":
            found.append((node.lineno, node.col_offset, owner.get(node)))
    return [fn for *_, fn in sorted(found)]


def test_scanner_finds_every_form_of_the_call():
    src = (
        "from . import core\n"
        "from .core import line_through\n"
        "def line_through(p, q):\n"
        "    return p\n"
        "def outer(pts):\n"
        "    def inner(p, q):\n"
        "        return {line_through(p, q)}\n"
        "    return [core.line_through(p, q) for p, q in pts]\n"
        "KEY = line_through(1, 2)\n"
    )
    assert line_through_calls(src) == ["inner", "outer", None]


def test_only_the_harness_check_calls_line_through():
    assert SOURCES
    found = {p.relative_to(ROOT).as_posix(): line_through_calls(p.read_text(encoding="utf-8"))
             for p in SOURCES}
    assert {path: fns for path, fns in found.items() if fns} == {
        "src/addcomb/harness.py": ["_suite_incidence"]}
    assert not hasattr(incidence, "line_through")
