"""One statement of the SplitMix64 mixer in `src/addcomb`.

`sets._mix` is the output function for the scalar draws of `next_u64` and
the packed lanes of `below_each`, and `sets.GAMMA` is the one state
increment, so the two draw routes cannot drift apart.  An AST scan counts
the int literals equal to each SplitMix64 constant, in any spelling, over
every module: each appears exactly once.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/addcomb/*.py"))

# the state increment and the two multipliers of the output function
CONSTANTS = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def constant_lines(source: str) -> dict:
    """For each SplitMix64 constant, the line numbers of the int literals
    in `source` equal to it, in source order."""
    found = {c: [] for c in CONSTANTS}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value in found:
            found[node.value].append(node.lineno)
    return {c: sorted(lines) for c, lines in found.items()}


def test_scanner_finds_every_spelling_of_a_constant():
    src = (
        "G = 0x9E3779B97F4A7C15\n"
        "def f(z):\n"
        "    z = (z * 0xbf58476d1ce4e5b9) & M\n"
        "    return z * 13787848793156543929 + 0x9e37_79b9_7f4a_7c15\n"
        "# 0x94D049BB133111EB in a comment, '0x94D049BB133111EB' in a string\n"
        "S = '0x94D049BB133111EB'\n"
    )
    assert constant_lines(src) == {0x9E3779B97F4A7C15: [1, 4],
                                   0xBF58476D1CE4E5B9: [3, 4],
                                   0x94D049BB133111EB: []}


def test_each_splitmix64_constant_appears_once():
    assert SOURCES
    seen = {c: [] for c in CONSTANTS}
    for p in SOURCES:
        for c, lines in constant_lines(p.read_text(encoding="utf-8")).items():
            seen[c] += [f"{p.relative_to(ROOT).as_posix()}:{n}" for n in lines]
    assert {c: len(at) for c, at in seen.items()} == dict.fromkeys(CONSTANTS, 1), seen
    assert all(at[0].startswith("src/addcomb/sets.py:") for at in seen.values())
