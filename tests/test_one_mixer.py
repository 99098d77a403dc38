"""One statement of the SplitMix64 mixer in `src/addcomb`.

`sets._mix` is the output function for the scalar draws of `next_u64` and
the packed lanes of `below_each`, and `sets.GAMMA` is the one state
increment, so the two draw routes cannot drift apart.  A rule of the one
scanner (`source_rules.constant_lines`) counts the int literals equal to
each SplitMix64 constant, in any spelling, over every module: each appears
exactly once.
"""

from source_rules import CONSTANTS, constant_lines, findings, nodes


def test_scanner_finds_every_spelling_of_a_constant():
    src = (
        "G = 0x9E3779B97F4A7C15\n"
        "def f(z):\n"
        "    z = (z * 0xbf58476d1ce4e5b9) & M\n"
        "    return z * 13787848793156543929 + 0x9e37_79b9_7f4a_7c15\n"
        "# 0x94D049BB133111EB in a comment, '0x94D049BB133111EB' in a string\n"
        "S = '0x94D049BB133111EB'\n"
    )
    assert constant_lines(nodes(src)) == {0x9E3779B97F4A7C15: [1, 4],
                                          0xBF58476D1CE4E5B9: [3, 4],
                                          0x94D049BB133111EB: []}


def test_each_splitmix64_constant_appears_once():
    found = findings(lambda walk: [c for c, lines in constant_lines(walk).items()
                                   for _ in lines])
    assert found == {"src/addcomb/sets.py": list(CONSTANTS)}
