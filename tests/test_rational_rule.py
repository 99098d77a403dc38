"""One rule for every rational the package takes in.

A rational taken in is an int that is not a bool, a Fraction, or ASCII
text "-?[0-9]+(/[0-9]+)?" with a nonzero denominator, the form that
`format_rational` writes; anything else raises InvalidConfig.  Set-file
lines trim ASCII whitespace and '#' comments, `gen --values` trims ASCII
spaces around each item, and JSON strings are read exactly as given.

An int parameter, such as a moment's k or p or a count, is an int
that is not a bool, by `sets.as_int`; anything else raises InvalidConfig
naming the parameter.  An int flag of `spctl` is text of the integer half
of the grammar, "-?[0-9]+", read by `sets.parse_int`; argparse refuses
anything else with exit status 2.

`accepted` restates the rule with a pattern and `Fraction` of its own, and
each reader below is fed arbitrary values and held to it: it refuses with
InvalidConfig exactly what the rule refuses, and on the rest acts as it
does on the Fraction itself.  A rule of the one scanner
(`source_rules.one_arg_calls`) keeps a one-argument `Fraction(...)` call
out of the package but at the internal sites listed in `FRACTION_SITES`.
"""

import contextlib
import io
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addcomb.cli import build_parser, main
from addcomb.core import PlanePoint, canonical_line, point
from addcomb.decompose import bw_decompose, dyadic_band, regularize
from addcomb.energy import energy, rep_histogram
from addcomb.errors import AddcombError, InvalidConfig
from addcomb.harness import shift_product_report
from addcomb.incidence import Arrangement, line_moment_sums
from addcomb.ratios import popular_ratios, r_of_z
from addcomb.sets import (INT_FIELDS, GeneratorConfig, RatSet, affine, format_rational,
                          parse_rational, read_set_file)
from source_rules import findings, nodes, one_arg_calls

ASCII_SPACE = " \t\n\r\v\f"


def accepted(v):
    """v as a Fraction if the rule takes it in, else None."""
    if type(v) is int or isinstance(v, Fraction):
        return Fraction(v)
    if isinstance(v, str) and re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", v):
        return Fraction(v)
    return None


# text near the grammar (signs, spaces, decimals, exponents, underscores,
# non-ASCII digits and spaces), arbitrary text, and the text spctl writes
TEXT = st.one_of(st.text(alphabet="0123456789-+/._e #\t\v\xa0\u0661\u0662", max_size=10),
                 st.text(max_size=10), st.fractions().map(format_rational))
JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=4)
PYTHON = st.one_of(JSON, st.fractions(), st.decimals(), st.complex_numbers())

# the forms that Python's Fraction() reads and the rule does not
REFUSED = ["1e5", "1_000", "\u0661\u0662", "+3", "\xa03", "0.5", ".5", "5.", " -5/7 ", "1/0",
           "-5/-7", "", 0.5, 1.0, float("inf"), True, False, Decimal("1"), Decimal("0.5")]


def outcome(call, v):
    """("ok", result) of call(v), or the AddcombError it raised, by type
    and message."""
    try:
        return "ok", call(v)
    except AddcombError as exc:
        return type(exc).__name__, str(exc)


A = RatSet([1, 2, 3])
# each Python reader of a rational, as a call on the value
READERS = {
    "RatSet": lambda v: RatSet([v, 7]),
    "in": lambda v: v in A,
    "point": lambda v: point(v, 1),
    "affine scale": lambda v: affine(A, v, 0),
    "affine shift": lambda v: affine(A, 1, v),
    "r_of_z": lambda v: r_of_z(v, A, A),
    "bw_decompose M": lambda v: bw_decompose(A, v),
    "shift_product_report alpha": lambda v: shift_product_report(A, v, 1, budget=1),
    "shift_product_report beta": lambda v: shift_product_report(A, 1, v, budget=1),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("v", REFUSED + ["x"], ids=repr)
def test_each_reader_refuses_what_fraction_would_read(reader, v):
    with pytest.raises(InvalidConfig):
        READERS[reader](v)


@settings(max_examples=60, deadline=None)
@given(PYTHON)
@example(Fraction(-5, 7))
@example("-5/7")
@example("007/014")
@example(-(10**40))
def test_each_reader_follows_the_rule(v):
    q = accepted(v)
    for name, call in READERS.items():
        if q is None:
            with pytest.raises(InvalidConfig):
                call(v)
        else:
            assert outcome(call, v) == outcome(call, q), name


@given(st.fractions())
@example(Fraction(-(10**4000), 3))
@example(Fraction(0))
def test_parse_reads_what_format_writes(x):
    assert parse_rational(format_rational(x)) == x


# a config that each kind accepts
CONFIGS = {
    "AP": {"start": "1", "step": "1", "n": 3},
    "GP": {"start": "1", "ratio": "2", "n": 3},
    "GridExample": {"s": 2, "p": 2},
    "Random": {"size": 3, "range": 9, "seed": 1},
    "Literal": {"values": ["1", "2"]},
}
# each kind's rules on the values of its fields, every one of which it needs
KIND_RULES = {
    "AP": lambda start, step, n: n >= 1 and step != 0,
    "GP": lambda start, ratio, n: n >= 1 and start != 0 and ratio != 0,
    "GridExample": lambda s, p: s >= 1 and p >= 1,
    "Random": lambda size, range, seed: 1 <= size <= range <= 2**64,
    "Literal": lambda values: len(values) > 0,
}


@settings(max_examples=60, deadline=None)
@given(JSON)
@example(["1/2", 3])
@example(["1/2", 3.0])
@example(10**5000)
@example(0)
@example([])
@example(None)
def test_each_corpus_field_follows_the_rule(v):
    for kind, fields in CONFIGS.items():
        for field in fields:
            doc = {"kind": kind, **fields, field: v}
            if v is None:  # a null field is one not given
                want = None
            elif field in INT_FIELDS:
                want = v if type(v) is int else None
            elif field == "values":
                items = list(map(accepted, v)) if isinstance(v, list) else [None]
                want = None if None in items else tuple(items)
            else:
                want = accepted(v)
            base = {key: accepted(x) if isinstance(x, str) else x for key, x in fields.items()}
            if want is None and v is not None:
                with pytest.raises(InvalidConfig, match=repr(field)):
                    GeneratorConfig.from_json(doc)
            elif want is None or not KIND_RULES[kind](**{**base, field: want}):
                # the field rule takes the value and the kind refuses it
                with pytest.raises(InvalidConfig, match=f"^{kind} "):
                    GeneratorConfig.from_json(doc)
            else:
                assert getattr(GeneratorConfig.from_json(doc), field) == want


@settings(max_examples=60, deadline=None)
@given(JSON)
@example(5)
@example("-12")
@example(" 3")
def test_arrangement_points_and_coefficients_follow_the_rule(v):
    q = accepted(v)
    doc = {"points": [[v, "1"]], "lines": []}
    if q is None:
        with pytest.raises(InvalidConfig):
            Arrangement.from_json(doc)
    else:
        # a JSON int is a coordinate too
        assert Arrangement.from_json(doc).points == {PlanePoint(q, Fraction(1))}
    doc = {"points": [], "lines": [[v, 1, 0]]}
    if q is None or q.denominator != 1 or isinstance(v, str) and "/" in v:
        with pytest.raises(InvalidConfig, match="line coefficient"):
            Arrangement.from_json(doc)
    else:
        assert Arrangement.from_json(doc).lines == {canonical_line(int(q), 1, 0)}


@settings(max_examples=60, deadline=None)
@given(TEXT.filter(lambda t: "\n" not in t and "\r" not in t))
@example("  -5/7\t# a comment")
@example("\xa03")
@example("\v3\f")
def test_set_file_lines_follow_the_rule(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("sets") / "s.txt"
    path.write_text(f"2\n{text}\n", encoding="utf-8")
    body = text.split("#", 1)[0].strip(ASCII_SPACE)
    q = accepted(body)
    if not body:
        assert read_set_file(path) == RatSet([2])
    elif q is None:
        with pytest.raises(InvalidConfig, match="line 2: "):
            read_set_file(path)
    else:
        assert read_set_file(path) == RatSet([2, q])


def spctl(argv) -> tuple:
    """(exit status, stderr) of spctl argv, run in-process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# each int flag of spctl: the command's arguments, then the flag's name
INT_FLAGS = [("gen", "--kind", "AP", field) for field in INT_FIELDS] + [
    ("energy", "k"), ("regularize", "k"), ("incidence", "p"), ("ratios", "count"),
    ("triples", "budget"), ("verify", "seed")]


@settings(max_examples=40, deadline=None)
@given(TEXT)
@example("auto")
@example("3/2")
@example(" 1, -1/2 ,3")
@example("1,,2")
@example("\u0661\u0662")
@example(" 1_2 ")
@example("-0012")
def test_flags_follow_the_rule_or_print_one_error_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("flags") / "a.txt"
    path.write_text("1\n2\n3\n")
    q = accepted(text)
    items = [accepted(v.strip(" ")) for v in text.split(",")]
    runs = [
        (["decompose", "--set", str(path), f"--M={text}"],
         text == "auto" or q is not None and q > 0),
        (["report", "--set", str(path), "--budget", "1", f"--alpha={text}"], bool(q)),
        (["report", "--set", str(path), "--budget", "1", f"--beta={text}"], bool(q)),
        (["gen", "--kind", "Literal", f"--values={text}"], None not in items),
    ]
    for argv, ok in runs:
        code, err = spctl(argv)
        if ok:
            assert code == 0, (argv, err)
        else:
            assert code == 1, argv
            assert err.startswith("error: ") and err.count("\n") == 1, err
    # an int flag reads the integer half of the rule; argparse refuses the
    # rest with exit status 2, as it refuses --n abc
    for argv in INT_FLAGS:
        flag = argv[-1]
        argv = [*argv[:-1], f"--{flag}={text}"]
        if q is not None and "/" not in text:
            assert getattr(build_parser().parse_args(argv), flag) == q, argv
        else:
            err = io.StringIO()
            with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
                build_parser().parse_args(argv)
            assert exc.value.code == 2, argv
            assert f"error: argument --{flag}: " in err.getvalue(), err.getvalue()



def test_set_file_and_values_trim_only_ascii_space(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(" 1/2 \n\t-3\t# three\n\n", encoding="utf-8")
    assert read_set_file(path) == RatSet([Fraction(1, 2), -3])
    out = tmp_path / "lit.txt"
    assert spctl(["gen", "--kind", "Literal", "--values", " 1/2 , 4", "--out", str(out)])[0] == 0
    assert read_set_file(out) == RatSet([Fraction(1, 2), 4])
    code, err = spctl(["gen", "--kind", "Literal", "--values", "1,\xa02", "--out", str(out)])
    assert (code, err) == (1, "error: generator config field 'values': "
                              "not a rational: '\\xa02'\n")


# the int half of the rule: an int parameter is an int that is not a bool
INT_PARAMETERS = {
    "energy k": ("k", lambda v: energy(A, A, v, "multiplicative")),
    "regularize k": ("k", lambda v: regularize(RatSet([1, 2, 3, 5]), v)),
    "line_moment_sums p": ("p", lambda v: line_moment_sums(A, A, A, v)),
    "popular_ratios count": ("count", lambda v: popular_ratios(A, A, count=v)),
    "dyadic_band k": ("k", lambda v: dyadic_band(rep_histogram(A, A), v)),
}


@pytest.mark.parametrize("name", sorted(INT_PARAMETERS))
@pytest.mark.parametrize("v", [2.0, 3.0, True, "2", Fraction(2), Decimal(2)], ids=repr)
def test_int_parameters_take_only_ints(name, v):
    # energy(A, A, 3.0, "multiplicative") gave 736.0, a count of True one
    # ratio, and p = True a report of "p": true
    param, call = INT_PARAMETERS[name]
    with pytest.raises(InvalidConfig, match=f"^{param} must be an int, got {re.escape(repr(v))}$"):
        call(v)
    assert outcome(call, 2)[0] == "ok"


# (module, function) of the one-argument Fraction calls that take in no
# caller's value: the 20-digit decimals of the harness's own reports and
# baselines, and the exponents of the enclosures
FRACTION_SITES = {
    "src/addcomb/harness.py": ["_note", "_note", "_baseline_drift_check",
                               "_baseline_drift_check"],
    "src/addcomb/intervals.py": ["_power_sum", "_power_sum"],
}


def test_one_arg_fraction_only_at_the_listed_sites():
    assert findings(lambda walk: one_arg_calls(walk, "Fraction")) == FRACTION_SITES


def test_one_arg_call_scanner_finds_every_form_of_the_call():
    src = (
        "from fractions import Fraction\n"
        "import fractions\n"
        "def read(text):\n"
        "    return Fraction(text)\n"
        "def half(p, q):\n"
        "    return Fraction(p, q), Fraction(*divmod(p, q)), Fraction(3), \\\n"
        "        Fraction(p, _normalize=False)\n"
        "def again(v):\n"
        "    def inner():\n"
        "        return fractions.Fraction(v.strip())\n"
        "    return inner\n"
        "Fraction('1/2')\n"
    )
    # two arguments, a starred one, an int literal and a keyword are not
    # a rational taken in
    assert one_arg_calls(nodes(src), "Fraction") == ["read", "inner", None]
