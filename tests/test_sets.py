"""Rational set container, generators, file formats, RNG pinning."""

import json
import sys
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addcomb.decompose import dyadic_band
from addcomb.energy import rep_histogram
from addcomb.errors import DivisionByZero, InvalidConfig, ZeroScale
from addcomb.sets import (
    _KINDS,
    INT_FIELDS,
    GeneratorConfig,
    RatSet,
    SplitMix64,
    affine,
    ap,
    common_scale,
    format_rational,
    generate,
    gp,
    grid_example,
    jsonable,
    parse_rational,
    random_set,
    read_corpus_file,
    read_set_file,
    scaled_ints,
    set_op,
    write_set_file,
)
from source_rules import PACKAGE, nodes, raise_sites, scan

SETS = next(p for p in PACKAGE if p.name == "sets.py")


def test_ratset_dedupes_and_sorts():
    a = RatSet([3, 1, 2, Fraction(2), Fraction(1, 1)])
    assert list(a) == [1, 2, 3]
    assert len(a) == 3
    assert Fraction(2) in a and 5 not in a


def test_ratset_immutable_and_hashable():
    a = RatSet([1, 2])
    with pytest.raises(AttributeError):
        a.values = ()
    assert hash(RatSet([2, 1])) == hash(a)
    assert RatSet([2, 1]) == a


def test_ratset_set_algebra():
    a, b = RatSet([1, 2, 3]), RatSet([3, 4])
    assert a.union(b) == RatSet([1, 2, 3, 4])
    assert a.difference(b) == RatSet([1, 2])
    assert a.intersection(b) == RatSet([3])
    assert RatSet([1, 2]).is_subset(a)
    assert not a.is_disjoint(b)
    assert a.is_disjoint(RatSet([9]))


def test_require_nonzero():
    RatSet([1, -1]).require_nonzero()
    with pytest.raises(DivisionByZero):
        RatSet([0, 1]).require_nonzero()


def test_set_op_all_four():
    a, b = RatSet([1, 2]), RatSet([2, 4])
    assert set_op(a, b, "sum") == RatSet([3, 5, 4, 6])
    assert set_op(a, b, "diff") == RatSet([-1, -3, 0, -2])
    assert set_op(a, b, "prod") == RatSet([2, 4, 8])
    assert set_op(a, b, "ratio") == RatSet([Fraction(1, 2), Fraction(1, 4), 1])
    with pytest.raises(InvalidConfig, match="unknown set operation 'xor'"):
        set_op(a, b, "xor")
    with pytest.raises(InvalidConfig):
        set_op(a, RatSet([0]), "quot")  # the op is checked first
    with pytest.raises(DivisionByZero, match=r"^ratio set: set contains 0$"):
        set_op(a, RatSet([0]), "ratio")


_signed = st.fractions(min_value=-20, max_value=20, max_denominator=7)
_mixed_sets = st.builds(
    RatSet, st.one_of(
        st.lists(_signed, min_size=1, max_size=6),  # singletons included
        st.lists(_signed, min_size=1, max_size=5).map(lambda v: v + [0]),
    ))
_BRUTE = {
    "sum": lambda x, y: x + y,
    "diff": lambda x, y: x - y,
    "prod": lambda x, y: x * y,
    "ratio": lambda x, y: x / y,
}


@given(_mixed_sets, _mixed_sets)
def test_set_op_matches_fraction_brute(a, b):
    for op, f in _BRUTE.items():
        if op == "ratio" and 0 in b:
            with pytest.raises(DivisionByZero, match=r"^ratio set: "):
                set_op(a, b, op)
            continue
        got = set_op(a, b, op)
        assert got == RatSet({f(x, y) for x in a for y in b}), op


def test_affine():
    a = RatSet([1, 2, 3])
    assert affine(a, 2, 1) == RatSet([3, 5, 7])
    assert affine(a, Fraction(1, 2), 0) == RatSet([Fraction(1, 2), 1, Fraction(3, 2)])
    with pytest.raises(ZeroScale):
        affine(a, 0, 1)


def test_ap_generator():
    assert generate(ap(1, 1, 8)) == RatSet(range(1, 9))
    assert generate(ap(Fraction(1, 2), Fraction(1, 3), 3)) == RatSet(
        [Fraction(1, 2), Fraction(5, 6), Fraction(7, 6)])


def test_gp_generator():
    assert generate(gp(1, 2, 8)) == RatSet([1, 2, 4, 8, 16, 32, 64, 128])
    assert generate(gp(Fraction(2, 3), Fraction(3, 2), 3)) == RatSet(
        [Fraction(2, 3), 1, Fraction(3, 2)])


def test_grid_example_generator():
    # odd times power of two: {(2m-1) 2^j : m <= s, 1 <= j <= p}
    assert generate(grid_example(2, 2)) == RatSet([2, 4, 6, 12])
    g = generate(grid_example(5, 5))
    assert len(g) == 25
    assert max(g) == 9 * 32 and min(g) == 2


def test_random_generator_deterministic():
    a = generate(random_set(16, 100, 1))
    b = generate(random_set(16, 100, 1))
    assert a == b and len(a) == 16
    assert all(1 <= v <= 100 and v.denominator == 1 for v in a)
    assert generate(random_set(16, 100, 2)) != a


def test_literal_generator():
    cfg = GeneratorConfig(kind="Literal", values=(Fraction(3), Fraction(1, 2)))
    assert generate(cfg) == RatSet([3, Fraction(1, 2)])


def test_generator_labels():
    assert ap(1, 1, 8).label() == "AP(start=1,step=1,n=8)"
    assert gp(1, 2, 8).label() == "GP(start=1,ratio=2,n=8)"
    assert grid_example(3, 4).label() == "GridExample(S=3,P=4)"
    assert random_set(16, 100, 1).label() == "Random(size=16,range=100,seed=1)"


def test_literal_label_names_the_size_of_its_set():
    # repeated values are taken, and the label counts them once, as the set does
    cfg = GeneratorConfig(kind="Literal", values=["1", "1", "2/2", "2"])
    assert cfg.label() == "Literal(n=2)" and len(generate(cfg)) == 2


def test_generator_config_json_roundtrip():
    for cfg in (ap(Fraction(1, 2), Fraction(1, 3), 12), gp(1, 2, 8),
                grid_example(3, 3), random_set(16, 100, 1),
                GeneratorConfig(kind="Literal", values=(Fraction(1), Fraction(5, 7)))):
        back = GeneratorConfig.from_json(cfg.to_json())
        assert back == cfg
        assert generate(back) == generate(cfg)


@pytest.mark.parametrize("cfg, pinned", [
    (ap(Fraction(1, 2), Fraction(-1, 3), 12),
     [("kind", "AP"), ("start", "1/2"), ("step", "-1/3"), ("n", 12)]),
    (gp(Fraction(2, 3), Fraction(3, 2), 12),
     [("kind", "GP"), ("start", "2/3"), ("ratio", "3/2"), ("n", 12)]),
    (grid_example(3, 4), [("kind", "GridExample"), ("s", 3), ("p", 4)]),
    (random_set(16, 100, 1),
     [("kind", "Random"), ("size", 16), ("range", 100), ("seed", 1)]),
    (GeneratorConfig(kind="Literal", values=(Fraction(3), Fraction(-5, 7), Fraction(0))),
     [("kind", "Literal"), ("values", ["3", "-5/7", "0"])]),
    # ints given in Python become the Fractions that from_json and spctl
    # gen give, so equal configs serialise alike
    (GeneratorConfig(kind="AP", start=1, step=-2, n=4),
     [("kind", "AP"), ("start", "1"), ("step", "-2"), ("n", 4)]),
    (GeneratorConfig(kind="GP", start=3, ratio=2, n=5),
     [("kind", "GP"), ("start", "3"), ("ratio", "2"), ("n", 5)]),
    (GeneratorConfig(kind="Literal", values=[3, Fraction(-5, 7), 0]),
     [("kind", "Literal"), ("values", ["3", "-5/7", "0"])]),
], ids=["AP", "GP", "GridExample", "Random", "Literal", "AP-ints", "GP-ints",
        "Literal-ints"])
def test_generator_config_json_pinned(cfg, pinned):
    # the exact dict, key order included, that corpus files have always held
    assert list(cfg.to_json().items()) == pinned
    assert GeneratorConfig.from_json(dict(pinned)) == cfg


@pytest.mark.parametrize("field, text", [
    ("n", '{"kind": "AP", "start": "1", "step": "1", "n": 3.9}'),
    ("n", '{"kind": "AP", "start": "1", "step": "1", "n": true}'),
    ("n", '{"kind": "AP", "start": "1", "step": "1", "n": "3"}'),
    ("s", '{"kind": "GridExample", "s": 2.0, "p": 3}'),
    ("seed", '{"kind": "Random", "size": 4, "range": 9, "seed": false}'),
    ("start", '{"kind": "AP", "start": 0.1, "step": "1", "n": 3}'),
    ("start", '{"kind": "AP", "start": 1e400, "step": "1", "n": 3}'),
    ("step", '{"kind": "AP", "start": "1", "step": true, "n": 3}'),
    ("values", '{"kind": "Literal", "values": ["1", 0.5]}'),
    ("values", '{"kind": "Literal", "values": "123"}'),
], ids=["n-float", "n-bool", "n-string", "s-float", "seed-bool", "start-float",
        "start-overflow", "step-bool", "values-float", "values-string"])
def test_generator_config_fields_parse_strictly(field, text):
    # sizes are ints that are not bools, rationals are strings or ints: a
    # JSON float or bool is refused, naming the field, not rounded
    with pytest.raises(InvalidConfig, match=repr(field)):
        GeneratorConfig.from_json(json.loads(text))


@pytest.mark.parametrize("kind, stray", [
    ("AP", {"ratio": "5", "seed": 9}),
    ("GP", {"step": "1"}),
    ("GridExample", {"n": 3}),
    ("Random", {"start": "1"}),
    ("Literal", {"size": 2}),
])
def test_generator_config_refuses_fields_its_kind_never_reads(kind, stray):
    reads = {"AP": {"start": "1", "step": "1", "n": 3},
             "GP": {"start": "1", "ratio": "2", "n": 3},
             "GridExample": {"s": 2, "p": 2},
             "Random": {"size": 3, "range": 9, "seed": 1},
             "Literal": {"values": ["1", "2"]}}[kind]
    assert GeneratorConfig.from_json({"kind": kind, **reads}).to_json() == {"kind": kind, **reads}
    message = f"{kind} config takes no {', '.join(stray)}"
    with pytest.raises(InvalidConfig, match=message):
        GeneratorConfig.from_json({"kind": kind, **reads, **stray})
    with pytest.raises(InvalidConfig, match=message):
        GeneratorConfig(kind=kind, **{key: 1 for key in stray})


@pytest.mark.parametrize("field, kw", [
    ("n", {"kind": "AP", "start": 1, "step": 1, "n": 3.9}),
    ("n", {"kind": "AP", "start": 1, "step": 1, "n": True}),
    ("start", {"kind": "AP", "start": 0.1, "step": 1, "n": 3}),
    ("seed", {"kind": "Random", "size": 4, "range": 9, "seed": 1.0}),
    ("values", {"kind": "Literal", "values": [1, False]}),
    ("values", {"kind": "Literal", "values": "123"}),
], ids=["n-float", "n-bool", "start-float", "seed-float", "values-bool", "values-string"])
def test_python_built_configs_obey_the_json_field_rule(field, kw):
    # a config built in Python is refused where its JSON form would be:
    # n = 3.9 no longer reaches range(), n = True no longer builds a
    # 1-element AP whose to_json() from_json refuses, start = 0.1 no longer
    # becomes 3602879701896397/36028797018963968, and values = "123" no
    # longer becomes {1, 2, 3}
    with pytest.raises(InvalidConfig, match=repr(field)):
        GeneratorConfig(**kw)
    assert GeneratorConfig(kind="AP", start="1/2", step=Fraction(1, 3), n=2).start == Fraction(1, 2)


def test_generator_config_refuses_unknown_keys():
    # a misspelt key is refused by name, not dropped
    with pytest.raises(InvalidConfig, match="no field 'sede'"):
        GeneratorConfig.from_json(
            {"kind": "Random", "size": 3, "range": 9, "seed": 1, "sede": 2})
    with pytest.raises(InvalidConfig, match="no field 'N', 'label'"):
        GeneratorConfig.from_json({"kind": "AP", "label": "x", "N": 3})


# each factory and the fields it takes, in order
FACTORIES = {"AP": (ap, ("start", "step", "n")), "GP": (gp, ("start", "ratio", "n")),
             "GridExample": (grid_example, ("s", "p")),
             "Random": (random_set, ("size", "range", "seed"))}


@pytest.mark.parametrize("kw, message", [
    ({"kind": "AP", "start": 1, "step": 1, "n": 0}, "AP needs start, step, n >= 1"),
    ({"kind": "AP", "start": 1, "n": 3}, "AP needs start, step, n >= 1"),
    ({"kind": "AP", "start": 1, "step": 0, "n": 3}, "AP step must be nonzero"),
    ({"kind": "GP", "start": 1, "n": 3}, "GP needs start, ratio, n >= 1"),
    ({"kind": "GP", "start": 0, "ratio": 2, "n": 3}, "GP start and ratio must be nonzero"),
    ({"kind": "GridExample", "s": 0, "p": 2}, "GridExample needs S >= 1, P >= 1"),
    ({"kind": "Random", "size": 5, "range": 4, "seed": 1},
     "Random needs size >= 1, size <= range <= 2\\*\\*64, seed"),
    ({"kind": "Literal", "values": []}, "Literal needs at least one value"),
    ({"kind": "Cube", "n": 3}, "unknown generator kind 'Cube'"),
], ids=["AP-n", "AP-step-missing", "AP-step-zero", "GP-ratio-missing", "GP-start-zero",
        "GridExample", "Random", "Literal", "unknown-kind"])
def test_generate_refuses_bad_parameters(kw, message):
    # a bad config is refused where it is built, so generate never sees one
    builds = [lambda: GeneratorConfig(**kw), lambda: GeneratorConfig.from_json(kw)]
    if kw["kind"] in FACTORIES:
        factory, names = FACTORIES[kw["kind"]]
        builds.append(lambda: factory(*(kw.get(name) for name in names)))
    for build in builds:
        with pytest.raises(InvalidConfig, match=message):
            build()


def test_generate_and_its_builders_raise_nothing():
    # the constructor judges every config, so generate and the builders of
    # `_KINDS` hold no raise site
    builders = {"generate", *(kind.build.__name__ for kind in _KINDS.values())}
    assert [site for site in raise_sites(scan(SETS)) if site[1] in builders] == []
    snippet = ("def generate(c):\n"
               "    if c.n < 1:\n"
               "        raise InvalidConfig('AP needs n >= 1')\n"
               "    return c\n")
    assert [site for site in raise_sites(nodes(snippet)) if site[1] in builders] == [
        ("InvalidConfig", "generate")]


# sizes from -3 to 40 and small rationals, so every accepted config
# generates in milliseconds, amid JSON values of every other shape
_SMALL = st.integers(-3, 40) | st.fractions(-9, 9, max_denominator=9).map(format_rational)
_VALUE = st.recursive(st.none() | st.booleans() | _SMALL | st.floats() | st.text(max_size=3),
                      lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.text(max_size=2), inner, max_size=2),
                      max_leaves=5)
_FIELDS = {"values": st.lists(_SMALL, max_size=5),
           **{key: st.integers(-3, 40) for key in INT_FIELDS}}
_READS = {**{kind: names for kind, (_, names) in FACTORIES.items()}, "Literal": ("values",)}
_KEYS = st.sampled_from([f.name for f in fields(GeneratorConfig)] + ["label"])


def _kind_and(fields_of):
    # a kind with each field it reads, drawn by fields_of(key)
    return st.sampled_from(sorted(_READS)).flatmap(lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind), **{key: fields_of(key) for key in _READS[kind]}}))


_DOCS = st.one_of(
    _VALUE,
    st.builds(lambda kind, rest: {**rest, "kind": kind},
              st.sampled_from([*_READS, "Foo"]) | _VALUE,
              st.dictionaries(_KEYS, _SMALL | _VALUE, max_size=3)),
    _kind_and(lambda key: _FIELDS.get(key, _SMALL) | _VALUE),
    _kind_and(lambda key: _FIELDS.get(key, _SMALL)),
)


@settings(max_examples=200, deadline=None)
@given(_DOCS)
@example({"kind": ["AP"]})
@example({"kind": {"a": 1}})
@example({"kind": "Foo"})
@example({"kind": "AP", "start": "1", "step": "1", "n": 0})
@example({"kind": "Literal", "values": []})
@example({"kind": "GP", "start": "2", "ratio": "-1", "n": 5})
def test_a_config_that_exists_can_be_generated(doc):
    try:
        cfg = GeneratorConfig.from_json(doc)
    except InvalidConfig:
        return
    generate(cfg)
    cfg.label()
    assert GeneratorConfig.from_json(cfg.to_json()) == cfg


def test_the_label_of_a_wide_int_is_refused():
    # label writes through format_rational, so an int past the digit limit,
    # a seed included, is refused by InvalidConfig rather than ValueError
    for cfg in (ap(10**5000, 1, 2), random_set(2, 9, 10**5000)):
        with pytest.raises(InvalidConfig, match="more than 4300 digits"):
            cfg.label()
    assert random_set(2, 9, 2**64 + 1).label() == f"Random(size=2,range=9,seed={2**64 + 1})"


def test_splitmix64_reference_values():
    # published reference sequence for seed 0 (Vigna's splitmix64.c)
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_below_unbiased_range():
    rng = SplitMix64(42)
    vals = [rng.below(7) for _ in range(500)]
    assert set(vals) == set(range(7))


def test_splitmix64_below_bounds_one_draw():
    # n = 2**64 takes every draw; above it no draw could be accepted, so
    # the call must refuse instead of looping
    assert SplitMix64(0).below(1 << 64) == 0xE220A8397B1DCDAF
    assert SplitMix64(0).below(1) == 0
    for n in (0, -1, (1 << 64) + 1, 1 << 70):
        with pytest.raises(InvalidConfig, match="2\\*\\*64"):
            SplitMix64(0).below(n)


# the incidence suite's bounds and the ends; 2**63 + 1 rejects about half
# its draws, so the batches that hold it take the scalar redraw
_BOUNDS = [1, 2, 3, 4, 41, 200, 2001, 1 << 64]
_REJECTING = (1 << 63) + 1


@given(st.integers(0, 2**64 - 1),
       st.lists(st.sampled_from(_BOUNDS), max_size=300)
       | st.lists(st.sampled_from([*_BOUNDS, _REJECTING]), max_size=300))
def test_below_each_is_below_per_bound(seed, bounds):
    one, batch = SplitMix64(seed), SplitMix64(seed)
    assert batch.below_each(bounds) == [one.below(n) for n in bounds]
    assert batch.state == one.state


@given(st.integers(0, 2**64 - 1), st.lists(st.sampled_from([*_BOUNDS, _REJECTING])),
       st.sampled_from([0, (1 << 64) + 1]), st.lists(st.sampled_from(_BOUNDS)))
def test_below_each_refuses_a_bad_bound_after_the_same_draws(seed, head, bad, tail):
    one, batch = SplitMix64(seed), SplitMix64(seed)
    with pytest.raises(InvalidConfig, match="2\\*\\*64"):
        batch.below_each([*head, bad, *tail])
    for n in head:
        one.below(n)
    assert batch.state == one.state


def test_generate_random_range_at_most_two_to_64():
    top = generate(random_set(3, 1 << 64, 1))
    assert len(top) == 3 and all(1 <= x <= 1 << 64 for x in top)
    with pytest.raises(InvalidConfig, match="range <= 2\\*\\*64"):
        generate(random_set(3, (1 << 64) + 1, 1))


def test_rational_text_roundtrip():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-5, 7)) == "-5/7"
    assert parse_rational("-5/7") == Fraction(-5, 7)
    # the text spctl writes, and nothing padded
    with pytest.raises(InvalidConfig, match="not a rational: ' -5/7 '"):
        parse_rational(" -5/7 ")


@given(st.sets(st.integers(-10**6, 10**6), max_size=12), st.integers(1, 720))
@example({-6, -4, 0, 3, 8}, 1)
@example({-12, 0, 6}, 12)
def test_jsonable_ratset_matches_format_rational(ints, scale):
    # the (scale, ints) encoding against one Fraction per element
    a = RatSet.from_ints(sorted(ints), scale)
    assert jsonable(a) == [format_rational(Fraction(k, a.scale)) for k in a.ints]
    assert jsonable(a) == [format_rational(v) for v in a.elements]


def test_set_file_roundtrip(tmp_path):
    a = RatSet([Fraction(1, 2), -3, 7])
    path = tmp_path / "a.txt"
    write_set_file(path, a, header="sample set")
    assert read_set_file(path) == a
    with pytest.raises(InvalidConfig):
        empty = tmp_path / "empty.txt"
        empty.write_text("# only comments\n")
        read_set_file(empty)


def test_wide_element_is_refused_before_anything_is_written(tmp_path):
    # 10**4300 has 4301 digits, one past Python's int-to-str limit
    limit = sys.get_int_max_str_digits()
    assert limit == 4300
    fits = RatSet.from_ints([1, 3], 10**(limit - 1))
    wide = RatSet.from_ints([1, 3], 10**limit)
    path = tmp_path / "wide.txt"
    write_set_file(path, fits)
    assert read_set_file(path) == fits
    path.unlink()
    for write in (lambda: write_set_file(path, wide), lambda: jsonable(wide)):
        with pytest.raises(InvalidConfig, match="more than 4300 digits"):
            write()
    assert not path.exists()


def test_a_lone_wide_fraction_is_refused_as_a_set_is():
    # format_rational writes through _format_ints, so one wide value gets
    # the same digit-limit message as a wide set, a dict key included
    wide = Fraction(10**5000 + 1, 3)
    for write in (lambda: format_rational(wide), lambda: jsonable({wide: 1}),
                  lambda: jsonable([Fraction(1, 10**5000)])):
        with pytest.raises(InvalidConfig, match="more than 4300 digits"):
            write()
    assert [format_rational(v) for v in (Fraction(-7, 3), Fraction(5), Fraction(0))] == [
        "-7/3", "5", "0"]


def test_corpus_file_roundtrip(tmp_path):
    cfgs = [ap(1, 1, 8), grid_example(2, 2)]
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([c.to_json() for c in cfgs]))
    assert read_corpus_file(path) == cfgs
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    with pytest.raises(InvalidConfig):
        read_corpus_file(bad)


@given(st.lists(st.fractions(max_denominator=12), min_size=1, max_size=8))
def test_common_scale_clears_denominators(vals):
    scale = common_scale(vals)
    ints = scaled_ints(vals, scale)
    assert all(isinstance(v, int) for v in ints)
    assert [Fraction(i, scale) for i in ints] == [Fraction(v) for v in vals]


# ---------------------------------------------------------------------------
# RatSet as (scale, ints), each property against a frozenset-of-Fractions
# oracle

_fracs = st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=7),
                  max_size=8)


def _same(got: RatSet, oracle) -> None:
    assert got == RatSet(oracle) and hash(got) == hash(RatSet(oracle))
    assert frozenset(got) == frozenset(oracle) and len(got) == len(oracle)
    dens = [v.denominator for v in oracle]
    assert got.scale == (lcm(*dens) if dens else 1)


@given(_fracs, st.integers(1, 30))
def test_ratset_construction_routes_agree(vals, factor):
    oracle = frozenset(vals)
    _same(RatSet(vals), oracle)
    _same(RatSet(str(v) for v in vals), oracle)
    _same(RatSet(int(v) if v.denominator == 1 else v for v in vals), oracle)
    # any common multiple of the denominators reduces to the canonical scale
    scale = factor * (lcm(*(v.denominator for v in vals)) if vals else 1)
    _same(RatSet.from_ints(sorted(int(v * scale) for v in oracle), scale), oracle)
    _same(RatSet(oracle).select(v >= 0 for v in sorted(oracle)),
          {v for v in oracle if v >= 0})


@given(_fracs, _fracs)
def test_ratset_set_ops_and_algebra_agree(xs, ys):
    a, b = RatSet(xs), RatSet(ys)
    fa, fb = frozenset(xs), frozenset(ys)
    _same(a.union(b), fa | fb)
    _same(a.difference(b), fa - fb)
    _same(a.intersection(b), fa & fb)
    _same(RatSet().union(a, b, a), fa | fb)
    for op, f in _BRUTE.items():
        if op == "ratio" and 0 in fb:
            continue
        _same(set_op(a, b, op), {f(x, y) for x in fa for y in fb})


@given(_fracs.filter(bool), _fracs.filter(bool), st.integers(1, 3))
def test_ratset_histogram_bands_agree(xs, ys, k):
    a, b = RatSet(xs), RatSet(ys)
    for op, f in _BRUTE.items():
        if op == "ratio" and 0 in b:
            continue
        brute = Counter(f(x, y) for x in a for y in b)
        band = dyadic_band(rep_histogram(a, b, op), k)
        _same(band.P, {x for x, r in brute.items() if band.t <= r < 2 * band.t})


def test_ratset_scale_is_canonical():
    half = RatSet([Fraction(1, 2)])
    assert set_op(half, half, "sum") == RatSet([1])
    assert set_op(half, half, "sum").scale == 1
    assert RatSet([Fraction(1, 2), Fraction(3, 2)]).difference(RatSet([Fraction(1, 2)])) \
        == RatSet(["3/2"])
    assert RatSet([Fraction(1, 2), 1]).intersection(RatSet([1, Fraction(1, 3)])).scale == 1
    assert RatSet.from_ints([2, 4, 6], 4) == RatSet([Fraction(1, 2), 1, Fraction(3, 2)])
    assert RatSet().scale == 1 and RatSet.from_ints([], 6) == RatSet()


@given(_fracs, st.fractions(min_value=-12, max_value=12, max_denominator=13),
       st.integers(1, 12))
def test_ratset_membership_across_denominators(vals, v, scale):
    # v's denominator need not divide the set's scale, nor scale the set's
    a = RatSet(vals)
    assert (v in a) == (v in frozenset(vals))
    assert all(x in a for x in vals)
    assert (str(v) in a) == (v in a)
    assert a.keys_at(scale) == [int(x * scale) if (x * scale).denominator == 1 else None
                                for x in sorted(set(vals))]


@given(_fracs, _fracs)
def test_ratset_subset_and_disjoint_across_scales(xs, ys):
    a, b = RatSet(xs), RatSet(ys)
    fa, fb = frozenset(xs), frozenset(ys)
    assert a.is_subset(b) == (fa <= fb)
    assert a.is_disjoint(b) == fa.isdisjoint(fb)
    # the union's scale can exceed a's, and a stays a subset of it
    assert a.is_subset(a.union(b)) and b.is_subset(a.union(b))
    assert a.difference(b).is_disjoint(b)


@given(_fracs)
def test_ratset_iteration_strictly_increasing(vals):
    a = RatSet(vals)
    got = list(a)
    assert got == sorted(set(vals))
    assert all(x < y for x, y in zip(got, got[1:]))
    assert all(type(x) is Fraction for x in got)
    assert a.elements == tuple(got)
