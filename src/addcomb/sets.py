"""Finite rational sets: construction, algebra, and file I/O.

A RatSet is one positive `scale` and a strictly increasing tuple of distinct
ints: the set {k/scale}.  The scale is the lcm of the reduced denominators,
so each set has one form.  Membership, the set algebra, the pairwise set
operations (sumset, difference set, product set, ratio set) and the affine
image all run on ints; Fractions appear only where values are parsed, in the
generators, and in the lazily built `elements` view that iteration reads.
The pairwise operations clear denominators once, and each a op b becomes a
pair key: one int k over one denominator den for all four ops, quotients
included, standing for k/den.  This module is the one home of that key
format, which every energy histogram shares: `int_keys` encodes,
`unordered_keys` encodes the unordered pairs of one set on the same den (the
self-energies' tally), a set's elements key as `RatSet.keys_at(den)`, and
`from_keys` decodes.
`integerize` is the one denominator-clearing step that every int route
uses; on RatSets it is one multiply per element.

This module also owns the text formats: rationals as "p/q", set files,
corpus files, and the JSON form of every result.  `jsonable` is the one
encoding rule of the reports (see its docstring), the result dataclasses
inherit `Record` to get it as `to_json`, and `canonical_json` is the one
dump (sorted keys, no spaces) that makes the reports byte-stable.

Generators
----------
AP(start, step, n)        arithmetic progression; n >= 1, step != 0
GP(start, ratio, n)       geometric progression; n >= 1, start, ratio != 0
GridExample(S, P)         {(2m-1) * 2^j : 1 <= m <= S, 1 <= j <= P}, the
                          standard multiplicatively-structured example with
                          small product set and large difference set; S, P >= 1
Random(size, range, seed) distinct integers uniform on [1, range];
                          1 <= size <= range <= 2**64
Literal(values)           explicit list; at least one value

`_KINDS` holds each kind's fields, rules and builder; the constructor of
a config judges it by them, so `generate` only builds.

Randomness is produced by SplitMix64 (the 64-bit mixer from Steele et al.,
"Fast splittable pseudorandom number generators", OOPSLA 2014), chosen because
its output is fully pinned by the seed across platforms and Python versions.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from math import gcd, lcm
from operator import mod, mul
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import DivisionByZero, InvalidConfig, ZeroScale

MASK64 = (1 << 64) - 1
# SplitMix64's state increment (the odd 64-bit golden-ratio constant)
GAMMA = 0x9E3779B97F4A7C15
# the packed lanes of `below_each` are little-endian 64-bit words
_SWAP = sys.byteorder == "big"


def _mix(z: int, lanes: int) -> int:
    """The SplitMix64 output function of every 64-bit lane of z.

    `lanes` holds 2**64 - 1 in each lane, so masking a shift by it drops the
    bits that the shift pulls in from the next lane, and masking a product
    keeps each lane's product mod 2**64.  With lanes = MASK64 this is the
    scalar output function of one state."""
    z = ((z ^ ((z >> 30) & lanes)) * 0xBF58476D1CE4E5B9) & lanes
    z = ((z ^ ((z >> 27) & lanes)) * 0x94D049BB133111EB) & lanes
    return z ^ ((z >> 31) & lanes)


class SplitMix64:
    """Deterministic 64-bit PRNG (Steele, Lea & Flood, OOPSLA 2014).

    Draw i after state s is the output function `_mix` of s + i*GAMMA mod
    2**64, a pure function of i, so `below_each` computes a batch of draws
    at once and yields exactly the values and final state of one `below`
    call per bound."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        return _mix(self.state, MASK64)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top multiple of n.

        One draw holds 64 bits, so n must lie in [1, 2**64]."""
        if not 1 <= n <= 1 << 64:
            raise InvalidConfig("bound must be in [1, 2**64]")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def below_each(self, bounds) -> list[int]:
        """`[self.below(n) for n in bounds]`, with the same final state,
        drawn as one packed-int computation.

        Lane packing: draw i of k (i = 1..k) goes into the low 64 bits of
        the 128-bit slot i - 1 of one int.  The slots first hold i, then
        i*GAMMA + s (s the state), which is below 2**128, so a 64-bit lane
        times a 64-bit constant, plus a 64-bit lane, fits its slot and no
        lane carries into the next; masking every slot to 64 bits leaves
        s + i*GAMMA mod 2**64.  `_mix` keeps each lane in its slot the same
        way, so slot i - 1 of the result is draw i.

        Rejection stays exact: `below(n)` accepts a draw u iff u is below
        2**64 - 2**64 % n.  If every one of the k draws is below the
        smallest such limit over the bounds, `below` accepts each draw at
        its first try and the batch is the answer.  Otherwise (rare for
        small bounds), or if some bound lies outside [1, 2**64], the batch
        is discarded and `below` draws each value from the saved state, so
        an invalid bound raises after the same draws as `below` makes.

        The test runs on the packed int, with no lane taken out of it.
        Lemma: for a lane u < 2**64 and c = 2**64 - limit in [0, 2**64),
        u + c < 2**65 fits the lane's 128-bit slot, and its bit 64 is set
        iff u + c >= 2**64, that is iff u >= limit.  So adding c*ones to
        the draws carries into no other slot, and
        (draws + c*ones) >> 64 & ones is zero iff every lane is accepted."""
        k = len(bounds)
        if not k:
            return []
        limit = 1 << 64
        for n in set(bounds):
            if not 1 <= n <= 1 << 64:
                return [self.below(n) for n in bounds]
            limit = min(limit, (1 << 64) - ((1 << 64) % n))
        s = self.state
        # ones (1 in every slot) and ramp (i in slot i - 1) of m slots grow by
        # doubling, the upper copy of ramp holding i + m, and by one slot for
        # each 1 bit of k after its leading one
        ones = ramp = m = 1
        for bit in bin(k)[3:]:
            ramp |= (ramp + m * ones) << (128 * m)
            ones |= ones << (128 * m)
            m += m
            if bit == "1":
                ramp |= (m + 1) << (128 * m)
                ones |= 1 << (128 * m)
                m += 1
        lanes = ones * MASK64
        z = (ramp * GAMMA + s * ones) & lanes
        draws = _mix(z, lanes)
        if (draws + ((1 << 64) - limit) * ones) >> 64 & ones:
            return [self.below(n) for n in bounds]
        words = array("Q", draws.to_bytes(16 * k, "little"))
        if _SWAP:
            words.byteswap()
        self.state = (s + k * GAMMA) & MASK64
        return list(map(mod, words[::2], bounds))


def _num_den(v) -> tuple[int, int]:
    """The reduced (numerator, denominator) of v by the package's one rule
    for a rational it takes in: an int that is not a bool, a Fraction, or
    text that `parse_rational` reads.  Anything else, such as a float, a
    bool, a Decimal or the text "1e5", raises InvalidConfig."""
    if type(v) is int:
        return v, 1
    if not isinstance(v, Fraction):
        if not isinstance(v, str):
            raise InvalidConfig(f"not a rational: {_shown(v)}")
        v = parse_rational(v)
    return v.numerator, v.denominator


def as_fraction(v, what: str = "") -> Fraction:
    """v as a Fraction, by the rule of `_num_den`; a refusal starts with `what`."""
    try:
        return v if isinstance(v, Fraction) else Fraction(*_num_den(v))
    except InvalidConfig as exc:
        raise InvalidConfig(what + str(exc)) from exc


def as_int(v, what: str) -> int:
    """v if it is an int that is not a bool, the rule of every int parameter;
    anything else, such as 3.0 or True, raises InvalidConfig naming `what`."""
    if type(v) is not int:
        raise InvalidConfig(f"{what} must be an int, got {_shown(v)}")
    return v


def _shown(v) -> str:
    """repr(v) for a message, or its type if it holds an int too wide to write."""
    try:
        return repr(v)
    except ValueError:
        return f"a {type(v).__name__} holding an int of {_too_many_digits('write')}"


class RatSet:
    """Immutable finite set of rationals: the values k/scale for k in `ints`.

    `ints` is a strictly increasing tuple of ints and `scale` is canonical:
    the lcm of the reduced denominators (1 for an empty or integer set), so
    equal sets have equal (scale, ints).  Membership and the set algebra run
    on these ints; `elements` and iteration give the Fractions, built once,
    on first use.  The values, and the v of `v in A`, are rationals by the
    rule of `_num_den`: a float or the text " 3" raises InvalidConfig.
    """

    __slots__ = ("scale", "ints", "_elements")

    def __init__(self, values: Iterable = ()):
        pairs = [_num_den(v) for v in values]
        scale = lcm(*{d for _, d in pairs})
        ints = {n * (scale // d) for n, d in pairs}
        self._set(scale, tuple(sorted(ints)))

    @classmethod
    def from_ints(cls, ints, scale: int) -> "RatSet":
        """The set {k/scale : k in ints}; ints strictly increasing, scale > 0.

        The scale is reduced to the canonical one here, so any common
        multiple of the denominators will do.
        """
        g = gcd(scale, *ints)
        if g > 1:
            scale //= g
            ints = [k // g for k in ints]
        out = cls.__new__(cls)
        out._set(scale, tuple(ints))
        return out

    def _set(self, scale: int, ints: tuple) -> None:
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "_elements", None)

    def __setattr__(self, *_):
        raise AttributeError("RatSet is immutable")

    @property
    def elements(self) -> tuple:
        """The elements as Fractions, strictly increasing (built once)."""
        if self._elements is None:
            s = self.scale
            object.__setattr__(self, "_elements", tuple(Fraction(k, s) for k in self.ints))
        return self._elements

    def __len__(self) -> int:
        return len(self.ints)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.elements)

    def __contains__(self, v) -> bool:
        n, d = _num_den(v)
        k, rem = divmod(n * self.scale, d)
        if rem:
            return False  # d does not divide the scale
        i = bisect_left(self.ints, k)
        return i < len(self.ints) and self.ints[i] == k

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatSet) and self.scale == other.scale
                and self.ints == other.ints)

    def __hash__(self) -> int:
        return hash((self.scale, self.ints))

    def __repr__(self) -> str:
        return f"RatSet({[str(e) for e in self.elements]})"

    def keys_at(self, scale: int) -> list:
        """Each element times scale, in order; None where that is no int."""
        s = self.scale
        if scale % s == 0:
            m = scale // s
            return list(self.ints) if m == 1 else [k * m for k in self.ints]
        return [q if r == 0 else None for q, r in (divmod(k * scale, s) for k in self.ints)]

    def select(self, flags: Iterable) -> "RatSet":
        """The subset of the elements whose flag (in element order) is true."""
        return RatSet.from_ints(list(compress(self.ints, flags)), self.scale)

    def _others_at(self, other: "RatSet") -> tuple[int, set]:
        # (m, K): self's element k/s is in other iff k*m is in K, where both
        # sets are scaled to the lcm of their scales
        both = lcm(self.scale, other.scale)
        return both // self.scale, set(other.keys_at(both))

    def union(self, *others: "RatSet") -> "RatSet":
        """self united with every set of others."""
        sets = (self,) + others
        scale = lcm(*(a.scale for a in sets))
        ints = set()
        for a in sets:
            ints.update(a.keys_at(scale))
        return RatSet.from_ints(sorted(ints), scale)

    def difference(self, other: "RatSet") -> "RatSet":
        m, theirs = self._others_at(other)
        return self.select(k * m not in theirs for k in self.ints)

    def intersection(self, other: "RatSet") -> "RatSet":
        m, theirs = self._others_at(other)
        return self.select(k * m in theirs for k in self.ints)

    def is_subset(self, other: "RatSet") -> bool:
        # each denominator of a subset divides the other set's scale
        if other.scale % self.scale:
            return False
        return set(other.ints).issuperset(self.keys_at(other.scale))

    def is_disjoint(self, other: "RatSet") -> bool:
        m, theirs = self._others_at(other)
        return theirs.isdisjoint(k * m for k in self.ints)

    def require_nonzero(self, context: str = "multiplicative operation"):
        if 0 in self:
            raise DivisionByZero(f"{context}: set contains 0")


INT_FIELDS = ("n", "s", "p", "size", "range", "seed")  # the others but kind are rationals


@dataclass(frozen=True)
class GeneratorConfig:
    """Declarative description of a set; serializes to/from plain JSON.

    `__post_init__` judges every config, however it is built, by its
    kind's row of `_KINDS`, so a config that exists can be generated.
    """

    kind: str  # "AP" | "GP" | "GridExample" | "Random" | "Literal"
    start: Fraction | None = None
    step: Fraction | None = None
    ratio: Fraction | None = None
    n: int | None = None
    s: int | None = None
    p: int | None = None
    size: int | None = None
    range: int | None = None
    seed: int | None = None
    values: tuple | None = None

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _KINDS):
            raise InvalidConfig(f"unknown generator kind {_shown(self.kind)}")
        reads, rules, _ = _KINDS[self.kind]
        stray = [f.name for f in fields(self)
                 if f.name not in ("kind", *reads) and getattr(self, f.name) is not None]
        if stray:
            raise InvalidConfig(f"{self.kind} config takes no {', '.join(stray)}")
        # the JSON field rule: the sizes are ints that are not bools,
        # values is a list (or a tuple), and start, step, ratio and each of
        # values a rational by the rule of `_num_den`, so a float or a bool
        # is refused, naming the field, rather than rounded or read as 0 or
        # 1; the rationals become Fractions, so equal configs serialise alike
        for key in ("start", "step", "ratio"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, as_fraction(getattr(self, key),
                                                          f"generator config field {key!r}: "))
        for key in INT_FIELDS:
            if getattr(self, key) is not None:
                as_int(getattr(self, key), f"generator config field {key!r}")
        if self.values is not None:
            if not isinstance(self.values, (list, tuple)):
                raise InvalidConfig(
                    f"generator config field 'values' must be a list, got {_shown(self.values)}")
            object.__setattr__(self, "values", tuple(
                as_fraction(v, "generator config field 'values': ") for v in self.values))
        # an unset field fails the kind's first rule, which names them all
        unset = any(getattr(self, key) is None for key in reads)
        for holds, message in rules:
            if unset or not holds(self):
                raise InvalidConfig(message)

    def label(self) -> str:
        """The kind and the fields it reads, as "AP(start=1,step=1,n=8)"."""
        if self.kind == "Literal":  # the size of the set, not the values
            return f"Literal(n={len(set(self.values))})"
        named = {"s": "S", "p": "P"}  # GridExample's parameters
        shown = (f"{named.get(key, key)}={format_rational(getattr(self, key))}"
                 for key in _KINDS[self.kind].reads)
        return f"{self.kind}({','.join(shown)})"

    def to_json(self) -> dict:
        """The `jsonable` form without the fields that are None."""
        return {key: v for key, v in jsonable(self).items() if v is not None}

    @staticmethod
    def from_json(d: dict) -> "GeneratorConfig":
        """Inverse of to_json; InvalidConfig on anything else.

        The fields obey the rule of `__post_init__`, and a key that is no
        config field is refused by name too.
        """
        if not isinstance(d, dict) or "kind" not in d:
            raise InvalidConfig(f"generator config must be an object with a kind: {_shown(d)}")
        unknown = sorted(set(d) - {f.name for f in fields(GeneratorConfig)}, key=str)
        if unknown:
            raise InvalidConfig(f"generator config has no field {', '.join(map(repr, unknown))}")
        return GeneratorConfig(**d)


def _random_ints(config: GeneratorConfig) -> set:
    rng, chosen = SplitMix64(config.seed), set()
    while len(chosen) < config.size:
        chosen.add(1 + rng.below(config.range))
    return chosen


class _Kind(NamedTuple):
    reads: tuple  # the fields the kind reads, in label order
    rules: tuple  # (holds, message) pairs, judged in order on a config
    build: Callable  # the values of a config that passed the rules


_KINDS = {
    "AP": _Kind(("start", "step", "n"), (
        (lambda c: c.n >= 1, "AP needs start, step, n >= 1"),
        (lambda c: c.step != 0, "AP step must be nonzero"),
    ), lambda c: (c.start + i * c.step for i in range(c.n))),
    # a ratio of 1 or -1 repeats values, which the RatSet drops
    "GP": _Kind(("start", "ratio", "n"), (
        (lambda c: c.n >= 1, "GP needs start, ratio, n >= 1"),
        (lambda c: c.start != 0 and c.ratio != 0, "GP start and ratio must be nonzero"),
    ), lambda c: accumulate(repeat(c.ratio, c.n - 1), mul, initial=c.start)),
    "GridExample": _Kind(("s", "p"), (
        (lambda c: c.s >= 1 and c.p >= 1, "GridExample needs S >= 1, P >= 1"),
    ), lambda c: ((2 * m - 1) * 2**j for m in range(1, c.s + 1) for j in range(1, c.p + 1))),
    "Random": _Kind(("size", "range", "seed"), (
        (lambda c: 1 <= c.size <= c.range <= 1 << 64,
         "Random needs size >= 1, size <= range <= 2**64, seed"),
    ), _random_ints),
    "Literal": _Kind(("values",), (
        (lambda c: len(c.values) > 0, "Literal needs at least one value"),
    ), lambda c: c.values),
}


def ap(start, step, n: int) -> GeneratorConfig:
    return GeneratorConfig(kind="AP", start=start, step=step, n=n)


def gp(start, ratio, n: int) -> GeneratorConfig:
    return GeneratorConfig(kind="GP", start=start, ratio=ratio, n=n)


def grid_example(s: int, p: int) -> GeneratorConfig:
    return GeneratorConfig(kind="GridExample", s=s, p=p)


def random_set(size: int, rng: int, seed: int) -> GeneratorConfig:
    return GeneratorConfig(kind="Random", size=size, range=rng, seed=seed)


def generate(config: GeneratorConfig) -> RatSet:
    """Materialize a GeneratorConfig, which its constructor has judged."""
    return RatSet(_KINDS[config.kind].build(config))


def set_op(a: RatSet, b: RatSet, op: str) -> RatSet:
    """Pairwise sumset / difference set / product set / ratio set: the
    values of the distinct `int_keys` keys of a op b."""
    keys, den = int_keys(a, b, op)
    return from_keys(set(keys), den)


def affine(a: RatSet, scale, shift) -> RatSet:
    """Image under x -> scale*x + shift; ZeroScale if scale == 0.

    With x = k/s, scale = p/q and shift = u/v the image is
    (p v k + u q s) / (q s v), one int per element.
    """
    (p, q), (u, v) = _num_den(scale), _num_den(shift)
    if p == 0:
        raise ZeroScale("affine scale must be nonzero")
    s = a.scale
    ints = [p * v * k + u * q * s for k in a.ints]
    return RatSet.from_ints(ints if p > 0 else ints[::-1], q * s * v)


# ---------------------------------------------------------------------------
# Set files: UTF-8, one "p/q" or "p" per line amid ASCII whitespace, '#' comments.

def format_rational(v: Fraction | int) -> str:
    """v as "p/q", or "p" for an integer; InvalidConfig past the digit
    limit, as `_format_ints`, which writes it."""
    return _format_ints((v.numerator,), v.denominator)[0]


def _format_ints(ints, scale: int) -> list:
    """`format_rational(Fraction(k, scale))` for each k, one gcd per k.

    InvalidConfig if a numerator or denominator has more digits than
    Python converts to text (`sys.get_int_max_str_digits()`).
    """
    out = []
    try:
        for k in ints:
            g = gcd(k, scale)
            out.append(str(k // g) if g == scale else f"{k // g}/{scale // g}")
    except ValueError as exc:
        raise InvalidConfig(f"an element has {_too_many_digits('write')}") from exc
    return out


def _too_many_digits(action: str) -> str:
    return f"more than {sys.get_int_max_str_digits()} digits, too many to {action} as text"


def parse_rational(text: str) -> Fraction:
    """The rational in text "p/q" or "p", the form `format_rational` writes:
    ASCII digits, an optional leading "-" and a nonzero denominator, with
    no space, "+", decimal point, exponent or "_".  InvalidConfig if text
    is anything else, or has more digits than Python converts from text."""
    match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", text) if isinstance(text, str) else None
    try:
        if match:
            return Fraction(int(match[1]), int(match[2] or 1))
    except ZeroDivisionError:
        pass
    except ValueError as exc:  # the pattern leaves only the digit limit
        raise InvalidConfig(f"a number of {_too_many_digits('read')}") from exc
    raise InvalidConfig(f"not a rational: {text!r}")


def parse_int(text: str, what: str = "") -> int:
    """The int in text "p", the integer half of `parse_rational`'s grammar;
    anything else raises InvalidConfig, its message led by `what`."""
    if isinstance(text, str) and re.fullmatch(r"-?[0-9]+", text):
        return as_fraction(text, what).numerator  # refuses only past the digit limit
    raise InvalidConfig(f"{what}not an integer: {_shown(text)}")


def write_set_file(path, a: RatSet, header: str | None = None):
    lines = [f"# {h}" for h in (header or "").splitlines()]
    lines.extend(_format_ints(a.ints, a.scale))  # before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_set_file(path) -> RatSet:
    vals = []
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip(" \t\n\r\v\f")
                if line:
                    try:
                        vals.append(parse_rational(line))
                    except InvalidConfig as exc:
                        raise InvalidConfig(f"set file {path} line {lineno}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InvalidConfig(f"set file {path} is not UTF-8 text: {exc}") from exc
    if not vals:
        raise InvalidConfig(f"set file {path} contains no elements")
    return RatSet(vals)


def read_json_file(path, what: str):
    """The JSON document in the `what` file at path; InvalidConfig if it is
    not JSON or holds an int of more digits than Python converts from text."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            if "int_max_str_digits" in str(exc):  # Python's digit limit
                raise InvalidConfig(f"{what} file {path} holds a number of "
                                    f"{_too_many_digits('read')}") from exc
            raise InvalidConfig(f"{what} file {path} is not JSON: {exc}") from exc


def read_corpus_file(path) -> list[GeneratorConfig]:
    """Corpus file: JSON list of generator configs."""
    data = read_json_file(path, "corpus")
    if not isinstance(data, list) or not data:
        raise InvalidConfig("corpus file must be a nonempty JSON list")
    return [GeneratorConfig.from_json(d) for d in data]


# ---------------------------------------------------------------------------
# JSON reports: one encoding rule and one dump for every result type.

def jsonable(obj):
    """obj in its JSON form: the one encoding rule of every report.

    A RatSet becomes a list of "p/q" strings, written from its (scale,
    ints) with one gcd per element, and a Fraction one such string, as a
    dict key too; a dataclass becomes an object of its fields;
    a list or tuple (a NamedTuple included) becomes a list.  Anything else
    is left as it is.
    """
    if isinstance(obj, RatSet):
        return _format_ints(obj.ints, obj.scale)
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if is_dataclass(obj):
        return {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {jsonable(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


class Record:
    """Base of the result dataclasses: `to_json` is their `jsonable` form."""

    def to_json(self) -> dict:
        return jsonable(self)


def canonical_json(doc) -> str:
    """doc as canonical JSON text: sorted keys, no spaces, no newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Integerization: clear denominators so hot kernels can run on plain ints.

def common_scale(*sets: Iterable) -> int:
    """Least common multiple of all denominators across the given sets:
    RatSets (one lcm of their scales) or iterables of Fractions."""
    return lcm(*(a.scale if isinstance(a, RatSet) else lcm(*{v.denominator for v in a})
                 for a in sets))


def scaled_ints(a: Iterable, scale: int) -> list[int]:
    """v * scale as ints; scale must be a multiple of every denominator."""
    if isinstance(a, RatSet):
        return a.keys_at(scale)
    return [v.numerator * (scale // v.denominator) for v in a]


def integerize(*sets: Iterable) -> tuple[int, list[list[int]]]:
    """(s, [v * s for v in each set]) with s the common_scale of the sets.

    For RatSets that is one multiply per element, or none when a set's
    scale is already s.
    """
    scale = common_scale(*sets)
    return scale, [scaled_ints(a, scale) for a in sets]


# ---------------------------------------------------------------------------
# Pair keys: the one int form of the values a op b, read by set_op and by
# every representation histogram.  A key over den is an int k for k/den.

def int_keys(A: RatSet, B: RatSet, op: str) -> tuple[Iterator, int]:
    """Keys of a op b over A x B on cleared-denominator ints, and their den.

    With s = common_scale(A, B) and a, b the scaled ints, the keys are
    a -/+ b for diff/sum (den s) and a*b for prod (den s^2).  For ratio,
    den = lcm(b) and the key of a/b is a*(den//b): exact, without a gcd,
    and one key per value, though a key has about as many bits as that
    lcm.  Pairs run A-major.  InvalidConfig if op is none of these,
    DivisionByZero for a ratio with 0 in B.
    """
    if op not in ("sum", "diff", "prod", "ratio"):
        raise InvalidConfig(f"unknown set operation {op!r}")
    if op == "ratio":
        B.require_nonzero("ratio set")
    scale, (xs, ys) = integerize(A, B)
    if op == "diff":
        return (a - b for a in xs for b in ys), scale
    if op == "sum":
        return (a + b for a in xs for b in ys), scale
    if op == "prod":
        return (a * b for a in xs for b in ys), scale * scale
    den = lcm(*ys)
    ms = [den // b for b in ys]
    return (a * m for a in xs for m in ms), den


def unordered_keys(A: RatSet, op: str) -> tuple[Iterator, int]:
    """Keys of a op b over the unordered pairs of distinct elements of A,
    one key per pair, and their den, for op in {diff, ratio}.

    The keys and den are those of `int_keys(A, A, op)`: b - a for a < b,
    and a*(den//b) for |a| > |b|.  So each pair keys the one of its two
    values that is above 0 (diff) or of modulus above 1 (ratio); the other
    is its mirror -x or 1/z.  The pairs {a, -a}, whose ratio is -1 either
    way, give no key.
    InvalidConfig for any other op, DivisionByZero for a ratio with 0 in A.
    """
    if op not in ("diff", "ratio"):
        raise InvalidConfig(f"unordered keys need diff or ratio, got {op!r}")
    xs = A.ints
    if op == "diff":
        return (b - a for i, a in enumerate(xs) for b in xs[i + 1:]), A.scale
    A.require_nonzero("ratio set")
    xs = sorted(xs, key=abs)
    mags = list(map(abs, xs))
    den = lcm(*xs)
    ms = [den // b for b in xs]
    # the slice of ms up to bisect_left(mags, |a|) holds the b with |b| < |a|
    return (a * m for a, mag in zip(xs, mags) for m in ms[:bisect_left(mags, mag)]), den


def from_keys(keys: Iterable, den: int) -> RatSet:
    """The RatSet of the values that the distinct keys over den stand for."""
    return RatSet.from_ints(sorted(keys), den)
