"""Workload definitions: inputs made from a seed, and each workload's fixed
operation list.

An operation is one closed-loop call sequence into the library.  It returns a
JSON-serialisable output, which the runner compares against the golden file,
and carries a seed-independent cross-check on that output.  The library only
ever receives the generated sets: the workload seed drives a benchmark-side
SplitMix64 stream, never an argument of the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from addcomb import cli, collinear, decompose, harness, ratios
from addcomb.sets import RatSet, ap, generate, gp, grid_example

# Library calls go through module attributes, so the tracer's patched
# bindings see them.  `addcomb.energy` is the function that the package
# re-exports over its submodule, hence the import by name.
energy_mod = importlib.import_module("addcomb.energy")

DEFAULT_SEED = 1

MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool] = lambda out: True


class SplitMix64:
    """Benchmark-side PRNG (Steele et al. 2014), pinned across platforms."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def below(self, n: int) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) % n


def _stream(seed: int, tag: int) -> SplitMix64:
    return SplitMix64(seed * 1_000_003 + tag)


def random_ints(seed: int, n: int, hi: int) -> RatSet:
    """n distinct integers uniform on [1, hi], drawn from the workload seed."""
    rng = _stream(seed, n * 100_003 + hi)
    chosen: set[int] = set()
    while len(chosen) < n:
        chosen.add(1 + rng.below(hi))
    return RatSet(chosen)


def _small_rationals(rng: SplitMix64, size: int) -> RatSet:
    # signed rationals p/q, |p| <= 10, q <= 3: zeros and coincident points occur
    vals: set[Fraction] = set()
    while len(vals) < size:
        vals.add(Fraction(rng.below(21) - 10, 1 + rng.below(3)))
    return RatSet(vals)


def seeded_triple(seed: int, i: int):
    rng = _stream(seed, 7_000_000 + i)
    return tuple(_small_rationals(rng, 1 + rng.below(5)) for _ in range(3))


def _sha(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _named(cfg):
    return cfg.label(), generate(cfg)


def _random(seed: int, n: int, hi: int):
    return f"Random(n={n},range={hi},seed={seed})", random_ints(seed, n, hi)


# ---------------------------------------------------------------------------
# verify-all


def _verify_op(out_dir: str, seed: int, corpus_path: str | None) -> Op:
    def run():
        path = os.path.join(out_dir, f"verify-{os.getpid()}.json")
        argv = ["verify", "--suite", "all", "--json", path, "--seed", str(seed)]
        if corpus_path:
            argv += ["--corpus", corpus_path]
        text = io.StringIO()
        try:
            with contextlib.redirect_stdout(text):
                code = cli.main(argv)
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        # `environment` carries the seed and versions; everything else in the
        # payload is byte-stable for the default corpus
        for suite in doc["payload"]["suites"]:
            del suite["environment"]
        lines = text.getvalue().splitlines()
        return {"exit": code, "verdict": lines[-1] if lines else "",
                "payload_sha256": _sha(doc)}

    label = "spctl verify --suite all" + (" (tiny corpus)" if corpus_path else "")
    return Op(label, run, lambda o: o["exit"] == 0 and o["verdict"] == "VERIFY PASS")


def _verify_all(seed: int, tiny: bool, out_dir: str):
    if tiny:
        corpus = [ap(1, 1, 6), gp(1, 2, 6), grid_example(2, 2)]
        corpus_path = os.path.join(out_dir, "tiny-corpus.json")
        with open(corpus_path, "w", encoding="utf-8") as fh:
            json.dump([c.to_json() for c in corpus], fh)
    else:
        corpus, corpus_path = harness.DEFAULT_CORPUS, None
    # materialised only so set-up pays what a CLI start pays; verify
    # regenerates the corpus itself on every suite
    for cfg in corpus:
        generate(cfg)
    return [_verify_op(out_dir, seed, corpus_path)]


# ---------------------------------------------------------------------------
# collinear-sweep


def _t_o(label, A):
    return Op(f"T_o linehash {label}^3", lambda: collinear.t_o_count(A, A, A))


def _brute_triple(seed: int, i: int):
    A, B, C = seeded_triple(seed, i)

    def run():
        return {"T": collinear.t_count_brute(A, B, C),
                "T_o": collinear.t_o_count(A, B, C, "brute"),
                "T_o_linehash": collinear.t_o_count(A, B, C, "linehash")}

    return Op(f"T, T_o brute vs linehash, triple {i} seed {seed}", run,
              lambda o: o["T_o"] == o["T_o_linehash"] and o["T"] >= o["T_o"])


def _collinear_sweep(seed: int, tiny: bool, out_dir: str):
    if tiny:
        sets = [_named(ap(1, 1, 6)), _named(grid_example(2, 3)), _random(seed, 6, 24)]
        uneq = (_named(ap(1, 1, 5)), _random(seed, 6, 12), _named(grid_example(2, 2)))
        n_triples = 3
    else:
        sets = [_named(ap(1, 1, n)) for n in (16, 24, 32)]
        sets += [_named(grid_example(4, p)) for p in (4, 6)]
        sets += [_random(seed, n, 4 * n) for n in (16, 24, 32)]
        uneq = (_named(ap(1, 1, 16)), _random(seed, 20, 40), _named(grid_example(3, 4)))
        n_triples = 20
    ops = [_t_o(label, A) for label, A in sets]
    (l1, A1), (l2, A2), (l3, A3) = uneq
    ops.append(Op(f"T_o linehash {l1} x {l2} x {l3}",
                  lambda: collinear.t_o_count(A1, A2, A3)))
    ops += [_brute_triple(seed, i) for i in range(n_triples)]
    return ops


# ---------------------------------------------------------------------------
# energy-sweep


def _energy_ops(label, A):
    ops = [Op(f"E{k}+ {label}", lambda k=k: energy_mod.energy(A, A, k))
           for k in (2, 3, 4)]

    def emul():
        return [energy_mod.energy(A, A, 2, "multiplicative"),
                energy_mod.energy_mul_product_form(A, A)]

    ops.append(Op(f"E_mul hist vs product form {label}", emul, lambda o: o[0] == o[1]))
    return ops


def _replay(A, res):
    # certificates replay against the remainder each extraction saw
    failures, rem = [], A
    for cert in res.certificates:
        failures += decompose.recheck_certificate(rem, cert)
        rem = rem.difference(cert.chosen)
    return failures


def _decompose_ops(label, A):
    n = len(A)

    def bw():
        res = decompose.bw_decompose(A)
        B, C = res.parts["B"], res.parts["C"]
        return {"sha256": _sha(res.to_json()), "pieces": res.meta["pieces"],
                "partition": B.is_disjoint(C) and B.union(C) == A,
                "replay_failures": _replay(A, res)}

    def xy():
        res = decompose.xy_decompose(A)
        X, Y = res.parts["X"], res.parts["Y"]
        return {"sha256": _sha(res.to_json()), "pieces": res.meta["pieces"],
                "cover": X.union(Y) == A and 2 * len(X) >= n and 2 * len(Y) >= n,
                "replay_failures": _replay(A, res)}

    def reg():
        tr = decompose.regularize(A, 3)
        return {"sha256": _sha(tr.to_json()), "steps": len(tr.steps),
                "replay_failures": decompose.recheck_reg_trace(A, tr)}

    return [
        Op(f"bw_decompose + replay {label}", bw,
           lambda o: o["partition"] and not o["replay_failures"]),
        Op(f"xy_decompose + replay {label}", xy,
           lambda o: o["cover"] and not o["replay_failures"]),
        Op(f"regularize(k=3) + replay {label}", reg, lambda o: not o["replay_failures"]),
    ]


def _ratio_op(label, A):
    def run():
        Z = ratios.popular_ratios(A, A)
        prof = ratios.ratio_profile(Z, A, A)
        return {"Z": len(Z), "R": prof.R, "sum_r": prof.sum_r,
                "sha256": _sha(prof.to_json())}

    # |Z| is capped at the default count |A|^2
    return Op(f"popular_ratios + ratio_profile {label}", run,
              lambda o: 0 < o["Z"] <= len(A) ** 2)


def _energy_sweep(seed: int, tiny: bool, out_dir: str):
    # decompositions stop below the largest size: at n = 128 they would take
    # most of the pass and leave the energies unmeasured
    if tiny:
        sizes, grids, ratio_sets = (8, 16), ((2, 4), (4, 4)), [_named(ap(1, 1, 8))]
    else:
        sizes, grids = (32, 64, 128), ((4, 8), (8, 8), (8, 16))
        # a range far above n makes the random set generic: all pair sums
        # differ, so the candidate count (18361) does not depend on the seed
        ratio_sets = [_named(ap(1, 1, 32)), _random(seed, 16, 10**6)]
    decompose_below = sizes[-1]
    ops = []
    for n, (s, p) in zip(sizes, grids):
        sets = [_named(ap(1, 1, n)), _named(ap(Fraction(1, 2), Fraction(1, 3), n)),
                _named(gp(1, 2, n)), _named(gp(Fraction(2, 3), Fraction(3, 2), n)),
                _random(seed, n, 8 * n), _named(grid_example(s, p))]
        for label, A in sets:
            ops += _energy_ops(label, A)
            if n < decompose_below:
                ops += _decompose_ops(label, A)
    ops += [_ratio_op(label, A) for label, A in ratio_sets]
    return ops


_BUILDERS = {
    "verify-all": _verify_all,
    "collinear-sweep": _collinear_sweep,
    "energy-sweep": _energy_sweep,
}


def build(name: str, seed: int, tiny: bool, out_dir: str) -> list[Op]:
    """Materialise the inputs of one workload and return its operation list."""
    return _BUILDERS[name](seed, tiny, out_dir)
