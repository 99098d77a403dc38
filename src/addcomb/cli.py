"""Command line front end: `spctl`.

Subcommands map one-to-one onto the library surface.  Each `_cmd_*`
imports the modules it runs, prints its text lines and returns its
payload and exit status, so a command loads only what it needs; `main`
writes the payload as the one canonical JSON report (sorted keys, no
timestamps) when `--json` asks for it, so batch runs diff cleanly.  With
`--json -` stdout carries that one document and the command's text lines
go to stderr.  Exit status is 0 on success; `verify` returns nonzero iff
any exact check failed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .core import DEFAULT_BUDGET
from .errors import AddcombError, InvalidConfig
from .sets import (_KINDS, INT_FIELDS, GeneratorConfig, canonical_json, generate, jsonable,
                   parse_int, read_corpus_file, read_set_file, write_set_file)

SCHEMA = "addcomb-report/1"


def _emit(payload: dict, command: str, path) -> None:
    doc = {"schema": SCHEMA, "command": command, "payload": payload}
    text = canonical_json(doc) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _say(args, line) -> None:
    # one text line of a command: with --json -, stdout carries the JSON
    # document alone, so the text goes to stderr
    print(line, file=sys.stderr if args.json == "-" else sys.stdout)


def _load_sets(paths, want: int, what: str):
    if not paths or len(paths) > want:
        raise AddcombError(f"{what} takes between 1 and {want} --set arguments")
    sets = [read_set_file(p) for p in paths]
    while len(sets) < want:
        sets.append(sets[-1])  # repeat the last set, e.g. A -> (A, A, A)
    return sets


def _cmd_gen(args) -> tuple[dict, int]:
    # the flags are named after the config fields; from_json parses them
    given = {f.name: getattr(args, f.name) for f in fields(GeneratorConfig)
             if getattr(args, f.name) is not None}
    if "values" in given:
        given["values"] = [v.strip(" ") for v in given["values"].split(",")]
    cfg = GeneratorConfig.from_json(given)
    a = generate(cfg)
    elements = jsonable(a)
    if args.out:
        write_set_file(args.out, a, header=cfg.label())
    else:
        for line in elements:
            _say(args, line)
    print(f"{cfg.label()}: {len(a)} elements", file=sys.stderr)
    return {"config": cfg.to_json(), "size": len(a), "elements": elements}, 0


def _cmd_energy(args) -> tuple[dict, int]:
    from .energy import energy_op, rep_histogram
    A, B = _load_sets(args.set, 2, "energy")
    hist = rep_histogram(A, B, energy_op(args.k, args.flavor))
    val = hist.moment(args.k)
    _say(args, val)
    return {"k": args.k, "flavor": args.flavor, "value": val,
            "support": hist.support_size, "max_count": hist.max_count}, 0


def _cmd_triples(args) -> tuple[dict, int]:
    from .collinear import triple_count_report
    A1, A2, A3 = _load_sets(args.set, 3, "triples")
    rep = triple_count_report(A1, A2, A3, args.budget)
    _say(args, f"T={rep.T} T_o={rep.T_o} degenerate={rep.degenerate_terms}")
    return rep.to_json(), 0


def _cmd_ratios(args) -> tuple[dict, int]:
    from . import ratios
    A1, A2 = _load_sets(args.set, 2, "ratios")
    Z = ratios.popular_ratios(A1, A2, args.count, args.budget)
    prof = ratios.ratio_profile(Z, A1, A2)
    _say(args, f"|Z|={len(Z)} R={prof.R} sum_r={prof.sum_r}")
    return prof.to_json(), 0


def _cmd_incidence(args) -> tuple[dict, int]:
    from .incidence import line_moment_sums, read_arrangement, st_bound_check
    if args.arrangement:
        rep = st_bound_check(read_arrangement(args.arrangement))
        _say(args, f"incidences={rep.count} bound=[{rep.bound_lo},{rep.bound_hi}] "
                   f"ok={rep.ok}")
        return rep.to_json(), 0
    A1, A2, A3 = sorted(_load_sets(args.set, 3, "incidence"), key=len)
    rep = line_moment_sums(A1, A2, A3, args.p, args.family, args.budget)
    _say(args, f"p={rep.p} family={rep.family} sums={list(rep.sums)}")
    return rep.to_json(), 0


def _cmd_decompose(args) -> tuple[dict, int]:
    from . import decompose as dec
    (A,) = _load_sets(args.set, 1, "decompose")
    res = dec.bw_decompose(A, args.M) if args.mode == "bw" else dec.xy_decompose(A)
    sizes = {k: len(v) for k, v in res.parts.items()}
    _say(args, f"{res.kind}: parts={sizes} energies={res.energies} "
               f"ratio=[{res.target_ratio[0]},{res.target_ratio[1]}]")
    return res.to_json(), 0


def _cmd_regularize(args) -> tuple[dict, int]:
    from . import decompose as dec
    (A,) = _load_sets(args.set, 1, "regularize")
    tr = dec.regularize(A, args.k)
    _say(args, f"k={tr.k} eps={tr.epsilon} steps={len(tr.steps)} "
               f"|B|={len(tr.B)} |B'|={len(tr.B_prime)} |B''|={len(tr.B_dprime)}")
    return tr.to_json(), 0


def _cmd_verify(args) -> tuple[dict, int]:
    from . import harness
    corpus = read_corpus_file(args.corpus) if args.corpus else None
    names = list(harness.SUITE_NAMES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        res = harness.run_suite(name, corpus, budget=args.budget, seed=args.seed)
        results.append(res)
        n_exact = sum(1 for c in res.checks if c.kind == "EXACT")
        n_fail = sum(1 for c in res.checks if c.kind == "EXACT" and c.status == "fail")
        _say(args, f"suite {name}: {n_exact - n_fail}/{n_exact} exact checks passed, "
                   f"{len(res.checks) - n_exact} report-only")
        for c in res.checks:
            if c.status == "fail":
                _say(args, f"  FAIL {c.name}: {c.details}")
    all_ok = all(r.ok for r in results)
    _say(args, "VERIFY " + ("PASS" if all_ok else "FAIL"))
    return {"suites": [r.to_json() for r in results], "ok": all_ok}, 0 if all_ok else 2


def _cmd_report(args) -> tuple[dict, int]:
    from . import harness
    (A,) = _load_sets(args.set, 1, "report")
    rep = harness.shift_product_report(A, args.alpha, args.beta, args.budget)
    _say(args, f"K_mul={rep['K_mul']} |(A+a)(A+b)|={rep['shifted_product_size']} "
               f"identity={rep['identity']}")
    return rep, 0


def _int_flag(text: str) -> int:
    # an int flag reads by `parse_int`; argparse refuses the rest, exit 2
    try:
        return parse_int(text)
    except InvalidConfig as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="spctl",
        description="Exact sum-product experiments: energies, collinear "
                    "counts, incidence bounds, decompositions, verification.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, sets=True, budget=False):
        if sets:
            p.add_argument("--set", action="append", metavar="FILE",
                           help="set file (one rational per line); repeatable")
        p.add_argument("--json", metavar="OUT",
                       help="write canonical JSON report to OUT ('-' = stdout, "
                            "with the text lines on stderr)")
        # only the commands that charge their work take a budget
        if budget:
            p.add_argument("--budget", type=_int_flag, default=DEFAULT_BUDGET)

    p = sub.add_parser("gen", help="generate a set and write a set file")
    p.add_argument("--kind", required=True, choices=list(_KINDS))
    # one flag per config field, typed as the config reads it
    for f in fields(GeneratorConfig):
        if f.name != "kind":
            p.add_argument(f"--{f.name}", type=_int_flag if f.name in INT_FIELDS else None,
                           help="comma-separated rationals (Literal)"
                           if f.name == "values" else None)
    p.add_argument("--out", metavar="FILE", help="set file to write")
    common(p, sets=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("energy", help="E_k of one or two sets")
    common(p)
    p.add_argument("--k", type=_int_flag, default=2)
    p.add_argument("--flavor", choices=["additive", "multiplicative"],
                   default="additive")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("triples", help="collinear 6-tuple and ordered counts")
    common(p, budget=True)
    p.set_defaults(func=_cmd_triples)

    p = sub.add_parser("ratios", help="popular ratio profile r(z), R(Z)")
    common(p, budget=True)
    p.add_argument("--count", type=_int_flag, default=None,
                   help="how many popular ratios (default |A1|^2)")
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("incidence",
                       help="incidence bound check or line moment sums")
    common(p, budget=True)
    p.add_argument("--arrangement", metavar="FILE",
                   help="arrangement JSON (points + lines)")
    p.add_argument("--p", type=_int_flag, default=2, help="moment exponent (1..3)")
    p.add_argument("--family", choices=["triple", "pairs"], default="triple")
    p.set_defaults(func=_cmd_incidence)

    p = sub.add_parser("decompose", help="additive/multiplicative split of a set")
    common(p)
    p.add_argument("--mode", choices=["bw", "xy"], default="bw")
    p.add_argument("--M", default="auto",
                   help="energy guard threshold (rational or 'auto')")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("regularize", help="one-step popular-difference pruning and its core")
    common(p)
    p.add_argument("--k", type=_int_flag, default=3)
    p.set_defaults(func=_cmd_regularize)

    p = sub.add_parser("verify", help="run verification suites")
    common(p, sets=False, budget=True)
    p.add_argument("--seed", type=_int_flag, default=0,
                   help="recorded in the report's environment block; the suites pin their own")
    # run_suite is the one check of a suite name
    p.add_argument("--suite", default="all", help="a suite to run, or 'all' (the default)")
    p.add_argument("--corpus", metavar="FILE",
                   help="JSON list of generator configs (default built-in)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="shift-product report of one set")
    common(p, budget=True)
    p.add_argument("--alpha", default="1")
    p.add_argument("--beta", default="1")
    p.set_defaults(func=_cmd_report)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        if args.json:
            _emit(payload, args.command, args.json)
    except (AddcombError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
