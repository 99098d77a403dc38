"""Size sweep of the paper's workloads, written to BENCH_sweep.json.

Each cell is one call on one input (or on three), timed in fresh
processes: a child imports the library from the given source tree,
builds the input and runs a full garbage collection, so that no
collection left due by the imports lands in the timed call (one cost a
0.2 ms call 0.8 ms).  Then it times the call and reads the growth of its
peak RSS (ru_maxrss) across it.  A cell records the median, min and max
of the runs.  Every child runs under an address-space limit
(`ulimit -v`), so a runaway input fails its cell instead of the machine.

Several source trees are measured in one session, each a row: for every
cell the runs alternate between the trees, so a drift of the machine's
speed hits every row alike.  A row records the commit of its tree (with
"+dirty" when its sources differ from that commit), a sha256 of its
`src/addcomb/*.py`, and the host.

    python bench/sweep.py --tree parent=/path/to/old/checkout --tree change=.
    python bench/sweep.py --tree head=.

Rows are appended to the output file (default BENCH_sweep.json at the
repository root).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (16, 32, 64, 128)
WIDE_SIZES = (20, 30, 40)
REPEATS = 5  # fresh processes per cell and tree
ADDRESS_LIMIT = 2 << 30  # bytes, per child
TIMEOUT_S = 900

# input label -> the generator config expression, in addcomb.sets terms
FAMILIES = {
    "AP(1,1,{n})": "ap(1, 1, {n})",
    "GP(1,2,{n})": "gp(1, 2, {n})",
    "Random({n},{r},1)": "random_set({n}, {r}, 1)",
}
CALLS = {
    "energy_mul_product_form": "energy.energy_mul_product_form(A, A)",
    "popular_ratios+ratio_profile":
        "ratios.ratio_profile(ratios.popular_ratios(A, A), A, A)",
    "energy(k=3)": "energy.energy(A, A, 3)",
    "t_o_count(A,A,A)": "collinear.t_o_count(A, A, A)",
    "triple_count_report(A,A,A)": "collinear.triple_count_report(A, A, A)",
    "best_z": "decompose.best_z(A)",
    "bw_decompose": "decompose.bw_decompose(A)",
    "xy_decompose": "decompose.xy_decompose(A)",
    "regularize(k=3)": "decompose.regularize(A, 3)",
}

CHILD = """
import gc, importlib, json, resource, time
from fractions import Fraction
from addcomb.sets import ap, generate, gp, grid_example, random_set
energy = importlib.import_module("addcomb.energy")
ratios = importlib.import_module("addcomb.ratios")
collinear = importlib.import_module("addcomb.collinear")
decompose = importlib.import_module("addcomb.decompose")
incidence = importlib.import_module("addcomb.incidence")
# one input config, or several separated by commas
inputs = [generate(c) for c in ({config},)]
A = inputs[0]
gc.collect()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t = time.perf_counter()
{call}
s = time.perf_counter() - t
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({{"s": s, "rss_growth_kb": after - before}}))
"""


def cells() -> list:
    """(name, config expression, call expression) of every cell."""
    out = []
    for call, expr in CALLS.items():
        for label, config in FAMILIES.items():
            for n in SIZES:
                fmt = {"n": n, "r": 8 * n}
                if call.startswith("popular") and label.startswith("GP") and n > 32:
                    # C(n+1, 2) distinct sums: 4.3 million sum pairs at
                    # n = 64, 68 million at n = 128
                    continue
                out.append((f"{call} {label.format(**fmt)}", config.format(**fmt), expr))
    # the scaling of the quotient tally alone, without the profile
    out.append(("popular_ratios Random(128,1024,1)", "random_set(128, 1024, 1)",
                "ratios.popular_ratios(A, A)"))
    # wide rationals: the sums of GP(1, 1/10^6, n) are about 20n bits wide
    for n in WIDE_SIZES:
        out.append((f"popular_ratios GP(1,1/10^6,{n})",
                    f"gp(1, Fraction(1, 10**6), {n})", "ratios.popular_ratios(A, A)"))
    # a regularize band that leaves the zero difference: t = 512, |P| = 1024
    out.append(("regularize(k=2) AP(1,1,1200)", "ap(1, 1, 1200)", "decompose.regularize(A, 2)"))
    # difference tallies packed into one product, past the sizes above
    out.append(("energy(k=3) AP(1,1,2000)", "ap(1, 1, 2000)", "energy.energy(A, A, 3)"))
    out.append(("energy(k=3) Random(1000,8000,1)", "random_set(1000, 8000, 1)",
                "energy.energy(A, A, 3)"))
    # the triple family of line moments: the line census on equal grids,
    # and the cross-pair lines of one unequal triple, sorted by size
    for label, config in FAMILIES.items():
        for n in (8, 12, 16):
            fmt = {"n": n, "r": 8 * n}
            out.append((f'line_moment_sums(A,A,A,2,"triple") {label.format(**fmt)}',
                        config.format(**fmt), 'incidence.line_moment_sums(A, A, A, 2, "triple")'))
    out.append(('line_moment_sums(A1,A2,A3,2,"triple") AP(1,1,8) GridExample(2,4) '
                'Random(10,40,1)', "ap(1, 1, 8), grid_example(2, 4), random_set(10, 40, 1)",
                'incidence.line_moment_sums(*inputs, 2, "triple")'))
    return out


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


def run_once(tree: Path, config: str, call: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD.format(config=config, call=call)],
                          env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
                          preexec_fn=_limit)
    if proc.returncode:
        return {"error": (proc.stderr.strip().splitlines() or ["exit %d" % proc.returncode])[-1]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tree_identity(tree: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "addcomb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())

    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    if commit and git("status", "--porcelain", "--", "src"):
        commit += "+dirty"
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def host() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"node": platform.node(), "machine": platform.machine(), "cpu": model,
            "cpus": os.cpu_count(), "python": platform.python_version()}


def summarize(runs: list) -> dict:
    errors = [r["error"] for r in runs if "error" in r]
    if errors:
        return {"runs": len(runs), "error": errors[0]}
    secs = [r["s"] for r in runs]
    growth = [r["rss_growth_kb"] / 1024 for r in runs]
    return {"runs": len(runs), "median_s": statistics.median(secs), "min_s": min(secs),
            "max_s": max(secs), "rss_growth_mb": round(statistics.median(growth), 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=DIR",
                        help="a checkout to measure; repeat to interleave several")
    parser.add_argument("--out", default=str(ROOT / "BENCH_sweep.json"))
    args = parser.parse_args(argv)
    trees = []
    for spec in args.tree:
        label, _, path = spec.partition("=")
        trees.append((label, Path(path).resolve()))
    results = {label: {} for label, _ in trees}
    for name, config, call in cells():
        runs = {label: [] for label, _ in trees}
        for i in range(REPEATS):
            # alternate which tree goes first
            order = trees if i % 2 == 0 else trees[::-1]
            for label, tree in order:
                runs[label].append(run_once(tree, config, call))
        for label, _ in trees:
            results[label][name] = summarize(runs[label])
        print(name, "  ".join(f"{label} {results[label][name].get('median_s', 'error')}"
                              for label, _ in trees), file=sys.stderr, flush=True)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {
        "about": "bench/sweep.py: per-call seconds (median, min, max of fresh "
                 "processes) and peak-RSS growth in MB, one row per source tree",
        "rows": []}
    when = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    for label, tree in trees:
        doc["rows"].append({"label": label, **tree_identity(tree), "host": host(),
                            "date": when, "repeats": REPEATS,
                            "address_limit_bytes": ADDRESS_LIMIT,
                            "cells": results[label]})
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
