"""addcomb benchmark: closed-loop passes over a workload's fixed operation
list, every output checked.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is verify-all, collinear-sweep, energy-sweep, or all (each workload in a
fresh process, one after another).  One client issues each operation when the
previous one returns; the process is single-threaded.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.

--trace 0 reports the end-to-end metrics: the median wall time of a pass
(pass_s), the peak RSS of the workload process (peak_rss_mb) and the median
time of several fresh processes to import addcomb and materialise the inputs
(setup_s).  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics of tracer.PER_LAYER, plus the tracing overhead.  Spans of
the last traced pass and a full result record go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
NAMES = ("verify-all", "collinear-sweep", "energy-sweep")

# A median needs three samples; a traced run needs two of each kind.
MIN_PASSES = 3
MIN_TRACED_PASSES = 4
PROBES = 5

END_TO_END = (("pass_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
TRACE_METRICS = (("trace.pass_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count"))


class OpFailure:
    def __init__(self, error: str):
        self.error = error


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs and one pass; for the smoke test")
    return p.parse_args(argv)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def run_pass(ops, call=lambda i, fn: fn()):
    """(wall seconds of the pass, outputs)"""
    outs = []
    t0 = perf_counter()
    for i, op in enumerate(ops):
        try:
            outs.append(call(i, op.run))
        except Exception as exc:  # an operation that raises counts as failed
            outs.append(OpFailure(f"{type(exc).__name__}: {exc}"))
    return perf_counter() - t0, outs


def as_json(out):
    return json.loads(json.dumps(out))


def failures(ops, outs, golden):
    """One line per failed operation: raised, failed its cross-check, or
    differs from the output recorded in the golden file."""
    bad = []
    for op, out in zip(ops, outs):
        if isinstance(out, OpFailure):
            bad.append(f"{op.label}: raised {out.error}")
        elif not op.check(out):
            bad.append(f"{op.label}: cross-check failed: {out}")
        elif op.label in golden and as_json(out) != golden[op.label]:
            bad.append(f"{op.label}: differs from golden: {out}")
    return bad


def probe_setup(args) -> float:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload,
           str(args.seed), "1" if args.tiny else "0"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
    return float(res.stdout.split()[-1])


def environment() -> dict:
    import addcomb

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"backend": addcomb.backend_name(), "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath")}


def measure(ops, golden, args):
    times, bad, attempted = [], [], 0
    min_passes = 1 if args.tiny else MIN_PASSES
    start = perf_counter()
    while len(times) < min_passes or perf_counter() - start < args.seconds:
        dt, outs = run_pass(ops)
        times.append(dt)
        attempted += len(ops)
        bad += failures(ops, outs, golden)
    q1, med, q3 = quartiles(times)
    metrics = {"pass_s": med,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    detail = {"pass_times_s": times, "pass_q1_s": q1, "pass_q3_s": q3}
    return metrics, detail, attempted, bad


def measure_traced(ops, golden, args, run_name):
    import tracer

    tr = tracer.Tracer()
    plain, traced, per_pass, counters, bad, attempted = [], [], [], [], [], 0
    origin = 0.0
    start = perf_counter()
    k = 0
    while k < MIN_TRACED_PASSES or perf_counter() - start < args.seconds:
        if k % 2:
            tr.reset()
            tr.install()
            try:
                origin = perf_counter()
                dt, outs = run_pass(ops, tr.run_op)
            finally:
                tr.uninstall()
            traced.append(dt)
            own, tot = tr.times()
            per_pass.append({m: f(own, tot, tr.counters) for m, _, _, f in tracer.PER_LAYER})
            counters.append(dict(tr.counters))
        else:
            dt, outs = run_pass(ops)
            plain.append(dt)
        attempted += len(ops)
        bad += failures(ops, outs, golden)
        k += 1
    if any(c != counters[0] for c in counters):
        bad.append("work counters differ between traced passes")
    spans_path = OUT / f"spans-{run_name}.csv"
    tr.write_spans(str(spans_path), origin)
    # counts repeat exactly (checked above); times are medians over traced passes
    metrics = {m: per_pass[-1][m] if unit == "count" else statistics.median(p[m] for p in per_pass)
               for m, unit, _, _ in tracer.PER_LAYER}
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["trace.spans"] = len(tr.spans)
    own, tot = tr.times()
    detail = {"traced_pass_times_s": traced, "untraced_pass_times_s": plain,
              "counters": counters[-1], "self_s_by_span": dict(sorted(own.items())),
              "total_s_by_span": dict(sorted(tot.items())), "spans_file": spans_path.name,
              "untraced_targets": tr.missing}
    return metrics, detail, attempted, bad


def run_one(args) -> int:
    # set-up is timed before this process imports the library
    setup = [] if args.trace else [probe_setup(args) for _ in range(PROBES)]
    sys.path.insert(0, str(SRC))
    import addcomb

    if Path(addcomb.__file__).resolve().parent != SRC / "addcomb":
        print(f"error: imported addcomb from {addcomb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    golden = json.loads(GOLDEN.read_text())["workloads"].get(args.workload, {})
    ops = workloads.build(args.workload, args.seed, args.tiny, str(OUT))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, detail, attempted, bad = measure_traced(ops, golden, args, name)
        units = {m: u for m, u, _, _ in tracer.PER_LAYER} | dict(TRACE_METRICS)
    else:
        metrics, detail, attempted, bad = measure(ops, golden, args)
        metrics["setup_s"] = statistics.median(setup)
        units = dict(END_TO_END)
    env = environment()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops/pass {len(ops)}")
    for key in ("backend", "python", "numpy", "mpmath"):
        print(f"  env.{key:<10} {env[key]}")
    for m in units:
        print(f"  {m:<40} {metrics[m]:>16.6g} {units[m]}")
    if not args.trace:
        print(f"  pass_s q1/median/q3 {detail['pass_q1_s']:.4f} / {metrics['pass_s']:.4f} / "
              f"{detail['pass_q3_s']:.4f} s over {len(detail['pass_times_s'])} passes")
        print(f"  setup_s median of {len(setup)} fresh processes: "
              + " ".join(f"{s:.4f}" for s in setup))
    print(f"  fail_frac {len(bad) / attempted:.6g} ({len(bad)}/{attempted} operations failed)")
    for line in bad[:10]:
        print(f"  FAILED {line}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "environment": env, "metrics": metrics, "units": units,
              "setup_probes_s": setup, "attempted": attempted, "failed": len(bad),
              "fail_frac": len(bad) / attempted, "failures": bad,
              "operations": [op.label for op in ops], **detail}
    (OUT / f"result-{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not bad, "attempted": attempted, "failed": len(bad),
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = res.stdout.splitlines()
        if res.returncode != 0 or not lines:
            print(f"error: workload {name} exited {res.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print("summary")
    for name, r in results.items():
        cells = [f"{m} {v['value']:.6g} {v['unit']}" for m, v in r["metrics"].items()]
        if not args.trace:
            cells.append(f"fail_frac {r['failed'] / r['attempted']:.6g}")
        print(f"  {name:<16} " + "  ".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "addcomb" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"error: needs the addcomb sources in {SRC} and {GOLDEN}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
