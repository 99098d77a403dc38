"""Record golden.json: the outputs of every workload operation at the
default seed, after each passes its cross-check.

    python3 perfbench/record_golden.py

Run it only when an output is meant to change; the benchmark counts any
operation whose output differs from the recorded one as failed.
"""

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

golden = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
for name in run.NAMES:
    ops = workloads.build(name, workloads.DEFAULT_SEED, False, str(run.OUT))
    _, outs = run.run_pass(ops)
    bad = run.failures(ops, outs, {})
    if bad:
        sys.exit("not recording, operations failed:\n" + "\n".join(bad))
    golden["workloads"][name] = {op.label: run.as_json(out) for op, out in zip(ops, outs)}
    print(f"{name}: {len(ops)} operations", file=sys.stderr)
run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
