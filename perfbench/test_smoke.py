"""Smoke test of the benchmark on tiny inputs: every metric of BENCHMARK.json
is printed with its unit, no operation fails, traced counters repeat, and the
benchmark refuses to run without the library sources.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=HERE.parent):
    res = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         cwd=cwd, capture_output=True, text=True, timeout=300)
    return res, res.stdout.splitlines()


def test_all_workloads_print_end_to_end_metrics_and_no_failures():
    res, lines = bench("--workload", "all", "--seed", "1", "--seconds", "0",
                       "--trace", "0", "--tiny")
    assert res.returncode == 0, res.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            got = result["metrics"][f"{w['name']}.{m['name']}"]
            assert got["unit"] == m["unit"] and got["value"] > 0
        summary = [ln for ln in lines if ln.strip().startswith(w["name"] + " ")]
        assert summary and "fail_frac 0 " in summary[-1] + " "
        assert all(f"{m['name']} " in summary[-1] for m in SPEC["end_to_end"])


def test_traced_run_prints_per_layer_metrics_and_repeats_counters():
    counters = []
    for _ in range(2):
        res, lines = bench("--workload", "energy-sweep", "--seed", "2", "--seconds", "0",
                           "--trace", "1", "--tiny")
        assert res.returncode == 0, res.stderr
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        assert {m: v["unit"] for m, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]}
        record = json.loads((HERE / "out" / "result-energy-sweep-seed2-trace1.json").read_text())
        assert record["untraced_targets"] == []
        counters.append(record["counters"])
    assert counters[0] == counters[1]
    assert counters[0]["energy.rep_histogram.calls"] > 0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-all",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert not res.stdout.strip()
