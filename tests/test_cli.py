"""spctl command line behavior: files in, reports out, exit codes.

Each command returns its payload and `cli.main` writes it: a rule of the
one scanner (`source_rules.call_sites`) keeps `_emit` to that one call.

`payload_hashes.json` pins the bytes of every `JSON_RUNS` payload and of
the `GRID_RUNS` grid (gen and ten command forms on each of five sets): the
sha256 of its `canonical_json`, with each suite's `environment` block
fixed.  A change that alters a payload fails `test_json_to_stdout` or
`test_grid_payloads`, so one meant to alter a payload re-records the table
with `tests/record_payload_hashes.py`.
"""

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from addcomb.cli import build_parser, main
from addcomb.core import canonical_line, point
from addcomb.incidence import Arrangement, write_arrangement
from addcomb.sets import INT_FIELDS, GeneratorConfig, RatSet, canonical_json, read_set_file
from source_rules import call_sites, findings, nodes
from test_json_bytes import ENVIRONMENT

PAYLOAD_HASHES = Path(__file__).with_name("payload_hashes.json")


def run(argv):
    return main(argv)


def test_gen_writes_set_file(tmp_path):
    out = tmp_path / "ap.txt"
    assert run(["gen", "--kind", "AP", "--start", "1", "--step", "2",
                "--n", "5", "--out", str(out)]) == 0
    assert read_set_file(out) == RatSet([1, 3, 5, 7, 9])


def test_gen_literal_values(tmp_path):
    out = tmp_path / "lit.txt"
    assert run(["gen", "--kind", "Literal", "--values", "1/2,3,-5",
                "--out", str(out)]) == 0
    assert read_set_file(out) == RatSet(["1/2", 3, -5])


def test_energy_json_report(tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("1\n2\n3\n")
    rep = tmp_path / "e.json"
    assert run(["energy", "--set", str(s), "--k", "2",
                "--flavor", "additive", "--json", str(rep)]) == 0
    assert capsys.readouterr().out.strip() == "19"
    doc = json.loads(rep.read_text())
    assert doc["schema"] == "addcomb-report/1"
    assert doc["payload"]["value"] == 19


def test_triples_report(tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("0\n1\n2\n")
    assert run(["triples", "--set", str(s)]) == 0
    assert "T=273" in capsys.readouterr().out


def test_ratios_single_set_repeats(tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("1\n2\n")
    assert run(["ratios", "--set", str(s)]) == 0
    assert "R=" in capsys.readouterr().out


def test_ratios_count_below_one_is_an_error(tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("1\n2\n3\n5\n")
    assert run(["ratios", "--set", str(s), "--count", "-1"]) == 1
    assert "count must be >= 1" in capsys.readouterr().err


def test_ratios_budget_is_passed_through(tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("1\n2\n3\n5\n")  # 8 distinct nonzero sums: cost 64
    assert run(["ratios", "--set", str(s), "--budget", "64"]) == 0
    capsys.readouterr()
    assert run(["ratios", "--set", str(s), "--budget", "63"]) == 1
    assert "exceed budget 63" in capsys.readouterr().err


def test_energy_report_fields_and_bad_k(tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("1\n2\n4\n")
    assert run(["energy", "--set", str(s), "--k", "3",
                "--flavor", "multiplicative", "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    # ratios of {1,2,4}: 1 x3, 2 x2, 1/2 x2, 4, 1/4 -> E_3 = 27 + 8 + 8 + 1 + 1
    assert doc["payload"] == {"k": 3, "flavor": "multiplicative", "value": 45,
                              "support": 5, "max_count": 3}
    assert run(["energy", "--set", str(s), "--k", "9"]) == 1
    assert "k must be in [2, 8], got 9" in capsys.readouterr().err


def test_decompose_and_regularize(tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("\n".join(str(v) for v in range(1, 17)))
    assert run(["decompose", "--set", str(s), "--mode", "xy"]) == 0
    assert "xy:" in capsys.readouterr().out
    assert run(["regularize", "--set", str(s), "--k", "2"]) == 0
    assert "steps=" in capsys.readouterr().out


@pytest.mark.parametrize("bad", ["abc", "1/0"])
def test_decompose_bad_m_is_an_error_line(bad, tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("1\n2\n3\n")
    assert main(["decompose", "--set", str(s), "--M", bad]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: not a rational: {bad!r}"], err


def test_incidence_arrangement_file(tmp_path, capsys):
    arr = Arrangement.build([point(0, 0), point(1, 1)],
                            [canonical_line(1, -1, 0)])
    path = tmp_path / "arr.json"
    write_arrangement(path, arr)
    assert run(["incidence", "--arrangement", str(path)]) == 0
    assert "ok=True" in capsys.readouterr().out


def test_verify_oracle_suite_exit_zero(capsys):
    assert run(["verify", "--suite", "oracle"]) == 0
    assert "VERIFY PASS" in capsys.readouterr().out


def test_verify_custom_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([
        {"kind": "AP", "start": "1", "step": "1", "n": 8},
        {"kind": "GridExample", "s": 2, "p": 2},
    ]))
    assert run(["verify", "--suite", "regularization",
                "--corpus", str(corpus)]) == 0
    assert "VERIFY PASS" in capsys.readouterr().out


def test_verify_and_report_on_tiny_and_zero_row_sets(tmp_path, capsys):
    # a 1-element AP, a GP of ratio 1 (one element) and AP(1,1,2), whose
    # T_o is 0, once aborted the decomposition and reports suites
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([
        {"kind": "AP", "start": "1", "step": "1", "n": 1},
        {"kind": "GP", "start": "2", "ratio": "1", "n": 4},
        *({"kind": "AP", "start": "1", "step": "1", "n": n} for n in (2, 5, 8, 12)),
    ]))
    out = tmp_path / "out.json"
    assert run(["verify", "--suite", "all", "--corpus", str(corpus), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["command"] == "verify"
    # the reports suite runs through verify alone: report takes no corpus
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["report", "--corpus", str(corpus)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --corpus {corpus}" in capsys.readouterr().err


def test_report_shift_product(tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("1\n2\n4\n8\n")
    rep = tmp_path / "r.json"
    assert run(["report", "--set", str(s), "--alpha", "1", "--beta", "1",
                "--json", str(rep)]) == 0
    assert "K_mul=7/4" in capsys.readouterr().out
    assert json.loads(rep.read_text())["payload"]["shifted_product_size"] == 10


def test_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    missing.write_text("# empty\n")
    assert run(["energy", "--set", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def test_gen_random_range_above_two_to_64_is_an_error(tmp_path, capsys):
    # in-process: a range no 64-bit draw can cover once looped forever
    out = tmp_path / "r.txt"
    assert run(["gen", "--kind", "Random", "--size", "3",
                "--range", str(2**64 + 1), "--seed", "1", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
    assert run(["gen", "--kind", "Random", "--size", "3",
                "--range", str(2**64), "--seed", "1", "--out", str(out)]) == 0
    assert len(read_set_file(out)) == 3


# argv, payload keys and a piece of the text summary of each command
JSON_RUNS = [
    (["gen", "--kind", "AP", "--start", "1", "--step", "1", "--n", "5"],
     ["config", "elements", "size"], "AP(start=1,step=1,n=5): 5 elements"),
    (["energy", "--set", "a.txt", "--k", "3"],
     ["flavor", "k", "max_count", "support", "value"], "2080"),
    (["triples", "--set", "a.txt"], ["T", "T_o", "degenerate_terms", "ratio_vs_bound"], "T="),
    (["ratios", "--set", "a.txt", "--count", "3"],
     ["R", "Z", "lemma_ratio", "r", "sum_r", "theorem_ratio", "zero_sums"], "|Z|=3"),
    (["incidence", "--set", "a.txt", "--set", "b.txt"],
     ["family", "p", "ratios", "sums"], "family=triple"),
    (["incidence", "--set", "a.txt", "--set", "b.txt", "--family", "pairs", "--p", "3"],
     ["family", "p", "ratios", "sums"], "family=pairs"),
    (["incidence", "--arrangement", "arr.json"],
     ["bound_hi", "bound_lo", "count", "n_lines", "n_points", "ok"], "incidences=2"),
    (["decompose", "--set", "a.txt", "--mode", "bw"],
     ["certificates", "energies", "kind", "meta", "parts", "target_ratio"], "bw:"),
    (["decompose", "--set", "a.txt", "--mode", "xy"],
     ["certificates", "energies", "kind", "meta", "parts", "target_ratio"], "xy:"),
    (["regularize", "--set", "a.txt", "--k", "2"],
     ["B", "B_dprime", "B_prime", "epsilon", "final_P", "final_t", "k", "steps"], "k=2"),
    (["verify", "--suite", "oracle"], ["ok", "suites"], "VERIFY PASS"),
    (["verify", "--suite", "all"], ["ok", "suites"], "VERIFY PASS"),
    (["report", "--set", "a.txt", "--alpha", "1/2", "--beta", "3"],
     ["K_div", "K_mul", "identity", "ratio_vs_Kmul3", "ratio_vs_Kmul5",
      "shifted_product_size", "triple_sum_size"], "K_mul="),
]


# the five sets of the grid, each written by `gen --out` and read back by
# every form of GRID_FORMS, so the grid pins the set-file reader too
GRID_SETS = {
    "ap.txt": ["--kind", "AP", "--start", "1", "--step", "2", "--n", "16"],
    "random.txt": ["--kind", "Random", "--size", "20", "--range", "100", "--seed", "3"],
    "grid.txt": ["--kind", "GridExample", "--s", "3", "--p", "4"],
    "gp.txt": ["--kind", "GP", "--start", "2/3", "--ratio", "3/2", "--n", "12"],
    "literal.txt": ["--kind", "Literal", "--values=-7,-3,-1/2,1,5/3,4,9"],
}
# report's budget skips the brute 6-tuple identity on GridExample(3,4),
# about 26 s; the report of JSON_RUNS runs it
GRID_FORMS = [
    ["energy", "--k", "3"],
    ["energy", "--flavor", "multiplicative"],
    ["triples"],
    ["ratios"],
    ["incidence"],
    ["incidence", "--family", "pairs"],
    ["decompose", "--mode", "bw"],
    ["decompose", "--mode", "xy"],
    ["regularize", "--k", "2"],
    ["report", "--budget", "1000000"],
]
GRID_RUNS = [["gen", *flags, "--out", name] for name, flags in GRID_SETS.items()] + [
    [command, "--set", name, *rest] for name in GRID_SETS for command, *rest in GRID_FORMS]


def write_inputs(folder: Path) -> None:
    """The a.txt, b.txt and arr.json that `JSON_RUNS` read."""
    (folder / "a.txt").write_text("\n".join(map(str, range(1, 9))) + "\n")
    (folder / "b.txt").write_text("2\n4\n6\n12\n")
    write_arrangement(folder / "arr.json", Arrangement.build(
        [point(0, 0), point(1, 1), point(1, 0)], [canonical_line(1, -1, 0)]))


def payload_sha256(payload: dict) -> str:
    """sha256 of `canonical_json(payload)`, each suite's environment block
    replaced by the fixed one of `test_json_bytes`."""
    if "suites" in payload:
        payload = {**payload, "suites": [{**s, "environment": ENVIRONMENT}
                                         for s in payload["suites"]]}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def payload_hashes(runs) -> dict:
    """{command line: `payload_sha256`} of each argv of runs, run in order
    with `--json -` in the current folder; a run that fails raises."""
    hashes = {}
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if main([*argv, "--json", "-"]) != 0:
                raise RuntimeError(f"{' '.join(argv)} failed")
        hashes[" ".join(argv)] = payload_sha256(json.loads(out.getvalue())["payload"])
    return hashes


def test_json_to_stdout(tmp_path, capsys, monkeypatch):
    # with --json - stdout is exactly one JSON document; the text is on stderr
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    hashes = {}
    for argv, keys, text in JSON_RUNS:
        assert run([*argv, "--json", "-"]) == 0, argv
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert sorted(doc) == ["command", "payload", "schema"]
        assert doc["command"] == argv[0]
        assert sorted(doc["payload"]) == keys, argv
        assert text in captured.err, argv
        hashes[" ".join(argv)] = payload_sha256(doc["payload"])
    table = json.loads(PAYLOAD_HASHES.read_text())
    assert hashes == {key: table[key] for key in hashes}


def test_grid_payloads(tmp_path, monkeypatch):
    # gen and ten command forms on each of the five sets; the table holds
    # these rows and those of JSON_RUNS, and no other
    monkeypatch.chdir(tmp_path)
    hashes = payload_hashes(GRID_RUNS)
    assert len(hashes) == 5 * 11
    table = json.loads(PAYLOAD_HASHES.read_text())
    assert set(table) == set(hashes) | {" ".join(argv) for argv, _, _ in JSON_RUNS}
    assert hashes == {key: table[key] for key in hashes}


MALFORMED = {
    "set file with a non-rational line": (["energy", "--set", "bad.txt"],
                                          "bad.txt", "1\nabc\n"),
    "set file that is not UTF-8": (["energy", "--set", "bad.txt"], "bad.txt", b"\xff1\n"),
    "corpus entry without kind": (["verify", "--suite", "oracle", "--corpus", "c.json"],
                                  "c.json", '[{"n": 3}]'),
    "corpus entry that is a string": (["verify", "--suite", "oracle", "--corpus", "c.json"],
                                      "c.json", '["AP"]'),
    "corpus file that is not JSON": (["verify", "--suite", "oracle", "--corpus", "c.json"],
                                     "c.json", "[{"),
    "arrangement point without y": (["incidence", "--arrangement", "a.json"],
                                    "a.json", '{"points": [["1"]], "lines": []}'),
    "arrangement file that is not JSON": (["incidence", "--arrangement", "a.json"],
                                          "a.json", "{"),
    "gen --start that is not a rational": (["gen", "--kind", "AP", "--start", "x",
                                            "--step", "1", "--n", "3"], None, None),
    "gen --values with a non-rational entry": (["gen", "--kind", "Literal",
                                                "--values", "1,x"], None, None),
    "missing --set file": (["energy", "--set", "missing.txt"], None, None),
    "report without --set": (["report"], None, None),
    "gen with a flag its kind never reads": (["gen", "--kind", "AP", "--start", "1",
                                              "--step", "1", "--n", "3", "--seed", "9"],
                                             None, None),
    # 1/10^(6*799) has a 4795-digit denominator, past the int-to-str limit
    "gen of an element too wide to write": (["gen", "--kind", "GP", "--start", "1",
                                             "--ratio", "1/1000000", "--n", "800",
                                             "--out", "gp.txt"], None, None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_an_error_line(case, tmp_path, monkeypatch, capsys):
    argv, name, text = MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    if name:
        data = text if isinstance(text, bytes) else text.encode()
        (tmp_path / name).write_bytes(data)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err


# an int past Python's int-to-str limit of 4300 digits, in either input file
WIDE_INPUT = {
    "set file line": (["energy", "--set", "wide.txt"], "wide.txt",
                      "1\n2\n1/" + "7" * 4400 + "\n", "set file wide.txt line 3: "),
    "corpus file int": (["verify", "--suite", "oracle", "--corpus", "wide.json"], "wide.json",
                        '[{"kind": "AP", "start": ' + "7" * 5001 + ', "step": 1, "n": 3}]',
                        "corpus file wide.json "),
}


@pytest.mark.parametrize("case", sorted(WIDE_INPUT))
def test_input_past_the_digit_limit_names_the_limit(case, tmp_path, monkeypatch, capsys):
    argv, name, text, where = WIDE_INPUT[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}") and err.count("\n") == 1, err
    assert "more than 4300 digits, too many to read as text" in err, err
    assert "7777" not in err
    assert sys.get_int_max_str_digits() == 4300


@pytest.mark.parametrize("suite", ["oracle", "incidence", "all"])
@pytest.mark.parametrize("text, message", [
    ('[{"kind": ["AP"], "n": 3}]', "unknown generator kind ['AP']"),
    ('[{"kind": "Foo"}, {"kind": "AP", "n": 0}]', "unknown generator kind 'Foo'"),
    ('[{"kind": "AP", "start": 1, "step": 1, "n": 0}]', "AP needs start, step, n >= 1"),
], ids=["kind-list", "kind-unknown", "AP-n-zero"])
def test_bad_corpus_entry_is_one_error_line_in_every_suite(suite, text, message, tmp_path,
                                                           capsys):
    # every entry is judged when the file is read, so the suites that
    # never generate the corpus refuse it too
    path = tmp_path / "c.json"
    path.write_text(text)
    assert run(["verify", "--suite", suite, "--corpus", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_suite_lists_the_suites(capsys):
    # harness.run_suite is the one check of a suite name: one error line
    assert run(["verify", "--suite", "nope"]) == 1
    assert capsys.readouterr().err == (
        "error: unknown suite 'nope'; options: "
        "exact, oracle, incidence, decomposition, regularization, reports\n")


def test_gen_flags_are_the_config_fields():
    # one value flag per GeneratorConfig field but kind, an int where the
    # config takes an int
    for f in fields(GeneratorConfig):
        if f.name != "kind":
            args = build_parser().parse_args(["gen", "--kind", "AP", f"--{f.name}", "7"])
            assert getattr(args, f.name) == (7 if f.name in INT_FIELDS else "7"), f.name
    assert build_parser().parse_args(["gen", "--kind", "Literal"]).kind == "Literal"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["gen", "--kind", "Cube"])


def test_seed_only_on_verify_and_report(tmp_path, capsys):
    # verify records the seed in its environment block; report, the
    # shift-product report, has no suite to record it in
    s = tmp_path / "s.txt"
    s.write_text("1\n2\n")
    for command in ("energy", "report"):
        with pytest.raises(SystemExit) as exc:
            run([command, "--seed", "1", "--set", str(s)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert build_parser().parse_args(["verify", "--seed", "4"]).seed == 4


def test_budget_only_on_the_commands_that_charge(tmp_path, capsys):
    s = tmp_path / "s.txt"
    s.write_text("1\n2\n")
    for command in ("energy", "decompose", "regularize"):
        with pytest.raises(SystemExit) as exc:
            run([command, "--set", str(s), "--budget", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget 5" in capsys.readouterr().err
    for command in ("triples", "ratios", "incidence", "verify", "report"):
        assert build_parser().parse_args([command, "--budget", "5"]).budget == 5


def test_call_site_scanner_finds_every_form_of_the_call():
    src = (
        "from . import cli\n"
        "def _emit(payload, command, path):\n"
        "    return path\n"
        "def main(args):\n"
        "    _emit({}, 'gen', args.json)\n"
        "def _cmd_gen(args):\n"
        "    def inner():\n"
        "        cli._emit({}, 'gen', '-')\n"
        "    return [_emit(p, 'gen', '-') for p in args]\n"
        "_emit({}, 'verify', '-')\n"
    )
    assert call_sites(nodes(src), "_emit") == ["main", "inner", "_cmd_gen", None]


def test_only_main_emits():
    assert findings(lambda walk: call_sites(walk, "_emit")) == {"src/addcomb/cli.py": ["main"]}
