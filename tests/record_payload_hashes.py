"""Re-record `tests/payload_hashes.json`, the payload table that
`test_cli.test_json_to_stdout` checks.

Runs every `test_cli.JSON_RUNS` form with `--json -` in a temporary
folder that holds the inputs of the test, and writes the sha256 of each
payload, keyed by the command line.  Run it from the repository root only
when a change means to alter a payload, and say which ones in CHANGES.md:

    PYTHONPATH=src python tests/record_payload_hashes.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from addcomb.cli import main
from test_cli import JSON_RUNS, PAYLOAD_HASHES, payload_sha256, write_inputs


def record() -> dict:
    """{command line: payload sha256} of every form, run in a fresh folder."""
    hashes = {}
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        try:
            write_inputs(Path(folder))
            for argv, _, _ in JSON_RUNS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    if main([*argv, "--json", "-"]) != 0:
                        raise SystemExit(f"{' '.join(argv)} failed")
                hashes[" ".join(argv)] = payload_sha256(json.loads(out.getvalue())["payload"])
        finally:
            os.chdir(start)
    return hashes


if __name__ == "__main__":
    PAYLOAD_HASHES.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {PAYLOAD_HASHES}", file=sys.stderr)
