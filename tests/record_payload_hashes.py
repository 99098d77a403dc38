"""Re-record `tests/payload_hashes.json`, the payload table that
`test_cli.test_json_to_stdout` and `test_grid_payloads` check.

Runs every `test_cli.JSON_RUNS` form and then the `GRID_RUNS` grid with
`--json -` in a temporary folder that holds the inputs of the tests, and
writes the sha256 of each payload, keyed by the command line.  Run it
from the repository root only when a change means to alter a payload,
and say which ones in CHANGES.md:

    PYTHONPATH=src python tests/record_payload_hashes.py
"""

import json
import os
import sys
import tempfile
from pathlib import Path

from test_cli import GRID_RUNS, JSON_RUNS, PAYLOAD_HASHES, payload_hashes, write_inputs


def record() -> dict:
    """{command line: payload sha256} of every form, run in a fresh folder."""
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        try:
            write_inputs(Path(folder))
            hashes = payload_hashes([argv for argv, _, _ in JSON_RUNS] + GRID_RUNS)
        finally:
            os.chdir(start)
    return hashes


if __name__ == "__main__":
    PAYLOAD_HASHES.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {PAYLOAD_HASHES}", file=sys.stderr)
