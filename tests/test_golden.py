"""Golden contract: CLI output on the corpus and the ladders, byte for byte.

Each file under tests/golden/ is a transcript of `selparse` runs: one
`$ selparse ...` line per run, then its exit code and standard output.
Regenerate the files, after a deliberate change of output, with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import io
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import LADDERS, ladder
from selparse.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _parse_runs(flag):
    return [["parse", "--method", method, flag, ladder(family, k)]
            for family in LADDERS
            for k in (1, 2, 3)
            for method in ("bg", "index", "both")]


TRANSCRIPTS = {
    "batch.txt": [["batch"]],
    "batch-json.txt": [["batch", "--json"]],
    "parse-json.txt": _parse_runs("--json"),
    "parse-explain.txt": _parse_runs("--explain"),
}


def transcript(runs):
    parts = []
    for argv in runs:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(list(argv))
        parts.append(f"$ selparse {shlex.join(argv)}\nexit: {code}\n"
                     f"{out.getvalue()}")
    return "".join(parts)


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / name).read_text()
    assert transcript(TRANSCRIPTS[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, runs in TRANSCRIPTS.items():
        (GOLDEN / name).write_text(transcript(runs))
