"""Golden contract: CLI output on the corpus and the ladders, byte for byte.

Each .txt file under tests/golden/ is a transcript of `selparse` runs: one
`$ selparse ...` line per run, then its exit code and standard output.
edge-signs.sha256 pins every chart edge, not only the readings: the edge
count and the SHA-256 of each edge's span, derivation and rendered sign over
the corpus and the ladders, under both methods.  Regenerate the files, after
a deliberate change of output, with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import io
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import CORPUS_SENTENCES, LADDERS, ladder
from selparse import load_resources
from selparse.cli import main
from selparse.grammar import METHODS, render_sign
from selparse.parser import Chart, tokenize

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
    # as line lists: pytest's diff of two long texts can take minutes, while
    # a list comparison names the first line that differs
    assert transcript(TRANSCRIPTS[name]).splitlines(keepends=True) \
        == expected.splitlines(keepends=True)


def edge_signs():
    """'<edge count> <SHA-256>' over every chart edge, cell by cell."""
    hierarchy, lexicon, decls = load_resources()
    sentences = [*CORPUS_SENTENCES,
                 *(ladder("attachment", k) for k in range(1, 6)),
                 *(ladder("sense", k) for k in (1, 2))]
    digest, count = hashlib.sha256(), 0
    for sentence in sentences:
        for method in METHODS:
            chart = Chart(tokenize(sentence), lexicon, decls, hierarchy, method)
            for span in sorted(chart.cells):
                for edge in chart.cells[span]:
                    record = (span, edge.derivation_string,
                              render_sign(edge))
                    digest.update(repr(record).encode() + b"\n")
                    count += 1
    return f"{count} {digest.hexdigest()}\n"


def test_every_edge_sign_matches_golden():
    assert edge_signs() == (GOLDEN / "edge-signs.sha256").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, runs in TRANSCRIPTS.items():
        (GOLDEN / name).write_text(transcript(runs))
    (GOLDEN / "edge-signs.sha256").write_text(edge_signs())
