import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = [m["name"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def test_bench_self_check_passes():
    # the benchmark reaches these library names, so a rename of any of them
    # breaks it alone: cli.main and cli.run_method; sorts.load_hierarchy,
    # SortHierarchy.glb, .maximal_lower_bounds and .bcpo_violations;
    # grammar.load_declarations, .load_lexicon and .compile_entry;
    # parser.Chart with fill, readings() and edges_built; parser.combine,
    # whose third positional argument is the schema; selres.check_reading,
    # Satisfiable, Violation, extract_constraints and merge_pair;
    # tfs.unify_map and UnificationFailure; and a reading's identity
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "self-check: ok"


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")),
                         ids=lambda path: path.name)
def test_committed_bench_file_is_complete(path):
    # a timing counts only with its machine, interpreter, baseline and command
    bench = json.loads(path.read_text())
    for key in ("machine", "python", "parent", "command"):
        assert bench.get(key), f"{path.name} names no {key}"
    assert bench["end_to_end"], f"{path.name} reports no workload"
    for workload, metrics in bench["end_to_end"].items():
        for name in END_TO_END:
            for side in ("parent_median", "change_median"):
                value = metrics.get(name, {}).get(side)
                assert isinstance(value, (int, float)), \
                    f"{path.name}: {workload} {name} has no {side}"
