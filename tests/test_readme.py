import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_example():
    """The fenced python block of the README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(library_use_example(), {})
    edges, violation, satisfiable, bg, index, agree = \
        out.getvalue().splitlines()
    assert int(edges) > 0
    # one reading per printer sense: a Violation, then a Satisfiable; a
    # frozenset's repr depends on the hash seed, so match prefixes only
    derivation = "(S (NP tom) (VP repaired (NP the printer)))"
    assert violation.startswith(f"{derivation} Violation(var=2, ")
    assert satisfiable.startswith(f"{derivation} Satisfiable(assignment=")
    # two readings before filtering, one survives, under either method
    assert bg.startswith("bg 2 1 [")
    assert index.startswith("index 2 1 [")
    assert agree == "True"
