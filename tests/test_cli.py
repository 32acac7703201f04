import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selparse
from conftest import ladder
from selparse import data, grammar
from selparse.cli import main
from selparse.parser import Chart, Edge

NON_BCPO = """\
top
a: top
b: top
c: a, b
d: a, b
"""

# line 6 of the bundled lexicon is `ate`: widen its object past `edible`
OVERRIDE_LEXICON = data.LEXICON.read_text().replace(
    "ate | verb | eat | trans\n", "ate | verb | eat | trans, eaten=keybd\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def extended(tmp_path, resource, extra):
    """A copy of the bundled `resource` file with `extra` appended."""
    path = tmp_path / resource.name
    path.write_text(resource.read_text() + extra)
    return path


# x and y are both maximal lower bounds of animate and banana
TIE = "x: person, banana\ny: person, banana\n"


def test_parse_both_methods_keyboard(capsys):
    code, out, _ = run(capsys, "parse", "--method", "both",
                       "Tom ate a keyboard.")
    assert code == 0
    assert "method=bg pre_filter=1 post_filter=0" in out
    assert "violation: var=2 sorts=keybd,edible from=keyboard,ate" in out
    assert "method=index pre_filter=1 post_filter=0" in out
    assert "agreement: yes" in out


def test_parse_index_printer_sense(capsys):
    code, out, _ = run(capsys, "parse", "--method", "index",
                       "tom repaired the printer")
    assert code == 0
    assert "pre_filter=2 post_filter=1" in out
    assert "printer=printer_peripheral" in out


def test_parse_index_relative_clause(capsys):
    code, out, _ = run(capsys, "parse", "--method", "index",
                       "list the employees of the departments that retire")
    assert code == 0
    assert "pre_filter=2 post_filter=1" in out
    assert "(NP (NP (NP the employees) (PP of (NP the departments)))" \
           " (RelC that (VP retire))" in out


def test_parse_unknown_token_exits_nonzero(capsys):
    code, _, err = run(capsys, "parse", "tom ate a gizmo")
    assert code == 1
    assert "gizmo" in err


def test_parse_empty_sentence_is_input_error(capsys):
    assert run(capsys, "parse", "...") == (1, "", "error: empty sentence\n")


def test_rejection_is_not_an_error(capsys):
    code, out, _ = run(capsys, "parse", "--method", "index",
                       "tom ate a keyboard")
    assert code == 0
    assert "post_filter=0" in out


def test_parse_json_record(capsys):
    code, out, _ = run(capsys, "parse", "--json", "--method", "both",
                       "tom ate a keyboard")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["sentence"] == "tom ate a keyboard"
    assert record["method"] == "both"
    assert record["pre_filter"] == 1
    assert record["post_filter"] == 0
    assert record["readings"] == []
    assert record["violations"][0]["message"].startswith("violation: var=2")
    assert record["agree"] is True


def test_parse_json_single_method(capsys):
    code, out, _ = run(capsys, "parse", "--json", "--method", "index",
                       "tom ate a banana")
    record = json.loads(out)
    assert set(record) == {"sentence", "method", "pre_filter", "post_filter",
                           "readings", "violations"}
    assert record["readings"][0]["assignment"] == {"1": "man", "2": "banana"}


@pytest.mark.parametrize("method, extra, sentence, counts, assignment", [
    # the keyboard is reached only by the embedded verb, the departments
    # only by a preposition: both are still variables of the reading
    ("index", "", "the printer that repaired the keyboard called",
     (2, 1, None), {"1": "printer_person", "2": "keybd"}),
    ("index", "", "list the employees of the departments that retire",
     (2, 1, None), {"1": "employee", "2": "department"}),
    # two relative clauses on one noun phrase of the root sort: the
    # variable's sort is its binds' meet, not the noun's own sort ref
    ("index", "thing | noun | ref\n",
     "the thing that retire that ate a banana retire",
     (1, 1, None), {"1": "person", "2": "banana"}),
    # the relative clause's verb and the main verb each put person(inst) on
    # one variable: the reading is kept
    ("both", "", "the employees that retire retire",
     (1, 1, True), {"1": "employee"}),
], ids=["relc", "pp", "thing", "retire"])
def test_index_assignment_covers_every_variable(capsys, tmp_path, method,
                                                extra, sentence, counts,
                                                assignment):
    lexicon = extended(tmp_path, data.LEXICON, extra)
    code, out, _ = run(capsys, "parse", "--method", method, "--json",
                       "--lexicon", str(lexicon), sentence)
    assert code == 0
    record = json.loads(out)
    assert (record["pre_filter"], record["post_filter"],
            record.get("agree")) == counts     # only "both" compares
    (reading,) = record["readings"]
    assert reading["assignment"] == assignment


def test_batch_reports_methods_that_disagree_on_assignments(capsys,
                                                            monkeypatch):
    # same readings, but the index method assigns no sorts
    monkeypatch.setattr(Edge, "sorts", property(lambda edge: {}))
    code, out, _ = run(capsys, "batch")
    assert code == 2
    assert "PASS  tom ate a keyboard" in out    # no survivor: nothing differs
    assert "FAIL  tom ate a banana  expected=accept(1) got bg=1/1 index=1/1  " \
        "[methods disagree]" in out


def test_parse_explain_renders_sign(capsys):
    code, out, _ = run(capsys, "parse", "--method", "bg", "--explain",
                       "tom ate a banana")
    assert code == 0
    assert "cont|nuc: eat(eater: #1:ref, eaten: #2:ref)" in out
    assert "cx|bg:" in out


def test_parse_explain_renders_a_proper_nouns_name_atom(capsys):
    # no golden transcript has a proper noun: pin its naming instance, whose
    # name filler is an atom and prints as it is
    code, out, _ = run(capsys, "parse", "--method", "both", "--explain",
                       "tom ate a banana")
    assert code == 0
    bg, index = (part.splitlines() for part in out.split("method=index"))
    assert "    cx|bg: { naming(brer: #1:ref, name: Tom), man(inst: #1:ref), " \
        "animate(inst: #1:ref), edible(inst: #2:ref) }" in bg
    assert "    cont|nuc: eat(eater: #1:man, eaten: #2:banana)" in index
    assert "    cx|bg: { naming(brer: #1:man, name: Tom) }" in index
    # the package exports the instance record these lines print
    from selparse import Relation
    assert Relation is grammar.Relation


def test_batch_bundled_corpus(capsys):
    code, out, _ = run(capsys, "batch")
    assert code == 0
    assert "8/8 sentences as expected" in out
    assert "FAIL" not in out


def test_batch_json_records(capsys, tmp_path):
    code, out, _ = run(capsys, "batch", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert len(records) == 8
    assert all(r["status"] == "PASS" for r in records)
    assert all(r["agree"] for r in records)
    # a loaded lexicon keeps each position's compiled sign for later
    # sentences: the bundled corpus twice over repeats its records, under
    # the index method alone too, which no golden runs
    twice = extended(tmp_path, data.CORPUS, data.CORPUS.read_text())
    code, both, _ = run(capsys, "batch", "--json", str(twice))
    assert (code, both) == (0, out * 2)
    code, index, _ = run(capsys, "batch", "--method", "index", "--json",
                         str(twice))
    assert code == 0
    lines = index.splitlines()
    assert len(lines) == 16 and lines[:8] == lines[8:]
    # each index record keeps the counts and readings of the both record
    keys = ("sentence", "pre_filter", "post_filter", "readings")
    assert [[json.loads(line)[k] for k in keys] for line in lines] \
        == [[json.loads(line)[k] for k in keys] for line in both.splitlines()]


@pytest.mark.parametrize("method, sentence, counts, derivations", [
    # attachment rung k = 7, which no golden covers: alone, the index
    # method counts the bg chart's 1,430 readings without building it
    ("index", ladder("attachment", 7), (1430, 429, None), None),
    ("both", ladder("attachment", 7), (1430, 429, True), None),
    # 1,200 stacked adjectives nest deeper than Python's default recursion
    # limit: the derivation is built without recursion
    ("both", "list the " + "overseas " * 1200 + "departments", (1, 1, True),
     ["(S list (NP the " + "overseas " * 1200 + "departments))"]),
], ids=["attachment-7-index", "attachment-7-both", "adjectives-1200-both"])
def test_parse_json_record_on_a_large_input(capsys, method, sentence, counts,
                                            derivations):
    code, out, err = run(capsys, "parse", "--method", method, "--json",
                         sentence)
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert (record["pre_filter"], record["post_filter"],
            record.get("agree")) == counts     # only "both" compares
    if derivations is not None:
        assert [r["derivation"] for r in record["readings"]] == derivations


def test_a_closed_output_pipe_ends_the_batch_quietly(tmp_path):
    # 300 copies of the corpus print far more than a pipe holds, so the
    # batch is still writing when its reader leaves after 10 bytes
    corpus = tmp_path / "big.corpus"
    corpus.write_text(data.CORPUS.read_text() * 300)
    src = str(Path(selparse.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    with subprocess.Popen(
            [sys.executable, "-m", "selparse.cli", "batch", "--json",
             str(corpus)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141    # 128 + SIGPIPE
    assert err == b""


def test_batch_empty_corpus(capsys, tmp_path):
    corpus = tmp_path / "empty.corpus"
    corpus.write_text("# nothing\n")
    code, out, _ = run(capsys, "batch", str(corpus))
    assert code == 0
    assert "0/0 sentences as expected" in out


def test_batch_wrong_expectation_fails(capsys, tmp_path):
    corpus = tmp_path / "wrong.corpus"
    corpus.write_text("tom ate a banana => reject\n")
    code, out, _ = run(capsys, "batch", str(corpus))
    assert code == 2
    assert out.count("FAIL") == 1


def test_batch_fills_two_charts_per_sentence(capsys, monkeypatch):
    # one bg chart (also the unfiltered baseline) and one index chart
    fills = []
    original = Chart.fill

    def counting_fill(chart):
        fills.append(chart.method)
        return original(chart)

    monkeypatch.setattr(Chart, "fill", counting_fill)
    code, out, _ = run(capsys, "batch")
    assert code == 0
    assert "8/8 sentences as expected" in out
    assert sorted(fills) == ["bg"] * 8 + ["index"] * 8


def test_batch_empty_sentence_is_input_error(capsys, tmp_path):
    corpus = tmp_path / "dots.corpus"
    corpus.write_text("tom ate a banana => accept\n... => accept\n")
    code, out, err = run(capsys, "batch", str(corpus))
    assert code == 1
    assert out == ""
    assert err == "error: corpus line 2: empty sentence\n"


def test_batch_wrong_reading_count_fails(capsys, tmp_path):
    corpus = tmp_path / "count.corpus"
    corpus.write_text("tom ate a banana => accept, readings=2\n")
    code, out, err = run(capsys, "batch", str(corpus))
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "FAIL  tom ate a banana  expected=accept(2) got bg=1/1 index=1/1  "
        "[bg: readings=1; index: readings=1]",
        "0/1 sentences as expected",
    ]


def test_batch_malformed_line(capsys, tmp_path):
    corpus = tmp_path / "bad.corpus"
    corpus.write_text("tom ate a banana\n")
    code, _, err = run(capsys, "batch", str(corpus))
    assert code == 1
    assert "corpus line 1" in err


@pytest.mark.parametrize("line, message", [
    ("reject, readings=2", "a reject line takes no readings"),
    ("accept, readings=0", "readings must be at least 1"),
    ("accept, readings=5, readings=1", "duplicate annotation 'readings'"),
    ("accept, readings=\u00b2", "bad annotation 'readings=\u00b2'"),
    ("maybe", "expected accept or reject, got 'maybe'"),
], ids=["reject", "zero", "duplicate", "superscript", "verdict"])
def test_batch_uncheckable_annotation_is_input_error(capsys, tmp_path, line,
                                                     message):
    corpus = tmp_path / "bad.corpus"
    corpus.write_text("tom ate a banana => accept\n"
                      f"tom ate a banana => {line}\n", encoding="utf-8")
    code, out, err = run(capsys, "batch", str(corpus))
    assert (code, out) == (1, "")
    assert err == f"error: corpus line 2: {message}\n"


def test_validate_bundled(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "17 sorts" in out
    assert "bcpo: ok" in out
    assert "6 qfpsoas" in out
    assert "20 entries for 19 words" in out


@pytest.mark.parametrize("text, line", [
    (NON_BCPO, "bcpo: violation (a, b) share {c, d}"),
    # the bundled hierarchy plus a second meet of man and technician
    (data.HIERARCHY.read_text() + "cyborg: man, technician\n",
     "bcpo: violation (man, technician) share {cyborg, male_tech}"),
], ids=["small", "cyborg"])
def test_validate_non_bcpo_names_pair(capsys, tmp_path, text, line):
    bad = tmp_path / "bad.sorts"
    bad.write_text(text)
    code, out, _ = run(capsys, "validate", "--hierarchy", str(bad))
    assert code == 1
    assert line in out.splitlines()


@pytest.mark.parametrize("method, agree", [("index", None), ("both", True)],
                         ids=["index", "both"])
def test_parse_non_bcpo_meet_is_its_completion(capsys, tmp_path, method,
                                               agree):
    tie = extended(tmp_path, data.HIERARCHY, TIE)
    code, out, err = run(capsys, "parse", "--method", method, "--json",
                         "--hierarchy", str(tie), "a banana ate a banana")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert [r["assignment"] for r in record["readings"]] \
        == [{"1": "{x|y}", "2": "banana"}]
    assert record.get("agree") is agree     # only "both" compares
    # the index sign prints the completion as the variable's sort
    code, out, err = run(capsys, "parse", "--method", method, "--explain",
                         "--hierarchy", str(tie), "a banana ate a banana")
    assert (code, err) == (0, "")
    assert "    cont|nuc: eat(eater: #1:{x|y}, eaten: #2:banana)" \
        in out.splitlines()


def test_parse_bg_completes_a_non_bcpo_meet(capsys, tmp_path):
    # the solver folds animate ^ banana to the completion {x|y}
    tie = extended(tmp_path, data.HIERARCHY, TIE)
    code, out, err = run(capsys, "parse", "--method", "bg", "--json",
                         "--hierarchy", str(tie), "a banana ate a banana")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert [r["assignment"] for r in record["readings"]] \
        == [{"1": "{x|y}", "2": "banana"}]


@pytest.mark.parametrize("argv, stage", [
    pytest.param(["parse", "--hierarchy", "BAD", "tom ate"], None, id="parse"),
    pytest.param(["batch", "BAD"], None, id="batch"),
    pytest.param(["validate", "--hierarchy", "BAD"], "hierarchy: ERROR",
                 id="validate-hierarchy"),
    pytest.param(["validate", "--lexicon", "BAD"], "resources: ERROR",
                 id="validate-lexicon"),
])
def test_non_utf8_input_is_input_error(capsys, tmp_path, argv, stage):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ref\n\xff\n")
    code, out, err = run(capsys, *(str(bad) if a == "BAD" else a
                                   for a in argv))
    assert code == 1
    if stage is None:
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
    else:
        assert out.splitlines()[-1].startswith(stage)
        assert err == ""
    assert "can't decode byte 0xff" in out + err
    assert f"{bad}: " in out + err


@pytest.mark.parametrize("option, text, message", [
    pytest.param("--hierarchy", "ref\nx: nope\n",
                 "line 2: sort 'x' names undeclared parent 'nope'",
                 id="hierarchy"),
    # w hangs below the z-y cycle; the error names a sort on it
    pytest.param("--hierarchy", "ref\nq: ref\nw: z\nz: y\ny: z\n",
                 "line 4: cycle detected through sort 'z'", id="cycle"),
    pytest.param("--decls", "eat(eater: nothing)\n",
                 "line 1: unknown restriction sort 'nothing'", id="decls"),
    pytest.param("--lexicon", "tom | bogus\n",
                 "line 1: unknown part of speech 'bogus'", id="lexicon"),
    pytest.param("--lexicon", OVERRIDE_LEXICON,
                 "line 6: 'ate': override eaten=keybd is not subsumed by the "
                 "declared restriction 'edible'", id="override"),
    pytest.param("--lexicon", "tom | proper-noun | man | name=man\n",
                 "line 1: name atom 'man' is a declared sort", id="name-atom"),
])
@pytest.mark.parametrize("command", ["parse", "validate"])
def test_resource_error_names_its_file(capsys, tmp_path, command, option, text,
                                       message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    sentence = ["tom ate a banana"] if command == "parse" else []
    code, out, err = run(capsys, command, option, str(bad), *sentence)
    assert code == 1
    if command == "parse":
        assert (out, err) == ("", f"error: {bad}: {message}\n")
    else:
        stage = "hierarchy" if option == "--hierarchy" else "resources"
        assert out.splitlines()[-1] == f"{stage}: ERROR {bad}: {message}"
        assert err == ""


# sense=banana could narrow the sense role or name the entry's sense
SENSE_DECLS = data.DECLS.read_text() + "sense_of(senser: animate, sense: ref)\n"
SENSE_LEXICON = (data.LEXICON.read_text()
                 + "smelt | verb | sense_of | trans, sense=banana\n")


@pytest.mark.parametrize("command", ["parse", "validate"])
def test_verb_extra_named_after_a_role_is_ambiguous(capsys, tmp_path, command):
    decls, lexicon = tmp_path / "sense.psoa", tmp_path / "sense.lex"
    decls.write_text(SENSE_DECLS)
    lexicon.write_text(SENSE_LEXICON)
    message = (f"{lexicon}: line {SENSE_LEXICON.count(chr(10))}: extra 'sense' "
               "is ambiguous: 'sense_of' has a role named 'sense'")
    sentence = ["tom smelt a keyboard"] if command == "parse" else []
    code, out, err = run(capsys, command, "--decls", str(decls), "--lexicon",
                         str(lexicon), *sentence)
    assert code == 1
    if command == "parse":
        assert (out, err) == ("", f"error: {message}\n")
    else:
        assert out.splitlines()[-1] == f"resources: ERROR {message}"
        assert err == ""


@pytest.mark.parametrize("argv", [
    ["validate", "--json"],
    ["validate", "--method", "index"],
    ["batch", "--explain"],
    ["parse", "--bogus", "x"],
    # --explain renders nothing into a JSON record
    ["parse", "--json", "--explain", "tom ate a banana"],
    ["parse", "--explain", "--json", "tom ate a banana"],
], ids=" ".join)
def test_option_the_subcommand_does_not_take_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    captured = capsys.readouterr()
    assert stop.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_validate_missing_lexicon(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "--lexicon",
                       str(tmp_path / "missing.lex"))
    assert code == 1
    assert "ERROR" in out


def test_missing_hierarchy_path(capsys, tmp_path):
    code, _, err = run(capsys, "parse", "--hierarchy",
                       str(tmp_path / "missing.sorts"), "tom ate a banana")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("option, path", [
    pytest.param("--hierarchy", data.HIERARCHY, id="hierarchy"),
    pytest.param("--decls", data.DECLS, id="decls"),
    pytest.param("--lexicon", data.LEXICON, id="lexicon"),
    pytest.param(None, data.CORPUS, id="corpus"),
])
def test_a_byte_order_mark_is_not_part_of_the_file(capsys, tmp_path, option,
                                                   path):
    marked = tmp_path / path.name
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    argv = ["batch", "--json", option, str(marked)] if option \
        else ["batch", "--json", str(marked)]
    assert run(capsys, *argv) == run(capsys, "batch", "--json")
    # a marked file that is not UTF-8 past its mark is still named
    marked.write_bytes(b"\xef\xbb\xbfref\n\xff\n")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"{marked}: " in err
    assert "can't decode byte 0xff" in err
