import json

import pytest

from selparse import data
from selparse.cli import main
from selparse.parser import Chart

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


def test_parse_explain_renders_sign(capsys):
    code, out, _ = run(capsys, "parse", "--method", "bg", "--explain",
                       "tom ate a banana")
    assert code == 0
    assert "cont|nuc: eat(eater: #1:ref, eaten: #2:ref)" in out
    assert "cx|bg:" in out


def test_batch_bundled_corpus(capsys):
    code, out, _ = run(capsys, "batch")
    assert code == 0
    assert "8/8 sentences as expected" in out
    assert "FAIL" not in out


def test_batch_json_records(capsys):
    code, out, _ = run(capsys, "batch", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert len(records) == 8
    assert all(r["status"] == "PASS" for r in records)
    assert all(r["agree"] for r in records)


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
], ids=["reject", "zero", "duplicate", "superscript"])
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


def test_validate_non_bcpo_names_pair(capsys, tmp_path):
    bad = tmp_path / "bad.sorts"
    bad.write_text(NON_BCPO)
    code, out, _ = run(capsys, "validate", "--hierarchy", str(bad))
    assert code == 1
    assert "bcpo: violation (a, b)" in out


@pytest.mark.parametrize("method", ["index", "both"])
def test_parse_non_bcpo_meet_is_input_error(capsys, tmp_path, method):
    # x and y are both maximal lower bounds of animate and banana
    bad = tmp_path / "bad.sorts"
    bad.write_text(data.HIERARCHY.read_text()
                   + "x: person, banana\ny: person, banana\n")
    code, out, err = run(capsys, "parse", "--method", method, "--hierarchy",
                         str(bad), "a banana ate a banana")
    assert code == 1
    assert out == ""
    assert err.startswith("error: sorts 'animate' and 'banana' have several")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("argv", [
    ["validate", "--json"],
    ["validate", "--method", "index"],
    ["batch", "--explain"],
    ["parse", "--bogus", "x"],
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
