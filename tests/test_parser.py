import ast
import dataclasses
import gc
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import pytest

import selparse
import selparse.cli
import selparse.grammar
import selparse.parser
import selparse.selres
import selparse.tfs
from conftest import CORPUS_SENTENCES, ladder, parse_sentence
from selparse import data
from selparse.grammar import (GrammarError, compile_entry, load_declarations,
                              load_lexicon)
from selparse.parser import (_PHRASE_LABEL, Chart, Edge, SCHEMAS,
                             UnknownTokenError, combine, count, lexical_edges,
                             run_method, tokenize)
from selparse.selres import Satisfiable, check_reading
from selparse.sorts import SortHierarchy, load_hierarchy


def tokens_of(sentence):
    return tokenize(sentence)


def test_tokenize():
    assert tokenize("Tom ate a keyboard.") == ["tom", "ate", "a", "keyboard"]
    assert tokenize("  The  printer called!  ") \
        == ["the", "printer", "called"]
    assert tokenize("") == []


def test_intro_sentence_bg_reading(hierarchy, lexicon, decls):
    readings = parse_sentence("tom ate a keyboard", lexicon, decls,
                              hierarchy, "bg")
    assert len(readings) == 1
    reading = readings[0]
    assert reading.derivation_string \
        == "(S (NP tom) (VP ate (NP a keyboard)))"
    parts, variables = reading.parts, reading.variables

    def atom_set(refs):
        return {(r.sort, variables[next(iter(dict(r.roles).values()))])
                for r in refs if r.sort != "naming"}

    bg_refs = parts.distinct_bg(variables)
    bg = atom_set(bg_refs)
    # the man and edible constraints plus the uniformly emitted subject one
    assert {("man", 1), ("edible", 2)} <= bg
    assert bg == {("man", 1), ("edible", 2), ("animate", 1)}
    assert any(r.sort == "naming" and dict(r.roles)["name"] == "Tom"
               for r in bg_refs)
    assert atom_set(parts.quants) == {("keybd", 2)}


def test_intro_sentence_blocked_by_index_method(hierarchy, lexicon, decls):
    assert parse_sentence("tom ate a keyboard", lexicon, decls,
                          hierarchy, "index") == []


def test_banana_sentence_parses_under_index_method(hierarchy, lexicon, decls):
    readings = parse_sentence("tom ate a banana", lexicon, decls,
                              hierarchy, "index")
    assert len(readings) == 1
    assert readings[0].sorts == {1: "man", 2: "banana"}


def _edges_by_word(tokens, lexicon, decls, hierarchy, method):
    by_word = {}
    for edge in lexical_edges(tokens, lexicon, decls, hierarchy, method):
        (entry,) = edge.parts.entries
        by_word.setdefault(entry.phon, []).append(edge)
    return by_word


@pytest.mark.parametrize("method,expect_edge", [("index", False), ("bg", True)])
def test_combine_verb_with_object(hierarchy, lexicon, decls, method,
                                  expect_edge):
    tokens = ["ate", "a", "keyboard"]
    by_word = _edges_by_word(tokens, lexicon, decls, hierarchy, method)
    (verb,) = by_word["ate"]
    (det,) = by_word["a"]
    (noun,) = by_word["keyboard"]
    np = combine(det, noun, "det_nbar", hierarchy)
    assert np is not None and np.cat == "np"
    vp = combine(verb, np, "head_complement", hierarchy)
    if not expect_edge:
        assert vp is None
        return
    assert vp.cat == "vp"
    assert "edible" in {r.sort for r in vp.parts.distinct_bg(vp.variables)}
    assert [r.sort for r in vp.parts.quants] == ["keybd"]
    # the keyboard's index picked up the verb's eaten role filler
    eaten = vp.variables[dict(vp.parts.nucleus.roles)["eaten"]]
    assert vp.variables[dict(vp.parts.quants[0].roles)["inst"]] == eaten


def test_disjoint_bg_sets_add(hierarchy, lexicon, decls):
    tokens = ["tom", "called"]
    by_word = _edges_by_word(tokens, lexicon, decls, hierarchy, "bg")
    (np,) = by_word["tom"]
    (vp,) = by_word["called"]
    sentence = combine(np, vp, "head_subject", hierarchy)
    assert len(sentence.parts.distinct_bg(sentence.variables)) \
        == len(np.parts.distinct_bg({})) + len(vp.parts.distinct_bg({}))


def test_identified_bg_instances_are_kept_once(hierarchy, lexicon, decls):
    # both verbs restrict the one employee to person: one instance survives
    (reading,) = parse_sentence("the employees that retire retire", lexicon,
                                decls, hierarchy, "bg")
    parts, variables = reading.parts, reading.variables
    (person,) = parts.distinct_bg(variables)
    assert person.sort == "person"
    assert variables[dict(person.roles)["inst"]] \
        == variables[dict(parts.nucleus.roles)["retirer"]]


@pytest.mark.parametrize("sentence,expected", [
    ("the printer called", (2, 1)),
    ("tom ate a banana", (1, 1)),
    ("the printer repaired the printer", (4, 1)),
])
@pytest.mark.parametrize("method", ["bg", "index"])
def test_count_parses(hierarchy, lexicon, decls, sentence, expected, method):
    (report,), _ = run_method(tokenize(sentence), lexicon, decls, hierarchy,
                              method)
    assert (report.pre_filter, report.post_filter) == expected


def test_double_printer_survivor_senses(hierarchy, lexicon, decls):
    readings = parse_sentence("the printer repaired the printer",
                              lexicon, decls, hierarchy, "index")
    assert len(readings) == 1
    senses = [entry.sense_id
              for entry in readings[0].parts.entries
              if entry.phon == "printer"]
    assert senses == ["printer_person", "printer_peripheral"]


def _bogus_combine(hierarchy, lexicon, decls):
    tom, called = lexical_edges(["tom", "called"], lexicon, decls, hierarchy,
                                "bg")
    return combine(tom, called, "bogus", hierarchy)


@pytest.mark.parametrize("call, message", [
    (_bogus_combine, "unknown schema 'bogus'"),
    (lambda h, lex, d: Chart(["tom"], lex, d, h, "bogus"),
     "unknown method 'bogus'"),
    (lambda h, lex, d: Chart([], lex, d, h, "bogus"),
     "unknown method 'bogus'"),
    (lambda h, lex, d: count(["tom"], lex, d, h, "bogus"),
     "unknown method 'bogus'"),
    (lambda h, lex, d: lexical_edges(["tom"], lex, d, h, "bogus"),
     "unknown method 'bogus'"),
    (lambda h, lex, d: run_method(["tom"], lex, d, h, "bogus"),
     "unknown method 'bogus'"),
    (lambda h, lex, d: compile_entry(lex["tom"][0], d, "bogus", h),
     "unknown method 'bogus'"),
], ids=["combine", "chart", "empty_chart", "count", "lexical_edges",
        "run_method", "compile_entry"])
def test_an_unknown_schema_or_method_is_named(hierarchy, lexicon, decls, call,
                                              message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(hierarchy, lexicon, decls)


def test_unknown_token_listed(hierarchy, lexicon, decls):
    with pytest.raises(UnknownTokenError, match="gizmo"):
        Chart(["tom", "ate", "a", "gizmo"], lexicon, decls, hierarchy, "bg")


def test_zero_readings_is_normal(hierarchy, lexicon, decls):
    # grammatical words, no licensed combination
    assert parse_sentence("tom banana", lexicon, decls, hierarchy, "bg") == []


def _bg_key(edge):
    return Counter((r.sort, r.source)
                   for r in edge.parts.distinct_bg(edge.variables))


def _assert_contextual_consistency(edge):
    if edge.schema is None:
        return
    left, right = edge.children
    assert _bg_key(edge) == _bg_key(left) + _bg_key(right), \
        edge.schema
    _assert_contextual_consistency(left)
    _assert_contextual_consistency(right)


@pytest.mark.parametrize("sentence", CORPUS_SENTENCES)
@pytest.mark.parametrize("method", ["bg", "index"])
def test_mother_bg_is_union_of_daughters(hierarchy, lexicon, decls,
                                         sentence, method):
    for reading in parse_sentence(sentence, lexicon, decls, hierarchy, method):
        _assert_contextual_consistency(reading)


@pytest.mark.parametrize("sentence", CORPUS_SENTENCES)
def test_methods_agree_on_corpus(hierarchy, lexicon, decls, sentence):
    bg_readings = parse_sentence(sentence, lexicon, decls, hierarchy, "bg")
    bg_surviving = {r.identity for r in bg_readings
                    if isinstance(check_reading(r, hierarchy), Satisfiable)}
    index_surviving = {r.identity for r in parse_sentence(
        sentence, lexicon, decls, hierarchy, "index")}
    assert bg_surviving == index_surviving


@pytest.mark.parametrize("sentence", [
    *CORPUS_SENTENCES,
    *(ladder("attachment", k) for k in range(1, 7)),
    *(ladder("sense", k) for k in range(1, 4)),
    "the printer that repaired the keyboard called",    # an embedded verb
])
def test_methods_agree_on_assignments(hierarchy, lexicon, decls, sentence):
    # the same readings with the same sortal interpretation: the solver's
    # assignment of a bg survivor is the index reading's variable sorts
    bg = {}
    for reading in parse_sentence(sentence, lexicon, decls, hierarchy, "bg"):
        verdict = check_reading(reading, hierarchy)
        if isinstance(verdict, Satisfiable):
            bg[reading.identity] = verdict.assignment
    index = {reading.identity: reading.sorts for reading in parse_sentence(
        sentence, lexicon, decls, hierarchy, "index")}
    assert bg == index
    _, agree = run_method(tokenize(sentence), lexicon, decls, hierarchy,
                          "both")
    assert agree is True


@pytest.mark.parametrize("sentence", CORPUS_SENTENCES)
def test_index_pruning_is_sound(hierarchy, lexicon, decls, sentence):
    unfiltered = {r.identity for r in parse_sentence(
        sentence, lexicon, decls, hierarchy, "bg")}
    pruned = {r.identity for r in parse_sentence(
        sentence, lexicon, decls, hierarchy, "index")}
    assert pruned <= unfiltered


def _viable_bg_edges(chart, hierarchy):
    """Oracle: bg edges whose children are viable and whose atoms solve.

    Open variables count: the atoms over an edge's variables must have a
    common lower bound before the edge is complete.
    """
    viable = set()
    for span in sorted(chart.cells, key=lambda span: span[1] - span[0]):
        for edge in chart.cells[span]:
            if (all(child in viable for child in edge.children)
                    and isinstance(check_reading(edge, hierarchy),
                                   Satisfiable)):
                viable.add(edge)
    return viable


def _edge_keys(edges):
    return Counter((e.start, e.end, e.cat, *e.identity) for e in edges)


@pytest.mark.parametrize("sentence", [
    *CORPUS_SENTENCES,
    *(ladder("attachment", k) for k in range(1, 7)),
    *(ladder("sense", k) for k in range(1, 4)),
])
def test_viable_bg_edges_are_the_index_edges(hierarchy, lexicon, decls,
                                             sentence):
    # the index method is the bg method with the check moved into the chart
    tokens = tokenize(sentence)
    bg = Chart(tokens, lexicon, decls, hierarchy, "bg")
    index = Chart(tokens, lexicon, decls, hierarchy, "index")
    index_edges = [e for cell in index.cells.values() for e in cell]
    assert _edge_keys(_viable_bg_edges(bg, hierarchy)) \
        == _edge_keys(index_edges)


def _skeleton(edge):
    if edge.schema is None:
        (entry,) = edge.parts.entries
        return (edge.start, entry.sense_id)
    return (edge.schema,) + tuple(_skeleton(c) for c in edge.children)


def brute_force_complete(tokens, lexicon, decls, hierarchy, method):
    """Oracle: recursive descent over every bracketing, no chart sharing."""
    positions = {}
    for edge in lexical_edges(tokens, lexicon, decls, hierarchy, method):
        positions.setdefault(edge.start, []).append(edge)

    def span(i, j):
        if j - i == 1:
            return list(positions[i])
        found = []
        for k in range(i + 1, j):
            for left in span(i, k):
                for right in span(k, j):
                    schema = SCHEMAS.get((left.cat, right.cat))
                    if schema is None:
                        continue
                    edge = combine(left, right, schema, hierarchy)
                    if edge is not None:
                        found.append(edge)
        return found

    return [e for e in span(0, len(tokens)) if e.cat == "s"]


@pytest.mark.parametrize("sentence", CORPUS_SENTENCES)
@pytest.mark.parametrize("method", ["bg", "index"])
def test_chart_matches_brute_force_enumeration(hierarchy, lexicon, decls,
                                               sentence, method):
    tokens = tokenize(sentence)
    assert len(tokens) <= 12
    chart_readings = Chart(tokens, lexicon, decls, hierarchy,
                           method).readings()
    oracle = brute_force_complete(tokens, lexicon, decls, hierarchy, method)
    assert Counter(repr(_skeleton(r)) for r in chart_readings) \
        == Counter(repr(_skeleton(e)) for e in oracle)


def test_relative_clause_attachment_enumerated(hierarchy, lexicon, decls):
    readings = parse_sentence(
        "list the employees of the departments that retire",
        lexicon, decls, hierarchy, "bg")
    derivations = sorted(r.derivation_string for r in readings)
    assert derivations == [
        "(S list (NP (NP (NP the employees) (PP of (NP the departments)))"
        " (RelC that (VP retire))))",
        "(S list (NP (NP the employees) (PP of (NP (NP the departments)"
        " (RelC that (VP retire))))))",
    ]


def test_adjective_supported(hierarchy, lexicon, decls):
    readings = parse_sentence(
        "list the employees of the overseas departments that retire",
        lexicon, decls, hierarchy, "index")
    assert len(readings) == 1
    assert "(NP the overseas departments)" in readings[0].derivation_string


def test_chart_edge_statistics(hierarchy, lexicon, decls):
    tokens = tokenize("the printer repaired the printer")
    unfiltered = Chart(tokens, lexicon, decls, hierarchy, "bg")
    pruned = Chart(tokens, lexicon, decls, hierarchy, "index")
    assert len(unfiltered.readings()) == 4
    assert len(pruned.readings()) == 1
    assert pruned.edges_built < unfiltered.edges_built


# (bg edges, bg readings, index edges, index readings, bg solver survivors)
@pytest.mark.parametrize("family, k, expected", [
    ("attachment", 1, (21, 2, 17, 1, 1)),
    ("attachment", 2, (42, 5, 30, 2, 2)),
    ("attachment", 3, (91, 14, 57, 5, 5)),
    ("attachment", 4, (224, 42, 124, 14, 14)),
    ("attachment", 5, (621, 132, 313, 42, 42)),
    ("attachment", 6, (1876, 429, 890, 132, 132)),
    ("sense", 1, (47, 8, 37, 4, 4)),
    ("sense", 2, (175, 40, 125, 20, 20)),
    ("sense", 3, (831, 224, 557, 112, 112)),
])
def test_ladder_edge_and_reading_counts_are_exact(hierarchy, lexicon, decls,
                                                  family, k, expected):
    tokens = tokenize(ladder(family, k))
    bg = Chart(tokens, lexicon, decls, hierarchy, "bg")
    readings = bg.readings()
    index = Chart(tokens, lexicon, decls, hierarchy, "index")
    pruned = index.readings()
    survivors = sum(isinstance(check_reading(r, hierarchy), Satisfiable)
                    for r in readings)
    assert (bg.edges_built, len(readings), index.edges_built, len(pruned),
            survivors) == expected


def union_find_classes(binds, hierarchy):
    """Node -> (its class, the class's sort), joining each bind's pair in
    turn and meeting the sorts of the classes joined."""
    parent, sort = {}, {}

    def find(node):
        while node in parent:
            node = parent[node]
        return node

    for slot, index, _ in binds:
        a, b = find(slot), find(index)
        if a is not b:
            parent[b] = a
            sort[a] = hierarchy.glb(sort.get(a, a.sort), sort.get(b, b.sort))
    nodes = {node for slot, index, _ in binds for node in (slot, index)}
    return {node: (frozenset(m for m in nodes if find(m) is find(node)),
                   sort[find(node)]) for node in nodes}


@pytest.fixture(scope="module")
def thing_lexicon(hierarchy, decls):
    # a noun of the root sort: each bind on its index narrows that index
    return load_lexicon(data.LEXICON.read_text() + "thing | noun | ref\n",
                        hierarchy, decls)


@pytest.mark.parametrize("sentence", [
    *CORPUS_SENTENCES,
    *(ladder("attachment", k) for k in range(1, 7)),
    *(ladder("sense", k) for k in range(1, 4)),
    "the thing that ate a banana retire",
    # two relative clauses on one np: each narrows its index in turn
    "the thing that retire that ate a banana retire",
    "the thing that ate a banana that retire retire",
])
@pytest.mark.parametrize("method", ["bg", "index"])
def test_identification_classes_are_stars(hierarchy, thing_lexicon, decls,
                                          sentence, method):
    # each class is one index plus the slots bound to it, each slot once,
    # and each bind's meet narrows the sort the binds before it left
    chart = Chart(tokenize(sentence), thing_lexicon, decls, hierarchy, method)
    for edge in (edge for cell in chart.cells.values() for edge in cell):
        slots = [slot for slot, _, _ in edge.binds]
        assert len(set(slots)) == len(slots)
        meets = {}
        for slot, index, met in edge.binds:
            assert index not in slots
            meets.setdefault(index, [index.sort]).append(met)
            assert hierarchy.subsumes(slot.sort, met)
        for sorts in meets.values():
            assert all(hierarchy.subsumes(above, below)
                       for above, below in zip(sorts, sorts[1:]))
        index = edge.parts.index
        lexical = index and index.sort
        assert edge.index_sort == meets.get(index, [lexical])[-1]
        variables, sorts = edge.variables, edge.sorts
        classes = union_find_classes(edge.binds, hierarchy)
        # numbered 1, 2, ... by first appearance of a class in word order
        indices = edge.parts.indices
        assert set(variables) == set(indices)
        assert list(dict.fromkeys(variables[n] for n in indices)) \
            == list(sorts) == list(range(1, len(sorts) + 1))
        assert {node: (frozenset(m for m in variables
                                 if variables[m] == variables[node]),
                       sorts[variables[node]]) for node in classes} \
            == classes


def test_each_bind_on_an_index_narrows_it_in_turn(hierarchy, thing_lexicon,
                                                  decls):
    chart = Chart(tokenize("the thing that ate a banana retire"),
                  thing_lexicon, decls, hierarchy, "index")
    (reading,) = chart.readings()
    (thing_edge,) = chart.cells[1, 2]
    thing = thing_edge.parts.index
    assert thing.sort == "ref"
    # the relative clause's eater, then the main clause's retirer
    assert [met for _, index, met in reading.binds if index is thing] \
        == ["animate", "person"]
    assert reading.sorts[reading.variables[thing]] == "person"


def test_long_adjective_stack_needs_no_recursion(hierarchy, lexicon, decls):
    # adj_nbar nests one tree level per adjective
    n = 3000
    the, *adjectives, noun = lexical_edges(
        ["the", *["overseas"] * n, "departments"], lexicon, decls, hierarchy,
        "bg")
    nbar = noun
    for adjective in reversed(adjectives):
        nbar = combine(adjective, nbar, "adj_nbar", hierarchy)
    np = combine(the, nbar, "det_nbar", hierarchy)
    words = " ".join(["the", *["overseas"] * n, "departments"])
    assert np.derivation_string == f"(NP {words})"
    assert np.parts.entries \
        == tuple(leaf.parts.entries[0] for leaf in (the, *adjectives, noun))
    assert np.identity == (f"(NP {words})",
                           ("the", *["overseas"] * n, "department"))


def walked_derivation(edge):
    """Oracle: the bracketed derivation by one walk over the whole tree."""
    parts, stack = [], [edge]   # stack items: edges and closing text
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        label = _PHRASE_LABEL.get(item.cat)
        if label:
            parts.append(f"({label} ")
            stack.append(")")
        if not item.children:
            (entry,) = item.parts.entries
            parts.append(entry.phon)
        for i, child in enumerate(reversed(item.children)):
            stack.extend((" ", child) if i else (child,))
    return "".join(parts)


def walked_entries(edge):
    """Oracle: the entries of the lexical edges under `edge`, left to right."""
    entries, stack = [], [edge]
    while stack:
        item = stack.pop()
        if item.children:
            stack.extend(reversed(item.children))
        else:
            (entry,) = item.parts.entries
            entries.append(entry)
    return tuple(entries)


@pytest.mark.parametrize("method", ["bg", "index"])
def test_a_derivation_is_built_once_per_edge(hierarchy, lexicon, decls,
                                             method):
    unlabelled = 0
    for sentence, expected in [
            (ladder("attachment", 6), {"bg": 429, "index": 132}),
            (ladder("sense", 3), {"bg": 224, "index": 112}),  # printer
            # unlabelled phrasal edges: nbar over adjectives
            ("list the overseas employees of the overseas overseas"
             " departments that retire", {"bg": 2, "index": 1}),
            *((sentence, None) for sentence in CORPUS_SENTENCES)]:
        chart = Chart(tokenize(sentence), lexicon, decls, hierarchy, method)
        readings = chart.readings()
        assert expected is None or len(readings) == expected[method]
        for reading in readings:    # kept, not rebuilt on the second read
            assert reading.derivation_string is reading.derivation_string
        for cell in chart.cells.values():
            for edge in cell:
                derivation, entries = (walked_derivation(edge),
                                       walked_entries(edge))
                assert edge.derivation_string == derivation
                assert edge.parts.entries == entries
                assert edge.identity == (
                    derivation, tuple(e.sense_id for e in entries))
                # only lexical and labelled edges keep their string
                if edge.children and edge.cat not in _PHRASE_LABEL:
                    assert edge._derivation is None
                    unlabelled += 1
                else:
                    assert edge._derivation == derivation
    assert unlabelled == 3     # the adjective sentence's nbar edges


def test_the_parse_path_imports_nothing_from_tfs():
    # the parser meets sorts with SortHierarchy.glb and builds its index
    # nodes in grammar, so the reference unifier can leave without them
    for module in (selparse.grammar, selparse.parser, selparse.selres):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = [name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for name in (getattr(node, "module", None) or "",
                                 *(alias.name for alias in node.names))]
        assert not any("tfs" in name.split(".") for name in imported), \
            (module.__name__, imported)


def test_only_sorts_reads_the_lattice_encoding():
    # every other module meets and tests sorts through SortHierarchy's
    # methods and its `sorts`, never through the bit masks behind them
    encoding = {"mask", "_mask", "_meets", "_by_bit"}
    package = Path(selparse.parser.__file__).parent
    for path in sorted(package.rglob("*.py")):
        if path.name == "sorts.py" and path.parent == package:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in encoding]
        assert not read, (path.name, read)


def test_only_combine_reads_a_rule():
    # what two edges make is decided in one place: outside `combine`, RULES
    # is read only for SCHEMAS, its daughter categories, and no code reads
    # a rule's selector, slot, mother or quantify (`head` is also a field
    # of Sign, so it is left out).  Which edges meet is decided in one
    # more: `_walk`, run by both `Chart.fill` and `count`, is the only
    # function that calls `combine` or `insort`
    fields = {"selector", "slot", "mother", "quantify"}
    package = Path(selparse.parser.__file__).parent
    callers = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        for node in tree.body if path.name == "parser.py" else ():
            if (isinstance(node, ast.FunctionDef) and node.name == "combine"
                    or isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets]
                    == ["SCHEMAS"]):
                inside.update(ast.walk(node))
        read = [getattr(node, "id", None) or node.attr
                for node in ast.walk(tree) if node not in inside
                and (isinstance(node, ast.Name) and node.id == "RULES"
                     and isinstance(node.ctx, ast.Load)
                     or isinstance(node, ast.Attribute)
                     and node.attr in fields)]
        assert not read, (path.name, read)
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            name = isinstance(node, ast.Call) and (
                getattr(node.func, "id", None)
                or getattr(node.func, "attr", None))
            if name in ("combine", "insort"):
                callers.add((path.name, name, *(
                    f.name for f in functions if node in ast.walk(f))))
    assert callers == {("parser.py", "combine", "_walk"),
                       ("parser.py", "insort", "_walk")}


@pytest.mark.parametrize("method", ["bg", "index"])
def test_fill_unifies_nothing_and_a_read_sign_once(hierarchy, lexicon, decls,
                                                   monkeypatch, method):
    # a reading's variables are read off its binds: no graph is unified
    real_unify_map = selparse.tfs.unify_map
    unify_calls = []

    def counting_unify_map(*args):
        unify_calls.append(args)
        return real_unify_map(*args)

    for module in (selparse.tfs, selparse.grammar, selparse.parser,
                   selparse.selres):    # wherever it is held
        monkeypatch.setattr(module, "unify_map", counting_unify_map,
                            raising=False)
    real_tabulate = Edge._tabulate
    computed = []

    def counting_tabulate(edge):
        computed.append(edge)
        return real_tabulate(edge)

    monkeypatch.setattr(Edge, "_tabulate", counting_tabulate)

    tokens = tokenize(ladder("attachment", 2))
    chart = Chart(tokens, lexicon, decls, hierarchy, method)
    assert chart.edges_built > 0
    readings = chart.readings()
    assert readings
    for reading in readings:
        check_reading(reading, hierarchy)
        assert reading.sorts
    assert computed == readings     # once each, and only for readings
    run_method(tokens, lexicon, decls, hierarchy, "both")
    assert unify_calls == []


def test_fill_follows_the_edges(hierarchy, lexicon, decls):
    # 480 stacked adjectives: about n * n / 2 spans, nearly all of them empty
    tokens = ["list", "the", *["overseas"] * 480, "departments"]
    start = time.perf_counter()
    chart = Chart(tokens, lexicon, decls, hierarchy, "bg")
    elapsed = time.perf_counter() - start
    assert (chart.edges_built, len(chart.readings())) == (965, 1)
    assert elapsed < 1.0


def test_count_follows_the_edges(hierarchy, lexicon, decls):
    # the same stack: count walks the non-empty cells as the fill does
    tokens = ["list", "the", *["overseas"] * 480, "departments"]
    start = time.perf_counter()
    counted = count(tokens, lexicon, decls, hierarchy, "bg")
    elapsed = time.perf_counter() - start
    assert counted == (1, 965)
    assert elapsed < 1.0


@pytest.mark.parametrize("method", ["bg", "index"])
def test_fill_looks_up_cells_in_proportion_to_its_edges(
        hierarchy, lexicon, decls, monkeypatch, method):
    # counted, not timed: a pass over every span and split of the stack
    # looks a cell up about n * n / 2 times
    class CountingCells(dict):
        lookups = 0

        def __getitem__(self, key):
            self.lookups += 1
            return super().__getitem__(key)

        def get(self, key, default=None):
            self.lookups += 1
            return super().get(key, default)

        def __contains__(self, key):
            self.lookups += 1
            return super().__contains__(key)

    real_fill = Chart.fill
    lookups = []

    def counting_fill(chart):
        chart.cells = CountingCells(chart.cells)
        real_fill(chart)
        lookups.append(chart.cells.lookups)

    monkeypatch.setattr(Chart, "fill", counting_fill)
    tokens = ["list", "the", *["overseas"] * 480, "departments"]
    chart = Chart(tokens, lexicon, decls, hierarchy, method)
    assert len(chart.readings()) == 1
    (made,) = lookups
    assert 0 < made <= 3 * (chart.edges_built + len(tokens))


def width_major_cells(tokens, lexicon, decls, hierarchy, method):
    """Oracle: the cells of a pass over every span, narrow to wide, and
    every split of each, left to right; and the edges it built."""
    n = len(tokens)
    cells = {(start, start + 1): [] for start in range(n)}
    for edge in lexical_edges(tokens, lexicon, decls, hierarchy, method):
        cells[edge.start, edge.end].append(edge)
    for width in range(2, n + 1):
        for start in range(n - width + 1):
            end = start + width
            cell = [edge for split in range(start + 1, end)
                    for left in cells.get((start, split), ())
                    for right in cells.get((split, end), ())
                    if (schema := SCHEMAS.get((left.cat, right.cat)))
                    and (edge := combine(left, right, schema, hierarchy))]
            if cell:
                cells[start, end] = cell
    return cells, sum(map(len, cells.values()))


def test_the_fill_builds_the_width_major_cells_in_order(hierarchy, lexicon,
                                                        decls):
    def key(edge):
        return edge.cat, *edge.identity, edge.binds

    words = sorted(lexicon)
    rng = random.Random(26)
    sentences = [*CORPUS_SENTENCES,
                 *(ladder("attachment", k) for k in range(7)),
                 *(ladder("sense", k) for k in range(4)),
                 *(" ".join(rng.choices(words, k=rng.randint(1, 9)))
                   for _ in range(400)),
                 *phrase_strings(lexicon, 26, 400)]
    for sentence in sentences:
        tokens = tokenize(sentence)
        for method in ("bg", "index"):
            chart = Chart(tokens, lexicon, decls, hierarchy, method)
            cells, built = width_major_cells(tokens, lexicon, decls,
                                             hierarchy, method)
            assert chart.cells.keys() == cells.keys(), (sentence, method)
            for span, cell in cells.items():
                assert [key(e) for e in chart.cells[span]] \
                    == [key(e) for e in cell], (sentence, method, span)
            assert chart.edges_built == built
            assert chart.ends == [sorted(end for start, end in cells
                                         if start == at)
                                  for at in range(len(tokens))]


def test_an_adjective_stack_keeps_no_string_per_level(hierarchy, lexicon,
                                                      decls):
    # each unlabelled nbar level hands its words up instead of keeping them
    n = 3000
    the, *adjectives, noun = lexical_edges(
        ["the", *["overseas"] * n, "departments"], lexicon, decls, hierarchy,
        "bg")
    nbar = noun
    for adjective in reversed(adjectives):
        nbar = combine(adjective, nbar, "adj_nbar", hierarchy)
    np = combine(the, nbar, "det_nbar", hierarchy)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        derivation = np.derivation_string
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert derivation == f"(NP the {' '.join(['overseas'] * n)} departments)"
    assert kept < 1_000_000     # the NP's own string is 27 kB
    assert nbar.derivation_string == derivation[len("(NP the "):-1]


# In a fresh interpreter: an index-only analysis as its first, then the
# count of 200 fresh lexical edges and the bytes they keep after their
# first derivation.
FIRST_DERIVATIONS_AFTER_AN_INDEX_ANALYSIS = """
import tracemalloc
from selparse import data
from selparse.grammar import load_declarations, load_lexicon
from selparse.parser import lexical_edges, run_method, tokenize
from selparse.sorts import load_hierarchy

hierarchy = load_hierarchy(data.HIERARCHY.read_text())
decls = load_declarations(data.DECLS.read_text(), hierarchy)
lexicon = load_lexicon(data.LEXICON.read_text(), hierarchy, decls)
run_method(tokenize("list the employees of the departments that retire"),
           lexicon, decls, hierarchy, "index")
tokens = tokenize("the employees of the departments")   # none labelled
# a loaded lexicon keeps its lexical edges, so each 5 come from a fresh one
lexicons = [load_lexicon(data.LEXICON.read_text(), hierarchy, decls)
            for _ in range(40)]
edges = [edge for fresh in lexicons
         for edge in lexical_edges(tokens, fresh, decls, hierarchy, "bg")]
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
for edge in edges:
    edge.derivation_string
print(len({id(edge) for edge in edges}),
      tracemalloc.get_traced_memory()[0] - before)
"""


def test_no_chart_record_has_an_instance_dict(hierarchy, lexicon, decls):
    chart = Chart(tokenize(ladder("attachment", 2)), lexicon, decls,
                  hierarchy, "bg")
    for reading in chart.readings():
        reading.derivation_string, reading.sorts
    for cell in chart.cells.values():
        for edge in cell:
            assert not hasattr(edge, "__dict__")
            assert not hasattr(edge.parts, "__dict__")
    # on CPython 3.11, whether an edge's first stored derivation builds an
    # instance dict depended on the process's first stores, so the
    # measurement needs a process of its own
    src = str(Path(selparse.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", FIRST_DERIVATIONS_AFTER_AN_INDEX_ANALYSIS],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    edges, kept = map(int, done.stdout.split())
    assert edges == 200     # distinct edges
    assert kept < 50 * edges


def counting_folds(monkeypatch):
    """The constraint sets folded into a verdict, one per `selres._fold`."""
    folded = []
    fold = selparse.selres._fold

    def counting(grouped, hierarchy):
        folded.append(grouped)
        return fold(grouped, hierarchy)

    monkeypatch.setattr(selparse.selres, "_fold", counting)
    return folded


def unshared(reading):
    """A copy of `reading` handed no chart's lookup: it shares nothing."""
    return dataclasses.replace(reading)


def assert_shared_results_are_fresh(reports, hierarchy):
    """Each reading's verdict or assignment is the one made for it alone."""
    for report in reports:
        for reading, assignment in report.surviving:
            alone = unshared(reading)
            assert alone.verdicts == {}     # its own table, nothing kept yet
            if report.method == "bg":
                fresh = check_reading(alone, hierarchy)
                assert isinstance(fresh, Satisfiable)
                assert fresh.assignment == assignment
            else:
                assert assignment == alone.sorts
        for reading, violation in report.violations:
            # compares var, conflicting and narrative
            assert check_reading(unshared(reading), hierarchy) == violation


LADDER_SETS = [*(("attachment", k, k + 1) for k in range(1, 7)),
               ("sense", 1, 8), ("sense", 2, 24), ("sense", 3, 64)]


@pytest.mark.parametrize("family, k, checks", LADDER_SETS)
def test_readings_with_one_constraint_set_share_one_check(
        hierarchy, lexicon, decls, monkeypatch, family, k, checks):
    folded = counting_folds(monkeypatch)
    reports, agree = run_method(tokenize(ladder(family, k)), lexicon, decls,
                                hierarchy, "both")
    assert agree
    assert len(folded) == checks
    bg, index = reports
    assert len({id(v) for _, v in bg.violations}) <= checks
    survivors = [assignment for _, assignment in bg.surviving + index.surviving]
    assert len({id(a) for a in survivors}) == len(survivors)  # one dict each
    assert_shared_results_are_fresh(reports, hierarchy)


def test_the_bg_check_meets_through_glb(hierarchy, lexicon, decls,
                                        monkeypatch):
    # one glb per pair of constraints on a variable, the meet combine makes
    (reading,) = Chart(tokenize("tom ate a banana"), lexicon, decls,
                       hierarchy, "bg").readings()
    glb = SortHierarchy.glb
    met = []

    def recording(self, a, b):
        met.append((a, b))
        return glb(self, a, b)

    monkeypatch.setattr(SortHierarchy, "glb", recording)
    assert check_reading(reading, hierarchy) == Satisfiable(
        {1: "man", 2: "banana"})
    assert met == [("man", "animate"), ("banana", "edible")]


def test_shared_verdicts_hold_on_a_non_bcpo_hierarchy(monkeypatch):
    # man ^ technician, then animate ^ banana, meet in two sorts each: both
    # methods meet them in their completion and keep the same readings
    folded = counting_folds(monkeypatch)
    sentences = [*CORPUS_SENTENCES, "a banana ate a banana",
                 *(ladder("attachment", k) for k in range(1, 7)),
                 *(ladder("sense", k) for k in (1, 2, 3))]
    for extra, completions in [
            ("cyborg: man, technician\n", set()),
            ("x: person, banana\ny: person, banana\n", {"{x|y}"})]:
        sorts = load_hierarchy(data.HIERARCHY.read_text() + extra)
        assert sorts.bcpo_violations()
        decls = load_declarations(data.DECLS.read_text(), sorts)
        lexicon = load_lexicon(data.LEXICON.read_text(), sorts, decls)
        readings = folds = 0
        assigned = set()
        for sentence in sentences:
            folded.clear()
            reports, agree = run_method(tokenize(sentence), lexicon, decls,
                                        sorts, "both")
            assert agree is True, sentence
            folds += len(folded)
            readings += reports[0].pre_filter
            assert_shared_results_are_fresh(reports, sorts)
            assigned.update(sort for report in reports
                            for _, assignment in report.surviving
                            for sort in assignment.values())
        assert folds < readings
        assert {s for s in assigned if s.startswith("{")} == completions


@pytest.mark.parametrize("family, k, sets", LADDER_SETS)
def test_checking_a_chart_folds_once_per_constraint_set(
        hierarchy, lexicon, decls, monkeypatch, family, k, sets):
    folded = counting_folds(monkeypatch)
    readings = Chart(tokenize(ladder(family, k)), lexicon, decls, hierarchy,
                     "bg").readings()
    verdicts = [check_reading(reading, hierarchy) for reading in readings]
    assert len(folded) == sets
    assert len({id(verdict) for verdict in verdicts}) == sets
    tables = {id(reading.verdicts) for reading in readings}
    assert len(tables) == sets
    # a second pass folds nothing and returns the same objects
    again = [check_reading(reading, hierarchy) for reading in readings]
    assert all(a is v for a, v in zip(again, verdicts))
    assert len(folded) == sets


def test_a_lone_reading_shares_nothing(hierarchy, lexicon, decls,
                                       monkeypatch):
    # handed no lookup, a lone reading folds once into a table of its own
    folded = counting_folds(monkeypatch)
    (reading,) = Chart(tokenize("tom ate a keyboard"), lexicon, decls,
                       hierarchy, "bg").readings()
    assert reading._table is None
    first, second = (check_reading(reading, hierarchy) for _ in range(2))
    assert first is second
    assert len(folded) == 1
    assert reading.verdicts == {hierarchy: first}


def phrase_strings(lexicon, seed, n):
    """n seeded token strings grown from a phrase template over the
    lexicon's words: a noun phrase takes at most one PP or relative clause,
    two levels deep, under a verb phrase or an imperative.  Words drawn
    uniformly at random seldom make a sentence."""
    rng = random.Random(seed)
    kinds = {}
    for word, entries in sorted(lexicon.items()):
        for entry in entries:
            kind = kinds.setdefault(entry.valence or entry.pos, [])
            if word not in kind:
                kind.append(word)

    def pick(kind):
        return rng.choice(kinds[kind])

    def np(depth):
        if rng.random() < 0.2:
            return [pick("proper-noun")]
        words = [pick("determiner"), *(pick("adjective")
                                      for _ in range(rng.randint(0, 1))),
                 pick("noun")]
        if depth and rng.random() < 0.6:
            if rng.random() < 0.6:
                words += [pick("preposition"), *np(depth - 1)]
            else:
                words += [pick("relative-pronoun"), *vp(depth - 1)]
        return words

    def vp(depth):
        if rng.random() < 0.4:
            return [pick("intrans")]
        return [pick("trans"), *np(depth)]

    return [" ".join([pick("imp"), *np(2)] if rng.random() < 0.3
                     else [*np(2), *vp(2)]) for _ in range(n)]


def test_indices_and_binds_fix_a_readings_constraint_set(hierarchy, lexicon,
                                                         decls):
    # what the readings of one chart share a table by: on equal indices and
    # sets of binds, the checker reads the same instances in the same order
    sentences = [*CORPUS_SENTENCES,
                 *(ladder("attachment", k) for k in range(1, 8)),
                 *(ladder("sense", k) for k in range(1, 5)),
                 *phrase_strings(lexicon, 27, 400)]
    readings = repeats = 0
    for sentence in sentences:
        for method in ("bg", "index"):
            first = {}
            for reading in Chart(tokenize(sentence), lexicon, decls,
                                 hierarchy, method).readings():
                parts = reading.parts
                assert parts.restr == ()    # det_nbar quantified them all
                key = parts.indices, frozenset(reading.binds)
                kept = first.setdefault(key, parts)
                # instances compare by identity, so these are the same
                # objects in the same order
                assert kept.quants == parts.quants and kept.bg == parts.bg
                readings += 1
                repeats += kept is not parts
    assert (readings, repeats) == (6075, 4813)


# the schemas whose head is the right daughter: the module docstring's
# table, read by hand
RIGHT_HEADED = {"head_subject", "det_nbar", "adj_nbar", "relpro_vp"}


def pooled_parts(edge, pooled):
    """`edge`'s sign pooled from its daughters' as a mother's whole sign
    was first built: the head's core and remaining valence, both
    daughters' entries, indices, restr, quants and bg left before right,
    det_nbar moving restr into quants.  `pooled` keeps each edge's."""
    kept = pooled.get(edge)
    if kept is None:
        if edge.schema is None:
            kept = edge.parts
        else:
            left, right = (pooled_parts(child, pooled)
                           for child in edge.children)
            core = right if edge.schema in RIGHT_HEADED else left
            subj, comps = core.subj, core.comps
            if edge.schema == "head_subject":
                subj = subj[1:]
            elif edge.schema == "head_complement":
                comps = comps[1:]
            restr = left.restr + right.restr
            quants = left.quants + right.quants
            if edge.schema == "det_nbar":
                restr, quants = (), quants + restr
            kept = selparse.grammar.Sign(
                left.entries + right.entries, left.indices + right.indices,
                core.head, core.index, core.nucleus, subj, comps, restr,
                quants, left.bg + right.bg)
        pooled[edge] = kept
    return kept


def test_an_edges_parts_pool_its_daughters_parts(hierarchy, lexicon, decls):
    # nodes and relations compare by identity: every edge's sign holds the
    # very objects its words were compiled with, in word order
    sentences = [*CORPUS_SENTENCES,
                 *(ladder("attachment", k) for k in range(1, 7)),
                 *(ladder("sense", k) for k in range(1, 4)),
                 *phrase_strings(lexicon, 27, 400)]
    edges = 0
    for sentence in sentences:
        for method in ("bg", "index"):
            chart = Chart(tokenize(sentence), lexicon, decls, hierarchy,
                          method)
            pooled = {}
            for cell in chart.cells.values():
                for edge in cell:
                    assert edge.parts == pooled_parts(edge, pooled), edge
                    edges += 1
    assert edges == 19271


@pytest.mark.parametrize("method", ["bg", "index"])
def test_a_fill_builds_no_sign_and_a_read_builds_one(hierarchy, lexicon,
                                                     decls, monkeypatch,
                                                     method):
    # `combine` makes one object per edge: a phrasal edge shares its head
    # word's compiled sign, and its own `Sign` waits for a read of `parts`
    built = []
    real_sign = selparse.parser.Sign

    def counting_sign(*args):
        built.append(args)
        return real_sign(*args)

    monkeypatch.setattr(selparse.parser, "Sign", counting_sign)
    chart = Chart(tokenize(ladder("attachment", 6)), lexicon, decls,
                  hierarchy, method)
    edges = [edge for cell in chart.cells.values() for edge in cell]
    phrasal = [edge for edge in edges if edge.children]
    assert phrasal and built == []
    assert all(edge._parts is None for edge in phrasal)
    compiled = {id(edge.sign) for edge in edges if not edge.children}
    assert {id(edge.sign) for edge in phrasal} <= compiled
    reading = chart.readings()[0]
    parts = reading.parts
    assert len(built) == 1
    assert reading.parts is parts and len(built) == 1
    assert (parts.head, parts.index, parts.nucleus) \
        == (reading.sign.head, reading.sign.index, reading.sign.nucleus)


def test_a_shared_verdict_is_kept_per_hierarchy(hierarchy, lexicon, decls,
                                                monkeypatch):
    # the bundled hierarchy plus a tie: animate ^ banana is {x|y}
    tie = load_hierarchy(data.HIERARCHY.read_text()
                         + "x: person, banana\ny: person, banana\n")
    readings = Chart(tokenize("a banana ate a banana of the departments of "
                              "the departments"), lexicon, decls, hierarchy,
                     "bg").readings()
    assert len(readings) == 2       # one constraint set, two attachments
    folded = counting_folds(monkeypatch)
    first, second = readings
    rejected = check_reading(first, hierarchy)
    kept = check_reading(first, tie)
    assert rejected.narrative \
        == "violation: var=1 sorts=banana,animate from=banana,ate"
    assert kept == Satisfiable({1: "{x|y}", 2: "banana", 3: "department",
                                4: "department"})
    assert len(folded) == 2
    assert check_reading(second, hierarchy) is rejected
    assert check_reading(second, tie) is kept
    assert check_reading(first, hierarchy) is rejected
    assert len(folded) == 2
    assert second.verdicts is first.verdicts
    assert first.verdicts == {hierarchy: rejected, tie: kept}


def test_a_parse_leaves_no_reference_cycle(hierarchy, lexicon, decls):
    # a chart freed by reference counting alone never waits for the
    # cyclic collector; the lexicon keeps its lexical edges either way
    sentences = [*CORPUS_SENTENCES, ladder("attachment", 3),
                 ladder("sense", 2)]

    def parse(tokens):
        for method in ("bg", "index"):
            chart = Chart(tokens, lexicon, decls, hierarchy, method)
            for reading in chart.readings():
                check_reading(reading, hierarchy)
                reading.variables, reading.sorts, reading.derivation_string
        # readings handed a lookup but never read
        Chart(tokens, lexicon, decls, hierarchy, "bg").readings()
        run_method(tokens, lexicon, decls, hierarchy, "both")

    for sentence in sentences:      # each lexical edge is built and kept
        parse(tokenize(sentence))
    gc.collect()
    gc.disable()
    try:
        for sentence in sentences:
            parse(tokenize(sentence))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_count_is_the_chart_readings_and_edges(hierarchy, lexicon, decls):
    sentences = [*CORPUS_SENTENCES,
                 *(ladder("attachment", k) for k in range(1, 8)),
                 *(ladder("sense", k) for k in range(1, 5))]
    words = sorted(lexicon)
    rng = random.Random(26)
    sentences += [" ".join(rng.choices(words, k=rng.randint(1, 9)))
                  for _ in range(400)]
    # uniform strings seldom parse; the template's strings all do
    phrases = phrase_strings(lexicon, 26, 400)
    counted = set()
    for sentence in sentences + phrases:
        tokens = tokenize(sentence)
        charts = {method: Chart(tokens, lexicon, decls, hierarchy, method)
                  for method in ("bg", "index")}
        for method, chart in charts.items():
            assert count(tokens, lexicon, decls, hierarchy, method) \
                == (len(chart.readings()), chart.edges_built), \
                (sentence, method)
        readings = len(charts["bg"].readings())
        assert readings or sentence not in phrases, sentence
        counted.add(readings)
    assert {0, 1, 2, 1430} <= counted   # the random strings parse, some


def test_count_meets_the_closed_forms_far_past_any_chart(hierarchy, lexicon,
                                                         decls):
    # attachment k: k PPs and a relative clause attach in Catalan many
    # ways; sense k adds two senses per noun, one excluded under index
    def catalan(k):
        return math.comb(2 * k, k) // (k + 1)

    def readings(family, k, method):
        return count(tokenize(ladder(family, k)), lexicon, decls, hierarchy,
                     method)[0]

    for k in range(21):
        assert readings("attachment", k, "bg") == catalan(k + 1)
        assert readings("attachment", k, "index") == catalan(k)
    for k in range(11):
        assert readings("sense", k, "bg") == catalan(k + 1) * 2 ** (k + 1)
        assert readings("sense", k, "index") == catalan(k + 1) * 2 ** k
    # the paper's metric, bg against index chart edges, at a rung no
    # chart reaches
    tokens = tokenize(ladder("attachment", 20))
    assert [count(tokens, lexicon, decls, hierarchy, method)
            for method in ("bg", "index")] \
        == [(24_466_267_020, 91_532_378_004), (6_564_120_420, 37_753_229_872)]


def test_the_index_method_fills_no_bg_chart(hierarchy, lexicon, decls,
                                            monkeypatch, capsys):
    # pre_filter is counted on bg lexical edges, one edge per shape and
    # cell, with a few combines: a bg chart fill makes 5,965 at k = 7
    filled = []
    real_fill = Chart.fill

    def recording_fill(chart):
        filled.append(chart.method)
        real_fill(chart)

    monkeypatch.setattr(Chart, "fill", recording_fill)
    sentence = ladder("attachment", 7)
    combines = []
    real_combine = selparse.parser.combine

    def counting_combine(left, right, schema, hierarchy):
        combines.append(schema)
        return real_combine(left, right, schema, hierarchy)

    monkeypatch.setattr(selparse.parser, "combine", counting_combine)
    index = Chart(tokenize(sentence), lexicon, decls, hierarchy, "index")
    alone = len(combines)
    combines.clear()
    assert selparse.cli.main(["parse", "--method", "index", "--json",
                              sentence]) == 0
    assert filled == ["index", "index"]
    assert alone < len(combines) <= alone + 200
    record = json.loads(capsys.readouterr().out)
    assert (record["pre_filter"], record["post_filter"]) \
        == (1430, len(index.readings()))


def test_a_verb_relation_named_after_a_sort_constrains_nothing(hierarchy):
    # "man" is a sort and, here, a one-role relation: only bg instances
    # constrain, so the verb's nucleus restricts its doer to ref alone
    decls = load_declarations(data.DECLS.read_text() + "man(doer: ref)\n",
                              hierarchy)
    lexicon = load_lexicon(data.LEXICON.read_text()
                           + "mans | verb | man | intrans\n",
                           hierarchy, decls)
    reports, agree = run_method(tokenize("the printer mans"), lexicon, decls,
                                hierarchy, "both")
    assert [(r.method, r.pre_filter, r.post_filter) for r in reports] \
        == [("bg", 2, 2), ("index", 2, 2)]
    assert reports[0].violations == []
    assert agree is True


REUSE_SENTENCES = [*CORPUS_SENTENCES,
                   *(ladder("attachment", k) for k in range(1, 7)),
                   *(ladder("sense", k) for k in range(1, 4))]


def test_each_lexical_sign_is_compiled_once_per_position(hierarchy, decls,
                                                         monkeypatch):
    # a lexicon of its own: the shared fixture's entries already keep signs
    lexicon = load_lexicon(data.LEXICON.read_text(), hierarchy, decls)
    compiled = []

    def counting(entry, decls, method, hierarchy):
        compiled.append((entry, method))
        return compile_entry(entry, decls, method, hierarchy)

    monkeypatch.setattr(selparse.parser, "compile_entry", counting)
    keys = {(entry.phon, entry.sense_id, method, i)
            for sentence in REUSE_SENTENCES
            for i, token in enumerate(tokenize(sentence))
            for entry in lexicon[token] for method in ("bg", "index")}
    for sentence in REUSE_SENTENCES:
        run_method(tokenize(sentence), lexicon, decls, hierarchy, "both")
    assert len(compiled) == len(keys)
    compiled.clear()
    for sentence in REUSE_SENTENCES:
        run_method(tokenize(sentence), lexicon, decls, hierarchy, "both")
    assert compiled == []


@pytest.mark.parametrize("method", ["bg", "index"])
def test_tokens_of_one_word_keep_their_own_nodes(hierarchy, decls, method):
    # a lexicon of its own: the charts below replace its kept edges
    lexicon = load_lexicon(data.LEXICON.read_text(), hierarchy, decls)
    tokens = tokenize("list the printer of the printer that retire")
    one, two = (Chart(tokens, lexicon, decls, hierarchy, method)
                for _ in range(2))
    # equal resources that are other objects
    other_hierarchy = load_hierarchy(data.HIERARCHY.read_text())
    other_decls = load_declarations(data.DECLS.read_text(), hierarchy)
    three = Chart(tokens, lexicon, decls, other_hierarchy, method)
    four = Chart(tokens, lexicon, other_decls, hierarchy, method)
    for sense in range(2):      # printer_person, printer_peripheral
        first = one.cells[2, 3][sense].parts
        second = one.cells[5, 6][sense].parts
        assert first.entries == second.entries
        assert first.index is not second.index
        assert len(first.restr) == len(second.restr) == (method == "bg")
        assert all(a is not b for a in first.restr for b in second.restr)
        # the two tokens of one chart get distinct edges
        assert one.cells[2, 3][sense] is not one.cells[5, 6][sense]
        # a later chart reuses the edge at each position, sign and all
        assert two.cells[2, 3][sense] is one.cells[2, 3][sense]
        assert two.cells[5, 6][sense] is one.cells[5, 6][sense]
        # but not under another hierarchy or declarations object
        for other in (three, four):
            assert other.cells[2, 3][sense] is not one.cells[2, 3][sense]
            assert other.cells[2, 3][sense].parts is not first


def test_compiled_signs_die_with_their_lexicon(hierarchy, decls):
    lexicon = load_lexicon(data.LEXICON.read_text(), hierarchy, decls)
    reports, _ = run_method(tokenize("tom ate a banana"), lexicon, decls,
                            hierarchy, "both")
    tom = weakref.ref(lexicon["tom"][0])
    assert lexicon.edges    # the parse kept its edges in the lexicon
    del lexicon, reports
    assert tom() is None


def test_dropped_resources_free_themselves_without_the_collector():
    # kept edges name their hierarchy and declarations, and no edge names
    # its lexicon, so the last reference frees all three without a cycle
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        hierarchy, lexicon, decls = selparse.load_resources()
        for sentence in ("tom ate a banana", ladder("sense", 2)):
            for method in ("bg", "index", "both"):
                run_method(tokenize(sentence), lexicon, decls, hierarchy,
                           method)
        assert lexicon.edges
        kept = weakref.ref(hierarchy)
        del hierarchy, lexicon, decls
        assert gc.collect() == 0
        assert kept() is None
    finally:
        if enabled:
            gc.enable()


def test_a_kept_sign_follows_the_declarations_and_hierarchy_given(
        hierarchy, decls, monkeypatch):
    lexicon = load_lexicon(data.LEXICON.read_text(), hierarchy, decls)
    artifacts = load_declarations(
        data.DECLS.read_text().replace("eaten: edible", "eaten: artifact"),
        hierarchy)
    tokens = tokenize("tom ate a keyboard")
    compiled = []

    def counting(entry, decls, method, hierarchy):
        compiled.append(entry.phon)
        return compile_entry(entry, decls, method, hierarchy)

    monkeypatch.setattr(selparse.parser, "compile_entry", counting)

    def ate(decls, hierarchy=hierarchy):
        chart = Chart(tokens, lexicon, decls, hierarchy, "index")
        sign = chart.cells[1, 2][0].parts
        return [index.sort for index in sign.indices], chart.readings()

    assert ate(decls) == (["animate", "edible"], [])
    assert len(ate(artifacts)[1]) == 1
    assert ate(artifacts)[0] == ["animate", "artifact"]
    assert ate(decls)[0] == ["animate", "edible"]
    assert compiled.count("ate") == 3       # a miss on each change of decls
    # an equal hierarchy that is another object compiles anew too
    compiled.clear()
    ate(decls, load_hierarchy(data.HIERARCHY.read_text()))
    assert compiled == ["tom", "ate", "a", "keyboard"]



@pytest.mark.parametrize("method", ["bg", "index", "both"])
def test_a_chart_rejects_a_sort_its_hierarchy_lacks(hierarchy, decls, method):
    # a lexicon or declarations loaded against a larger hierarchy name a
    # sort the chart's hierarchy lacks: an error, not a changed verdict
    text = data.HIERARCHY.read_text()
    lexicon = load_lexicon(data.LEXICON.read_text(), hierarchy, decls)
    no_keybd = load_hierarchy("".join(line for line in text.splitlines(True)
                                      if not line.startswith("keybd")))
    with pytest.raises(GrammarError,
                       match="^'keyboard': unknown sort 'keybd'$"):
        run_method(tokenize("tom ate a keyboard"), lexicon, decls, no_keybd,
                   method)

    gadgets = load_hierarchy(text + "gadget: artifact\n")
    fiddle = load_declarations(
        data.DECLS.read_text() + "fiddle(fiddler: person, fiddled: gadget)\n",
        gadgets)
    fiddled = load_lexicon(
        data.LEXICON.read_text() + "fiddled | verb | fiddle | trans\n",
        gadgets, fiddle)
    with pytest.raises(GrammarError, match="^'fiddled': unknown sort 'gadget' "
                                           "for role 'fiddled'$"):
        run_method(tokenize("tom fiddled the keyboard"), fiddled, fiddle,
                   hierarchy, method)
