"""Acceptance suite: exact reproduction of the bundled examples plus the
property batteries, one test per criterion.  Run with -s to see the
per-criterion pass lines."""

import random
from itertools import permutations, product

from conftest import (CORPUS_SENTENCES, brute_maximal_lower_bounds,
                      parse_sentence, random_structure)
from selparse.parser import Chart, run_method, tokenize
from selparse.selres import (ConstraintAtom, Satisfiable, Violation,
                             check_reading, extract_constraints, solve)
from selparse.tfs import UnificationFailure, isomorphic, subsumes_fs, unify


def _passed(number, message):
    print(f"criterion {number}: PASS - {message}")


def test_criterion_1_keyboard_rejected_both_ways(hierarchy, lexicon, decls):
    readings = parse_sentence("tom ate a keyboard", lexicon, decls,
                              hierarchy, "bg")
    assert len(readings) == 1
    verdict = check_reading(readings[0], hierarchy)
    assert isinstance(verdict, Violation)
    assert verdict.var == 2
    assert verdict.conflicting == {"keybd", "edible"}
    assert parse_sentence("tom ate a keyboard", lexicon, decls,
                          hierarchy, "index") == []
    _passed(1, "keyboard sentence: 1 parse + violation {keybd, edible} on "
               "var 2 under bg; 0 parses under index")


def test_criterion_2_banana_residual_constraints(hierarchy, lexicon, decls):
    readings = parse_sentence("tom ate a banana", lexicon, decls,
                              hierarchy, "bg")
    assert len(readings) == 1
    verdict = check_reading(readings[0], hierarchy)
    assert isinstance(verdict, Satisfiable)
    assert verdict.assignment == {2: "banana", 1: "man"}
    _passed(2, "banana sentence reduces to exactly {2: banana, 1: man}")


def test_criterion_3_repair_pair(hierarchy, lexicon, decls):
    readings = parse_sentence("tom repaired the technician", lexicon, decls,
                              hierarchy, "bg")
    assert len(readings) == 1
    verdict = check_reading(readings[0], hierarchy)
    assert isinstance(verdict, Violation)
    assert verdict.conflicting == {"technician", "artifact"}
    assert parse_sentence("tom repaired the technician", lexicon, decls,
                          hierarchy, "index") == []

    reports, _ = run_method(tokenize("tom repaired the keyboard"),
                            lexicon, decls, hierarchy, "both")
    assert [(r.pre_filter, r.post_filter) for r in reports] == [(1, 1)] * 2
    _passed(3, "repairing the technician rejected {technician, artifact}; "
               "repairing the keyboard accepted both ways")


def test_criterion_4_word_sense_disambiguation(hierarchy, lexicon, decls):
    expectations = [
        ("tom repaired the printer", "printer_peripheral"),
        ("the printer called", "printer_person"),
    ]
    for sentence, surviving_sense in expectations:
        tokens = tokenize(sentence)
        reports, _ = run_method(tokens, lexicon, decls, hierarchy, "both")
        assert [(r.pre_filter, r.post_filter) for r in reports] \
            == [(2, 1)] * 2
        survivors = [
            r for r in parse_sentence(sentence, lexicon, decls, hierarchy,
                                      "bg")
            if isinstance(check_reading(r, hierarchy), Satisfiable)]
        assert len(survivors) == 1
        senses = {entry.sense_id
                  for entry in survivors[0].entries
                  if entry.phon == "printer"}
        assert senses == {surviving_sense}
    _passed(4, "printer sentences: pre=2 post=1 with the expected senses")


def test_criterion_5_attachment_disambiguation(hierarchy, lexicon, decls):
    sentence = "list the employees of the departments that retire"
    readings = parse_sentence(sentence, lexicon, decls, hierarchy, "bg")
    assert len(readings) == 2
    survivors = [r for r in readings
                 if isinstance(check_reading(r, hierarchy), Satisfiable)]
    assert len(survivors) == 1
    assert survivors[0].derivation_string == (
        "(S list (NP (NP (NP the employees) (PP of (NP the departments)))"
        " (RelC that (VP retire))))")
    _passed(5, "2 syntactic parses, 1 survivor with the relative clause "
               "on 'employees'")


def test_criterion_6_method_agreement_suite(hierarchy, lexicon, decls):
    for sentence in CORPUS_SENTENCES:
        bg_surviving = {
            r.identity
            for r in parse_sentence(sentence, lexicon, decls, hierarchy, "bg")
            if isinstance(check_reading(r, hierarchy), Satisfiable)}
        index_surviving = {
            r.identity
            for r in parse_sentence(sentence, lexicon, decls, hierarchy,
                                    "index")}
        assert bg_surviving == index_surviving, sentence
    _passed(6, f"surviving reading sets agree on all "
               f"{len(CORPUS_SENTENCES)} corpus sentences")


def test_criterion_7_property_suites(hierarchy):
    sorts = sorted(hierarchy.sorts)

    # subsumption partial-order laws, exhaustively
    for a in sorts:
        assert hierarchy.subsumes(a, a)
    for a, b in product(sorts, repeat=2):
        if hierarchy.subsumes(a, b) and hierarchy.subsumes(b, a):
            assert a == b
    for a, b, c in product(sorts, repeat=3):
        if hierarchy.subsumes(a, b) and hierarchy.subsumes(b, c):
            assert hierarchy.subsumes(a, c)

    # glb fold-order invariance over every triple
    def fold(seq):
        acc = seq[0]
        for s in seq[1:]:
            if acc is None:
                return None
            acc = hierarchy.glb(acc, s)
        return acc

    for triple in product(sorts, repeat=3):
        assert len({fold(list(p)) for p in permutations(triple)}) == 1

    # unify laws on randomized structures
    rng = random.Random(977)
    for _ in range(150):
        a = random_structure(rng, hierarchy)
        b = random_structure(rng, hierarchy)
        ab, ba = unify(a, b, hierarchy), unify(b, a, hierarchy)
        if isinstance(ab, UnificationFailure):
            assert isinstance(ba, UnificationFailure)
        else:
            assert isomorphic(ab, ba)
            assert subsumes_fs(a, ab, hierarchy)
            assert subsumes_fs(b, ab, hierarchy)
        assert isomorphic(unify(a, a, hierarchy), a)

    # solve order-invariance under every permutation of small multisets
    def outcome(verdict):
        if isinstance(verdict, Satisfiable):
            return ("sat", tuple(sorted(verdict.assignment.items())))
        return ("violation", verdict.var, tuple(sorted(verdict.conflicting)))

    multisets = [
        [ConstraintAtom("keybd", 2), ConstraintAtom("man", 1),
         ConstraintAtom("edible", 2)],
        [ConstraintAtom("banana", 2), ConstraintAtom("man", 1),
         ConstraintAtom("edible", 2), ConstraintAtom("animate", 1)],
        [ConstraintAtom("man", 1), ConstraintAtom("technician", 1),
         ConstraintAtom("person", 1), ConstraintAtom("banana", 2),
         ConstraintAtom("edible", 2)],
    ]
    for atoms in multisets:
        assert len(atoms) <= 5
        assert len({outcome(solve(list(p), hierarchy))
                    for p in permutations(atoms)}) == 1

    # solve vs the brute-force sort-scan oracle on 200 random multisets
    def oracle(per_var_sorts):
        common = [s for s in sorts
                  if all(hierarchy.subsumes(c, s) for c in per_var_sorts)]
        return {s for s in common
                if not any(t != s and hierarchy.subsumes(t, s)
                           for t in common)}

    rng = random.Random(31905)
    for _ in range(200):
        per_var = {var: [rng.choice(sorts)
                         for _ in range(rng.randint(1, 4))]
                   for var in range(1, rng.randint(2, 4))}
        atoms = [ConstraintAtom(s, var)
                 for var, chosen in per_var.items() for s in chosen]
        rng.shuffle(atoms)
        verdict = solve(atoms, hierarchy)
        if isinstance(verdict, Satisfiable):
            for var, chosen in per_var.items():
                assert verdict.assignment[var] in oracle(chosen)
        else:
            assert oracle(per_var[verdict.var]) == set()

    _passed(7, "order laws, unify laws, fold invariance, permutation "
               "invariance and the oracle battery all hold")


def test_criterion_8_multiplicative_effect(hierarchy, lexicon, decls):
    tokens = tokenize("the printer repaired the printer")
    unfiltered = Chart(tokens, lexicon, decls, hierarchy, "bg")
    assert len(unfiltered.readings()) == 4  # two 2-way ambiguous nouns

    pruned = Chart(tokens, lexicon, decls, hierarchy, "index")
    assert len(pruned.readings()) == 1
    assert pruned.edges_built < unfiltered.edges_built

    reports, _ = run_method(tokens, lexicon, decls, hierarchy, "both")
    assert [(r.pre_filter, r.post_filter) for r in reports] == [(4, 1)] * 2
    _passed(8, f"pre=4 post=1; chart edges {pruned.edges_built} (index) < "
               f"{unfiltered.edges_built} (unfiltered)")
