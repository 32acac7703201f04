import random
from dataclasses import replace
from itertools import permutations

import pytest

from conftest import (CORPUS_SENTENCES, brute_maximal_lower_bounds, ladder,
                      meet_name, parse_sentence)
from selparse import data, selres
from selparse.grammar import (Relation, compile_entry, load_declarations,
                              load_lexicon, render_sign)
from selparse.parser import Edge, run_method, tokenize
from selparse.selres import (ConstraintAtom, Satisfiable, Violation,
                             check_reading, extract_constraints, merge_pair,
                             solve)
from selparse.sorts import SortHierarchy, load_hierarchy
from selparse.tfs import unify_map

# not BCPO: a and b meet in both x and y, and only y lies below c
BRANCHING = load_hierarchy("top\na: top\nb: top\nc: top\nx: a, b\n"
                           "y: a, b, c\n")


def atom(sort, var, source=None):
    return ConstraintAtom(sort, var, source)


def one_reading(sentence, lexicon, decls, hierarchy):
    readings = parse_sentence(sentence, lexicon, decls, hierarchy, "bg")
    assert len(readings) == 1
    return readings[0]


def as_pairs(atoms):
    return sorted((a.sort, a.var) for a in atoms)


def test_extract_keyboard_sentence(hierarchy, lexicon, decls):
    reading = one_reading("tom ate a keyboard", lexicon, decls, hierarchy)
    atoms = extract_constraints(reading, hierarchy)
    # the object/noun constraints plus the uniformly emitted subject one
    assert as_pairs(atoms) == [("animate", 1), ("edible", 2),
                               ("keybd", 2), ("man", 1)]
    assert {("keybd", 2), ("man", 1), ("edible", 2)} <= set(as_pairs(atoms))


def test_extract_banana_sentence(hierarchy, lexicon, decls):
    reading = one_reading("tom ate a banana", lexicon, decls, hierarchy)
    atoms = extract_constraints(reading, hierarchy)
    assert {("banana", 2), ("man", 1), ("edible", 2)} <= set(as_pairs(atoms))


def test_extract_skips_relations_without_matching_sort(hierarchy, lexicon,
                                                       decls):
    # naming has two roles; call names no sort; neither may become an atom
    reading = one_reading("tom called", lexicon, decls, hierarchy)
    atoms = extract_constraints(reading, hierarchy)
    assert as_pairs(atoms) == [("man", 1), ("person", 1)]


def test_extract_nothing_from_bare_sign(hierarchy, lexicon, decls):
    sign = compile_entry(lexicon["the"][0], decls, "bg", hierarchy)
    reading = Edge(0, 1, "s", sign)
    assert extract_constraints(reading, hierarchy) == []


def test_merge_pair_examples(hierarchy):
    assert merge_pair(atom("banana", 2), atom("edible", 2), hierarchy) \
        == {atom("banana", 2)}
    assert merge_pair(atom("keybd", 2), atom("edible", 2), hierarchy) \
        == frozenset()
    assert brute_maximal_lower_bounds(hierarchy, "man", "technician") \
        == {"male_tech"}
    assert merge_pair(atom("man", 1), atom("technician", 1), hierarchy) \
        == {atom("male_tech", 1)}


def test_merge_pair_variable_mismatch_is_a_fault(hierarchy):
    with pytest.raises(ValueError, match="different variables"):
        merge_pair(atom("man", 1), atom("edible", 2), hierarchy)


def test_solve_examples(hierarchy):
    verdict = solve([atom("keybd", 2), atom("man", 1), atom("edible", 2)],
                    hierarchy)
    assert isinstance(verdict, Violation)
    assert verdict.var == 2
    assert verdict.conflicting == {"keybd", "edible"}

    verdict = solve([atom("banana", 2), atom("man", 1), atom("edible", 2)],
                    hierarchy)
    assert isinstance(verdict, Satisfiable)
    assert verdict.assignment == {2: "banana", 1: "man"}

    verdict = solve([atom("man", 1)], hierarchy)
    assert verdict.assignment == {1: "man"}


def test_solve_empty(hierarchy):
    assert solve([], hierarchy).assignment == {}


def test_solve_idempotent_on_reduced_input(hierarchy):
    atoms = [atom("man", 1), atom("banana", 2), atom("keybd", 3)]
    verdict = solve(atoms, hierarchy)
    assert verdict.assignment == {1: "man", 2: "banana", 3: "keybd"}


def test_check_reading_examples(hierarchy, lexicon, decls):
    verdict = check_reading(
        one_reading("tom ate a keyboard", lexicon, decls, hierarchy), hierarchy)
    assert isinstance(verdict, Violation)
    assert verdict.var == 2

    verdict = check_reading(
        one_reading("tom repaired the keyboard", lexicon, decls, hierarchy),
        hierarchy)
    assert verdict.assignment == {2: "keybd", 1: "man"}

    verdict = check_reading(
        one_reading("tom repaired the technician", lexicon, decls, hierarchy),
        hierarchy)
    assert isinstance(verdict, Violation)
    assert (verdict.var, verdict.conflicting) \
        == (2, {"technician", "artifact"})


def test_violation_narrative_format(hierarchy, lexicon, decls):
    verdict = check_reading(
        one_reading("tom ate a keyboard", lexicon, decls, hierarchy), hierarchy)
    assert verdict.narrative \
        == "violation: var=2 sorts=keybd,edible from=keyboard,ate"
    verdict = check_reading(
        one_reading("tom repaired the technician", lexicon, decls, hierarchy),
        hierarchy)
    assert verdict.narrative \
        == "violation: var=2 sorts=technician,artifact from=technician,repaired"


def _outcome(verdict):
    if isinstance(verdict, Satisfiable):
        return ("sat", tuple(sorted(verdict.assignment.items())))
    return ("violation", verdict.var, tuple(sorted(verdict.conflicting)))


@pytest.mark.parametrize("atoms", [
    [atom("keybd", 2), atom("man", 1), atom("edible", 2)],
    [atom("banana", 2), atom("man", 1), atom("edible", 2), atom("animate", 1)],
    [atom("man", 1), atom("technician", 1), atom("person", 1),
     atom("banana", 2), atom("edible", 2)],
])
def test_solve_order_invariant_all_permutations(hierarchy, atoms):
    outcomes = {_outcome(solve(list(p), hierarchy))
                for p in permutations(atoms)}
    assert len(outcomes) == 1


def test_solve_agrees_with_sort_scan_oracle(hierarchy):
    rng = random.Random(20240817)
    for hierarchy in (hierarchy, BRANCHING):
        sorts = sorted(hierarchy.sorts)
        for _ in range(200):
            atoms = []
            per_var = {}
            for var in range(1, rng.randint(2, 4)):
                chosen = [rng.choice(sorts) for _ in range(rng.randint(1, 4))]
                per_var[var] = chosen
                atoms.extend(atom(s, var) for s in chosen)
            rng.shuffle(atoms)
            verdict = solve(atoms, hierarchy)
            feasible = {var: brute_maximal_lower_bounds(hierarchy, *chosen)
                        for var, chosen in per_var.items()}
            if isinstance(verdict, Satisfiable):
                assert all(feasible[var] for var in per_var)
                for var, sort in verdict.assignment.items():
                    assert sort == meet_name(feasible[var])
                    for constraint in per_var[var]:
                        assert hierarchy.subsumes(constraint, sort)
            else:
                assert feasible[verdict.var] == set()


def fold_every_variable(atoms, hierarchy):
    """Each variable folded: (var, sort) pairs, up to one (var, conflict)."""
    grouped = {}
    for a in atoms:
        grouped.setdefault(a.var, []).append((a.sort, a.source))
    out = []
    for var in sorted(grouped):
        final, conflict = selres._reduce_variable(grouped[var], hierarchy)
        out.append((var, final or conflict))
        if final is None:
            break
    return out


@pytest.fixture
def tie_branches(monkeypatch):
    """The pairs `maximal_lower_bounds` is asked for: a fold never asks."""
    calls = []
    original = SortHierarchy.maximal_lower_bounds

    def counting(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(SortHierarchy, "maximal_lower_bounds", counting)
    return calls


@pytest.mark.parametrize("atoms", [
    [atom("gizmo", 1)],                     # alone: taken without a fold
    [atom("man", 1), atom("gizmo", 1)],
], ids=["one-atom", "two-atom"])
def test_solve_rejects_an_undeclared_sort(hierarchy, atoms):
    with pytest.raises(ValueError, match="^undeclared sort 'gizmo'$"):
        solve(atoms, hierarchy)


def test_solve_merges_nothing_for_one_atom_variables(hierarchy, tie_branches):
    atoms = [atom("man", 1), atom("banana", 2), atom("keybd", 3)]
    assert solve(atoms, hierarchy) \
        == Satisfiable({1: "man", 2: "banana", 3: "keybd"})
    assert tie_branches == []


def test_solve_meets_a_tie_in_its_completion(tie_branches):
    # a ^ b is the tie {x|y}; x fails against c, so {x|y} ^ c is y alone,
    # without a branch
    assert solve([atom("a", 1), atom("b", 1)], BRANCHING) \
        == Satisfiable({1: "{x|y}"})
    atoms = [atom("a", 1), atom("b", 1), atom("c", 1)]
    assert solve(atoms, BRANCHING) == Satisfiable({1: "y"})
    assert tie_branches == []


@pytest.mark.parametrize("sentence", [
    *CORPUS_SENTENCES,
    *(ladder("attachment", k) for k in range(1, 7)),
    *(ladder("sense", k) for k in range(1, 4)),
])
def test_solve_merges_once_per_extra_atom_on_a_bcpo_hierarchy(
        hierarchy, lexicon, decls, tie_branches, monkeypatch, sentence):
    # the bundled hierarchy is BCPO, so a fold never branches; a violation
    # stops it early, and a one-atom variable takes its sort unfolded
    assert hierarchy.bcpo_violations() == []
    readings = parse_sentence(sentence, lexicon, decls, hierarchy, "bg")
    assert readings
    cases = []
    for reading in readings:
        atoms = extract_constraints(reading, hierarchy)
        cases.append((reading, atoms, fold_every_variable(atoms, hierarchy)))
    reduce_variable, reduced = selres._reduce_variable, []
    fold, folds = selres._fold, []      # the groups each fold reduced

    def counting(group, hierarchy):
        reduced.append(group)
        return reduce_variable(group, hierarchy)

    def counting_fold(grouped, hierarchy):
        reduced.clear()
        verdict = fold(grouped, hierarchy)
        folds.append([list(group) for group in reduced])
        return verdict

    monkeypatch.setattr(selres, "_reduce_variable", counting)
    monkeypatch.setattr(selres, "_fold", counting_fold)
    checked = {}    # id -> each verdict check_reading returned, kept alive
    for reading, atoms, folded in cases:
        groups = {}
        for a in atoms:
            groups.setdefault(a.var, []).append((a.sort, a.source))
        multi = [groups[var] for var, _ in folded if len(groups[var]) > 1]
        verdicts = solve(atoms, hierarchy), check_reading(reading, hierarchy)
        for verdict in verdicts:
            if isinstance(verdict, Satisfiable):
                assert list(verdict.assignment.items()) == folded
            else:
                var, ((s1, sources1), (s2, sources2)) = folded[-1]
                words = ",".join((*sources1, *sources2))
                narrative = f"violation: var={var} sorts={s1},{s2}" \
                    + (f" from={words}" if words else "")
                assert (verdict.var, verdict.conflicting, verdict.narrative) \
                    == (var, {s1, s2}, narrative)
        # each fold reduces each variable with two or more atoms, once;
        # solve folds on every call, check_reading once per constraint set
        first_check = id(verdicts[1]) not in checked
        checked[id(verdicts[1])] = verdicts[1]
        assert folds == [multi] * (1 + first_check)
        folds.clear()
    assert tie_branches == []


def test_check_reading_equals_solving_the_extracted_atoms(
        hierarchy, lexicon, decls, tie_branches, monkeypatch):
    # the bundled hierarchy plus a tie: animate ^ banana is {x|y}
    tie = load_hierarchy(data.HIERARCHY.read_text()
                         + "x: person, banana\ny: person, banana\n")
    tie_decls = load_declarations(data.DECLS.read_text(), tie)
    tie_lexicon = load_lexicon(data.LEXICON.read_text(), tie, tie_decls)
    cases = [(reading, hierarchy)
             for sentence in (*CORPUS_SENTENCES,
                              *(ladder("attachment", k) for k in range(1, 7)),
                              *(ladder("sense", k) for k in range(1, 4)))
             for reading in parse_sentence(sentence, lexicon, decls,
                                           hierarchy, "bg")]
    cases += [(reading, tie) for reading in parse_sentence(
        "a banana ate a banana", tie_lexicon, tie_decls, tie, "bg")]
    expected = [solve(extract_constraints(reading, h), h)
                for reading, h in cases]
    assert tie_branches == []
    assert {type(v) for v in expected} == {Satisfiable, Violation}

    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return ConstraintAtom(*args, **kwargs)

    monkeypatch.setattr(selres, "ConstraintAtom", counting)
    tie_branches.clear()
    for (reading, h), want in zip(cases, expected):
        got = check_reading(reading, h)
        assert type(got) is type(want)
        if isinstance(want, Satisfiable):
            assert list(got.assignment.items()) \
                == list(want.assignment.items())
        else:
            assert got == want      # var, conflicting sorts and narrative
    assert expected[-1] == Satisfiable({1: "{x|y}", 2: "banana"})
    assert tie_branches == []
    assert built == []


def test_satisfiable_assignments_are_sound_on_corpus(hierarchy, lexicon,
                                                     decls):
    for sentence in CORPUS_SENTENCES:
        for reading in parse_sentence(sentence, lexicon, decls, hierarchy,
                                      "bg"):
            atoms = extract_constraints(reading, hierarchy)
            verdict = solve(atoms, hierarchy)
            if isinstance(verdict, Satisfiable):
                for constraint in atoms:
                    assert hierarchy.subsumes(
                        constraint.sort, verdict.assignment[constraint.var])


def unified_reading(reading, hierarchy):
    """The reading as a bind-free edge whose index nodes one unify_map built.

    This is how a read sign was built before readings were checked through
    their variables: every index node the parts reach is copied into a fresh
    graph in which the binds are unified, each relation instance is rebuilt
    over the copies, and background instances made identical are kept once,
    the first of them.
    """
    parts = reading.parts
    roots = [node for node in (parts.index, *parts.subj, *parts.comps,
                               *parts.indices)
             if node is not None]
    mapping = unify_map([(slot, index) for slot, index, _ in reading.binds],
                        roots, hierarchy)

    def rebuilt(ref):   # an atom filler is no node and stays as it is
        return Relation(ref.sort, tuple((role, mapping.get(filler, filler))
                                        for role, filler in ref.roles),
                        ref.source)

    def refs(instances):
        return tuple(rebuilt(r) for r in instances)

    bg = {}
    for ref in refs(parts.bg):
        key = (ref.sort, tuple((role, id(filler))
                               for role, filler in ref.roles))
        bg.setdefault(key, ref)
    sign = replace(parts, indices=tuple(mapping[n] for n in parts.indices),
                   index=mapping.get(parts.index),
                   nucleus=parts.nucleus and rebuilt(parts.nucleus),
                   subj=tuple(mapping[s] for s in parts.subj),
                   comps=tuple(mapping[s] for s in parts.comps),
                   restr=refs(parts.restr), quants=refs(parts.quants),
                   bg=tuple(bg.values()))
    return Edge(reading.start, reading.end, reading.cat, sign)


def verdict(result):
    if isinstance(result, Satisfiable):
        return result.assignment
    return (result.var, result.conflicting, result.narrative)


def with_sources(atoms):
    return [(a.sort, a.var, a.source) for a in atoms]


@pytest.mark.parametrize("sentence", [
    *CORPUS_SENTENCES,
    "the employees that retire retire",   # two identical bg instances
    *(ladder("attachment", k) for k in range(1, 6)),
    *(ladder("sense", k) for k in range(1, 4)),
])
def test_reading_variables_agree_with_unifying_the_sign(hierarchy, lexicon,
                                                        decls, sentence):
    reports, _ = run_method(tokenize(sentence), lexicon, decls, hierarchy,
                            "both")
    bg, index = reports
    assert bg.pre_filter > 0
    for report in reports:
        for reading, _ in (*report.surviving, *report.violations):
            old = unified_reading(reading, hierarchy)
            assert with_sources(extract_constraints(reading, hierarchy)) \
                == with_sources(extract_constraints(old, hierarchy))
            assert verdict(check_reading(reading, hierarchy)) \
                == verdict(check_reading(old, hierarchy))
            assert render_sign(reading.parts, reading.variables,
                               reading.sorts) \
                == render_sign(old.parts, old.variables, old.sorts)
    for reading, assignment in bg.surviving:
        old = unified_reading(reading, hierarchy)
        assert verdict(check_reading(old, hierarchy)) == assignment
    for reading, violation in bg.violations:
        old = unified_reading(reading, hierarchy)
        assert verdict(check_reading(old, hierarchy)) == verdict(violation)
    for reading, assignment in index.surviving:
        assert unified_reading(reading, hierarchy).sorts == assignment


def test_bg_constraints_made_identical_count_once(hierarchy):
    # both relative clauses restrict the one employee to person, so the bg
    # set holds person(inst) twice on variable 1; the solver sees it once
    decls = load_declarations(data.DECLS.read_text()
                              + "beep(beeper: artifact)\n", hierarchy)
    lexicon = load_lexicon(data.LEXICON.read_text()
                           + "beep | verb | beep | intrans\n",
                           hierarchy, decls)
    sentence = "the employees that retire that retire beep"
    (bg, index), agree = run_method(tokenize(sentence), lexicon, decls,
                                    hierarchy, "both")
    assert (bg.pre_filter, bg.post_filter, index.post_filter, agree) \
        == (1, 0, 0, True)
    ((reading, violation),) = bg.violations
    assert [r.sort for r in reading.parts.bg].count("person") == 2
    assert violation.narrative == ("violation: var=1 sorts=employee,artifact"
                                   " from=employees,retire,beep")
    assert with_sources(extract_constraints(reading, hierarchy)) \
        == [("employee", 1, "employees"), ("person", 1, "retire"),
            ("artifact", 1, "beep")]
    rendered = render_sign(reading.parts, reading.variables, reading.sorts)
    assert "cx|bg: { person(inst: #1:ref), artifact(inst: #1:ref) }" \
        in rendered.splitlines()
