import gc
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_structure
from selparse import data
from selparse.parser import Chart, tokenize
from selparse.selres import check_reading
from selparse.sorts import load_hierarchy
from selparse.tfs import (FeatureStructure, UnificationFailure, isomorphic,
                          subsumes_fs, unify, unify_map)


def fs(sort, **feats):
    return FeatureStructure(sort, dict(feats))


def test_index_sort_conflict_fails(hierarchy):
    result = unify(fs("edible"), fs("keybd"), hierarchy)
    assert isinstance(result, UnificationFailure)
    assert not result
    assert set(result.sorts) == {"edible", "keybd"}
    assert result.path == ()


def test_index_sorts_meet(hierarchy):
    result = unify(fs("edible"), fs("banana"), hierarchy)
    assert result.sort == "banana"


def test_unify_self_is_isomorphic(hierarchy):
    shared = fs("man")
    a = fs("sign", f=shared, g=shared)
    result = unify(a, a, hierarchy)
    assert isomorphic(result, a)
    assert result is not a


def test_structural_sorts_require_equality(hierarchy):
    assert unify(fs("sign"), fs("sign"), hierarchy).sort == "sign"
    assert isinstance(unify(fs("sign"), fs("cat"), hierarchy),
                      UnificationFailure)
    # atoms behave the same way
    assert isinstance(unify(fs("Tom"), fs("Sue"), hierarchy),
                      UnificationFailure)


def test_a_tie_meets_in_its_completion():
    # the bundled hierarchy plus a tie: animate ^ banana is {x|y}
    tie = load_hierarchy(data.HIERARCHY.read_text()
                         + "x: person, banana\ny: person, banana\n")
    nodes = animate, banana, person = fs("animate"), fs("banana"), fs("person")
    got = unify_map([(animate, banana), (banana, person)], nodes, tie)
    assert {got[node].sort for node in nodes} == {"{x|y}"}
    assert all(subsumes_fs(node, got[node], tie) for node in nodes)
    # a completion meets as a sort; an atom still meets only itself
    assert unify(got[person], fs("x"), tie).sort == "x"
    assert isinstance(unify(got[person], fs("Tom"), tie), UnificationFailure)


def test_failure_path_reported(hierarchy):
    a = fs("sign", cont=fs("cont", index=fs("edible")))
    b = fs("sign", cont=fs("cont", index=fs("keybd")))
    result = unify(a, b, hierarchy)
    assert isinstance(result, UnificationFailure)
    assert result.path == ("cont", "index")
    assert "cont|index" in str(result)


def test_root_conflict_fails_regardless_of_features(hierarchy):
    a = fs("keybd", f=fs("ref"), g=fs("ref", h=fs("man")))
    b = fs("edible")
    assert isinstance(unify(a, b, hierarchy), UnificationFailure)
    assert isinstance(unify(b, a, hierarchy), UnificationFailure)


def test_features_merge_and_reentrancy_propagates(hierarchy):
    shared = fs("ref")
    a = fs("sign", f=shared, g=shared)
    b = fs("sign", f=fs("ref", marked=fs("banana")))
    result = unify(a, b, hierarchy)
    assert result.feats["f"] is result.feats["g"]
    # information reached g through the sharing in a
    assert result.feats["g"].feats["marked"].sort == "banana"


def test_inputs_not_mutated(hierarchy):
    inner_a = fs("edible")
    a = fs("sign", f=inner_a)
    b = fs("sign", f=fs("banana"), g=fs("ref"))
    unify(a, b, hierarchy)
    assert inner_a.sort == "edible"
    assert list(a.feats) == ["f"]


def test_unification_may_create_cycles_and_still_terminates(hierarchy):
    # the classic construction: sharing in one input, nesting in the other
    shared = fs("ref")
    a = fs("sign", f=shared, g=shared)
    b = fs("sign", f=fs("ref", h=fs("ref")), g=fs("ref"))
    b.feats["g"] = b.feats["f"].feats["h"]
    result = unify(a, b, hierarchy)
    assert result.feats["f"] is result.feats["g"]
    assert result.feats["f"].feats["h"] is result.feats["f"]


def test_subsumes_fs_examples(hierarchy):
    assert subsumes_fs(fs("ref"), fs("banana"), hierarchy)
    assert not subsumes_fs(fs("banana"), fs("edible"), hierarchy)


def test_subsumes_fs_requires_features_and_sharing(hierarchy):
    general = fs("sign", f=fs("ref"))
    specific = fs("sign", f=fs("man"), g=fs("ref"))
    assert subsumes_fs(general, specific, hierarchy)
    assert not subsumes_fs(specific, general, hierarchy)

    shared = fs("ref")
    reentrant = fs("sign", f=shared, g=shared)
    flat = fs("sign", f=fs("ref"), g=fs("ref"))
    assert not subsumes_fs(reentrant, flat, hierarchy)
    assert subsumes_fs(flat, reentrant, hierarchy)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_unify_commutative(hierarchy, seed):
    rng = random.Random(seed)
    a = random_structure(rng, hierarchy)
    b = random_structure(rng, hierarchy)
    ab = unify(a, b, hierarchy)
    ba = unify(b, a, hierarchy)
    if isinstance(ab, UnificationFailure):
        assert isinstance(ba, UnificationFailure)
    else:
        assert isomorphic(ab, ba)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_unify_idempotent(hierarchy, seed):
    rng = random.Random(seed)
    a = random_structure(rng, hierarchy)
    assert isomorphic(unify(a, a, hierarchy), a)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_unify_monotone(hierarchy, seed):
    rng = random.Random(seed)
    a = random_structure(rng, hierarchy)
    b = random_structure(rng, hierarchy)
    c = unify(a, b, hierarchy)
    if not isinstance(c, UnificationFailure):
        assert subsumes_fs(a, c, hierarchy)
        assert subsumes_fs(b, c, hierarchy)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_unify_associative_when_all_succeed(hierarchy, seed):
    rng = random.Random(seed)
    a = random_structure(rng, hierarchy, max_depth=2)
    b = random_structure(rng, hierarchy, max_depth=2)
    c = random_structure(rng, hierarchy, max_depth=2)
    bc = unify(b, c, hierarchy)
    ab = unify(a, b, hierarchy)
    if isinstance(bc, UnificationFailure) or isinstance(ab, UnificationFailure):
        return
    left = unify(a, bc, hierarchy)
    right = unify(ab, c, hierarchy)
    if isinstance(left, UnificationFailure) or isinstance(right, UnificationFailure):
        assert isinstance(left, UnificationFailure)
        assert isinstance(right, UnificationFailure)
    else:
        assert isomorphic(left, right)


def test_unify_and_parse_leave_no_reference_cycles(hierarchy, lexicon, decls):
    # a unification, a parse and a check leave nothing for the cyclic
    # collector: such garbage costs a collection pass per few hundred calls
    gc.collect()
    gc.disable()
    try:
        unify(fs("sign", f=fs("person")), fs("sign", f=fs("animate")),
              hierarchy)
        Chart(tokenize("list the employees of the departments that retire"),
              lexicon, decls, hierarchy, "bg")
        for reading in Chart(tokenize("list the printer of the printer "
                                      "that retire"),
                             lexicon, decls, hierarchy, "bg").readings():
            check_reading(reading, hierarchy)
        assert gc.collect() == 0
    finally:
        gc.enable()
