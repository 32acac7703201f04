import random
from itertools import combinations, permutations, product

import pytest

from conftest import brute_maximal_lower_bounds
from selparse.sorts import (AmbiguousMeetError, HierarchyError, load_hierarchy)

# top with two incomparable children that share two maximal lower bounds
NON_BCPO = """\
top
a: top
b: top
c: a, b
d: a, b
"""


def random_dag(seed, size=30):
    """A seeded rooted DAG of `size` sorts, each with 1-3 earlier parents."""
    rng = random.Random(seed)
    lines = ["s0"]
    for i in range(1, size):
        parents = rng.sample(range(i), rng.randint(1, min(3, i)))
        lines.append(f"s{i}: " + ", ".join(f"s{p}" for p in parents))
    return load_hierarchy("\n".join(lines))


def test_default_hierarchy_shape(hierarchy):
    assert hierarchy.root == "ref"
    assert len(hierarchy) == 17
    assert hierarchy.parents["man"] == {"person"}
    assert hierarchy.parents["technician"] == {"person"}
    assert hierarchy.parents["male_tech"] == {"man", "technician"}


def test_minimal_hierarchy():
    h = load_hierarchy("ref\n")
    assert h.root == "ref"
    assert h.sorts == {"ref"}


def test_case_insensitive_load():
    h = load_hierarchy("REF\nPhysical: Ref\n")
    assert h.sorts == {"ref", "physical"}


def test_cycle_detected():
    with pytest.raises(HierarchyError, match="cycle"):
        load_hierarchy("root\na: b, root\nb: a\n")


def test_undeclared_parent():
    with pytest.raises(HierarchyError, match="undeclared parent 'nowhere'"):
        load_hierarchy("ref\nthing: nowhere\n")


@pytest.mark.parametrize("text, message", [
    ("ref\n9x: ref\n", "line 2: bad sort name '9x'"),
    ("ref\nx: ref, r-f\n", "line 2: bad parent name 'r-f'"),
    ("ref\n\n# x\nx: nope\n", "line 4: sort 'x' names undeclared parent 'nope'"),
    # w and v hang below the z-y cycle; the error names a sort on it
    ("ref\nq: ref\nw: z\nz: y\ny: z\nv: w\n",
     "line 4: cycle detected through sort 'z'"),
    ("root\na: b, root\nb: a\n", "line 2: cycle detected through sort 'a'"),
], ids=["sort-name", "parent-name", "undeclared", "below-cycle", "cycle"])
def test_hierarchy_error_names_its_line(text, message):
    with pytest.raises(HierarchyError) as info:
        load_hierarchy(text)
    assert str(info.value) == message


def test_duplicate_sort():
    with pytest.raises(HierarchyError, match="duplicate sort 'thing'"):
        load_hierarchy("ref\nthing: ref\nthing: ref\n")


def test_missing_and_multiple_roots():
    with pytest.raises(HierarchyError, match="no root"):
        load_hierarchy("a: b\nb: a\n")
    with pytest.raises(HierarchyError, match="multiple roots"):
        load_hierarchy("a\nb\n")


def test_empty_document():
    with pytest.raises(HierarchyError, match="empty"):
        load_hierarchy("# nothing here\n")


def test_subsumes_examples(hierarchy):
    assert hierarchy.subsumes("person", "man")
    assert hierarchy.subsumes("edible", "banana")
    assert hierarchy.subsumes("man", "man")
    assert not hierarchy.subsumes("man", "person")
    assert not hierarchy.subsumes("keybd", "edible")


def test_subsumes_unknown_sort(hierarchy):
    with pytest.raises(HierarchyError, match="unknown sort"):
        hierarchy.subsumes("person", "gadget")


def test_maximal_lower_bounds_examples(hierarchy):
    assert hierarchy.maximal_lower_bounds("keybd", "edible") == frozenset()
    assert brute_maximal_lower_bounds(hierarchy, "man", "technician") \
        == {"male_tech"}
    assert hierarchy.maximal_lower_bounds("man", "technician") == {"male_tech"}
    assert hierarchy.maximal_lower_bounds("edible", "banana") == {"banana"}


def test_maximal_lower_bounds_matches_oracle_everywhere(hierarchy):
    # the bundled hierarchy has one multi-parent sort; the non-BCPO one and
    # the random DAGs exercise many, with ties
    for h in [hierarchy, load_hierarchy(NON_BCPO)] \
            + [random_dag(seed) for seed in range(20)]:
        ties = []
        for a, b in product(sorted(h.sorts), repeat=2):
            expected = brute_maximal_lower_bounds(h, a, b)
            assert h.maximal_lower_bounds(a, b) == expected, (a, b)
            if a < b and len(expected) > 1:
                ties.append((a, b, expected))
        assert h.bcpo_violations() == ties


def test_glb_examples(hierarchy):
    assert hierarchy.glb("edible", "keybd") is None
    assert hierarchy.glb("edible", "banana") == "banana"
    assert brute_maximal_lower_bounds(hierarchy, "man", "technician") \
        == {"male_tech"}
    assert hierarchy.glb("man", "technician") == "male_tech"


def test_glb_ambiguous_on_non_bcpo_hierarchy():
    h = load_hierarchy(NON_BCPO)
    assert h.maximal_lower_bounds("a", "b") == {"c", "d"}
    with pytest.raises(AmbiguousMeetError):
        h.glb("a", "b")
    assert [(a, b) for a, b, _ in h.bcpo_violations()] == [("a", "b")]


def test_bundled_hierarchy_is_bcpo(hierarchy):
    assert hierarchy.bcpo_violations() == []


def test_subsumption_partial_order_laws(hierarchy):
    sorts = sorted(hierarchy.sorts)
    for a in sorts:
        assert hierarchy.subsumes(a, a)
    for a, b in combinations(sorts, 2):
        if hierarchy.subsumes(a, b) and hierarchy.subsumes(b, a):
            assert a == b
    for a, b, c in product(sorts, repeat=3):
        if hierarchy.subsumes(a, b) and hierarchy.subsumes(b, c):
            assert hierarchy.subsumes(a, c), (a, b, c)


def test_lower_bound_set_properties(hierarchy):
    for a, b in product(sorted(hierarchy.sorts), repeat=2):
        mlbs = hierarchy.maximal_lower_bounds(a, b)
        for s in mlbs:
            assert hierarchy.subsumes(a, s) and hierarchy.subsumes(b, s)
        for s, t in combinations(sorted(mlbs), 2):
            assert not hierarchy.subsumes(s, t)
            assert not hierarchy.subsumes(t, s)


def test_glb_commutative(hierarchy):
    for a, b in product(sorted(hierarchy.sorts), repeat=2):
        assert hierarchy.glb(a, b) == hierarchy.glb(b, a)


def _glb_fold(hierarchy, sorts):
    acc = sorts[0]
    for s in sorts[1:]:
        if acc is None:
            return None
        acc = hierarchy.glb(acc, s)
    return acc


def test_glb_fold_order_invariant_all_triples(hierarchy):
    sorts = sorted(hierarchy.sorts)
    for triple in product(sorts, repeat=3):
        results = {_glb_fold(hierarchy, list(p)) for p in permutations(triple)}
        assert len(results) == 1, triple


def test_subsumption_implies_glb(hierarchy):
    for a, b in product(sorted(hierarchy.sorts), repeat=2):
        if hierarchy.subsumes(a, b):
            assert hierarchy.glb(a, b) == b
