import random
from copy import copy
from itertools import combinations, permutations, product
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_maximal_lower_bounds, meet_name
from selparse.sorts import HierarchyError, load_hierarchy

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
    ("ref\n: ref\n", "line 2: bad sort name ''"),
    ("ref\na:: ref\n", "line 2: bad parent name ': ref'"),
    ("ref\ncafé: ref\n", "line 2: bad sort name 'café'"),
], ids=["sort-name", "parent-name", "undeclared", "below-cycle", "cycle",
        "empty-name", "colon-parent", "non-ascii-name"])
def test_hierarchy_error_names_its_line(text, message):
    with pytest.raises(HierarchyError) as info:
        load_hierarchy(text)
    assert str(info.value) == message


POOL = ["ref", "a", "b", "c", "_", "_x", "s0", "s10", "x_1", "thing",
        "q9", "top_", "z", "animate"]     # any 8 leave room for fresh names
NAMES = st.sampled_from(POOL)
CASES = st.sampled_from([str.lower, str.upper, str.title, str.swapcase])
BAD_NAMES = st.sampled_from(["9x", "a-b", "x y", "é", "a.b"])
SPACE = st.sampled_from(["", " ", "  ", "\t", "\u00a0"])
FILLER = st.sampled_from(["", "   ", "# a comment", "  # x: y, z"])
COMMENT = st.text("abc :,#", max_size=6)
# line breaks `str.splitlines` splits on; a bare "\r" is left out, since
# before an empty "\n"-ended line it is one break, not two
EOL = st.sampled_from(["\n", "\r\n", "\x0c", "\u2028"])
FAULTS = ["bad sort name", "bad parent name", "duplicate sort",
          "undeclared parent", "cycle", "no root", "two roots"]


@st.composite
def dags(draw, min_size=1):
    """{sort: parents} of a rooted DAG: the first sort is the root, and
    every other names one to three earlier sorts, maybe one twice."""
    names = draw(st.lists(NAMES, min_size=min_size, max_size=8, unique=True))
    parents = {names[0]: []}
    for i, name in enumerate(names[1:], start=1):
        parents[name] = [names[j] for j in draw(
            st.lists(st.integers(0, i - 1), min_size=1, max_size=3))]
    return parents


@st.composite
def documents(draw, declarations):
    """The (sort, parents) pairs as one line each, in random case and
    spacing, between blank and comment lines, with empty parent parts and
    trailing comments; returns the text and each pair's line number."""
    def spaced(name):
        return draw(SPACE) + draw(CASES)(name) + draw(SPACE)

    out, linenos = [], []
    for sort, parents in declarations:
        out += draw(st.lists(FILLER, max_size=2))
        parts = [spaced(p) for p in parents]
        for _ in range(draw(st.integers(0, 2))):   # `a: , b,` names only b
            parts.insert(draw(st.integers(0, len(parts))), draw(SPACE))
        line = spaced(sort)
        if parts or draw(st.booleans()):    # a root may end in `:`
            line += ":" + ",".join(parts)
        if draw(st.booleans()):
            line += "#" + draw(COMMENT)
        out.append(line)
        linenos.append(len(out))
    out += draw(st.lists(FILLER, max_size=2))
    return "".join(line + draw(EOL) for line in out), linenos


@st.composite
def faulty_documents(draw, fault):
    """A document with one `fault`: its text, the {sort: parents} it
    declares, the line of each sort's last declaration, and the error, with
    `{}` for the line of `sort` (None for a cycle: a sort on it is named)."""
    parents = draw(dags(min_size=2 if fault == "cycle" else 1))
    root = next(iter(parents))
    sort = draw(st.sampled_from(sorted(parents)))
    fresh = st.sampled_from([name for name in POOL if name not in parents])
    message = None
    if fault == "bad sort name":
        sort = draw(BAD_NAMES)
        parents[sort] = [root]
        message = f"line {{}}: bad sort name {sort!r}"
    elif fault == "bad parent name":
        bad = draw(BAD_NAMES)
        parents[sort] = [*parents[sort], bad]
        message = f"line {{}}: bad parent name {bad!r}"
    elif fault == "duplicate sort":
        message = f"line {{}}: duplicate sort {sort!r}"
    elif fault == "undeclared parent":
        missing = draw(fresh)
        parents[sort] = [*parents[sort], missing]
        message = f"line {{}}: sort {sort!r} names undeclared parent " \
            f"{missing!r}"
    elif fault == "cycle":
        # a non-root sort takes a parent at or below it, over a fresh leaf
        sort = draw(st.sampled_from(sorted(set(parents) - {root})))
        below = [s for s in sorted(parents) if reaches(parents, s, sort)]
        parents[sort] = [*parents[sort], draw(st.sampled_from(below))]
        parents[draw(fresh)] = [sort]
    elif fault == "no root":
        parents[root] = [sort]
        message = "no root: every sort declares a parent"
    elif fault == "two roots":
        other = draw(fresh)
        parents[other] = []
        message = "multiple roots: " + ", ".join(sorted((root, other)))
    declarations = draw(st.permutations(list(parents.items())))
    if fault == "duplicate sort":
        declarations.insert(draw(st.integers(0, len(declarations))),
                            (sort, [root]))
    text, linenos = draw(documents(declarations))
    at = {name: lineno for (name, _), lineno in zip(declarations, linenos)}
    return text, parents, at, message and message.format(at[sort])


def reaches(parents, start, goal):
    """True iff climbing from `start` by parents reaches `goal`."""
    seen, todo = set(), [start]
    while todo:
        s = todo.pop()
        if s == goal:
            return True
        if s not in seen:
            seen.add(s)
            todo += parents.get(s, ())
    return False


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_generated_document_loads_its_declarations(data):
    parents = data.draw(dags())
    text, _ = data.draw(documents(
        data.draw(st.permutations(list(parents.items())))))
    h = load_hierarchy(text)
    assert h.parents == {s: set(ps) for s, ps in parents.items()}
    assert h.root == next(iter(parents))


@pytest.mark.parametrize("fault", FAULTS)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_a_generated_fault_names_its_line(fault, data):
    text, parents, at, message = data.draw(faulty_documents(fault))
    with pytest.raises(HierarchyError) as info:
        load_hierarchy(text)
    if message is None:
        sort = str(info.value).rpartition(" ")[2][1:-1]
        message = f"line {at[sort]}: cycle detected through sort {sort!r}"
        assert any(reaches(parents, p, sort) for p in parents[sort])
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
    # the random DAGs exercise many, with ties.  Only multi-parent sorts
    # are looked up, so a completion's meets are checked against every sort
    for h in [hierarchy, load_hierarchy(NON_BCPO)] \
            + [random_dag(seed) for seed in range(20)]:
        ties = []
        for a, b in product(sorted(h.sorts), repeat=2):
            expected = brute_maximal_lower_bounds(h, a, b)
            assert h.maximal_lower_bounds(a, b) == expected, (a, b)
            assert h.glb(a, b) == meet_name(expected), (a, b)
            if a < b and len(expected) > 1:
                ties.append((a, b, expected))
        assert h.bcpo_violations() == ties
        for tie in sorted({meet_name(bounds) for *_, bounds in ties}):
            for s in sorted(h.sorts):
                expected = brute_maximal_lower_bounds(h, tie, s)
                assert h.glb(tie, s) == h.glb(s, tie) == meet_name(expected)
                assert h.maximal_lower_bounds(tie, s) == expected, (tie, s)
    # a completion is named by its maximal members, in name order
    assert hierarchy.glb("{man}", "person") == "man"
    assert hierarchy.glb("person", "{man}") == "man"
    non_bcpo = load_hierarchy(NON_BCPO)
    assert non_bcpo.glb("{d|c}", "a") == non_bcpo.glb("top", "{d|c}") \
        == "{c|d}"
    assert non_bcpo.glb("{d|c}", "c") == "c"


def test_glb_examples(hierarchy):
    assert hierarchy.glb("edible", "keybd") is None
    assert hierarchy.glb("edible", "banana") == "banana"
    assert brute_maximal_lower_bounds(hierarchy, "man", "technician") \
        == {"male_tech"}
    assert hierarchy.glb("man", "technician") == "male_tech"


def assert_tie_completes(h):
    # a ^ b is the completion {c|d}: below a and b, above c and d
    for x, y in [("a", "b"), ("b", "a")]:
        assert h.glb(x, y) == "{c|d}"
    for x, y in [("{c|d}", "c"), ("c", "{c|d}")]:
        assert h.glb(x, y) == "c"
    for x, y in [("{c|d}", "a"), ("a", "{c|d}")]:
        assert h.glb(x, y) == "{c|d}"


def test_glb_completes_a_tie_on_non_bcpo_hierarchy():
    h = load_hierarchy(NON_BCPO)
    assert h.maximal_lower_bounds("a", "b") == {"c", "d"}
    assert_tie_completes(h)
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


def lattices(hierarchy):
    """The bundled hierarchy, then three with ties (1, 3 and 4 tied pairs)."""
    return [hierarchy, load_hierarchy(NON_BCPO),
            random_dag(0, size=12), random_dag(1, size=12)]


def test_glb_commutative(hierarchy):
    for h in lattices(hierarchy):
        for a, b in product(sorted(h.sorts), repeat=2):
            assert h.glb(a, b) == h.glb(b, a)


def _glb_fold(hierarchy, sorts):
    acc = sorts[0]
    for s in sorts[1:]:
        if acc is None:
            return None
        acc = hierarchy.glb(acc, s)
    return acc


def test_glb_fold_order_invariant_all_triples(hierarchy):
    for h in lattices(hierarchy):
        for triple in product(sorted(h.sorts), repeat=3):
            results = {_glb_fold(h, list(p)) for p in permutations(triple)}
            assert results \
                == {meet_name(brute_maximal_lower_bounds(h, *triple))}, triple


def test_subsumption_implies_glb(hierarchy):
    for a, b in product(sorted(hierarchy.sorts), repeat=2):
        if hierarchy.subsumes(a, b):
            assert hierarchy.glb(a, b) == b


def every_pair(h):
    return list(product(sorted(h.sorts), repeat=2))


def state(h):
    """A copy of everything the hierarchy holds."""
    return {name: copy(value) for name, value in vars(h).items()}


def test_all_pair_meets_match_oracle_and_leave_the_hierarchy_unchanged(
        hierarchy):
    for h in [hierarchy, load_hierarchy(NON_BCPO)] \
            + [random_dag(seed) for seed in range(5)]:
        before = state(h)
        for a, b in every_pair(h):
            h.maximal_lower_bounds(a, b)
            h.glb(a, b)
        assert state(h) == before   # no completion is cached
        for a, b in every_pair(h):
            expected = brute_maximal_lower_bounds(h, a, b)
            assert h.maximal_lower_bounds(a, b) == expected, (a, b)
            assert h.maximal_lower_bounds(b, a) == expected, (b, a)


def test_unknown_sort_raises_with_warm_memo():
    h = load_hierarchy(NON_BCPO)
    for a, b in every_pair(h):
        h.maximal_lower_bounds(a, b)
    for call in (h.subsumes, h.maximal_lower_bounds, h.glb):
        for unknown in ("gadget", "{a|gadget}"):
            with pytest.raises(HierarchyError, match="unknown sort 'gadget'"):
                call("a", unknown)
            with pytest.raises(HierarchyError, match="unknown sort 'gadget'"):
                call(unknown, "a")


def test_glb_completes_a_tie_on_every_call():
    h = load_hierarchy(NON_BCPO)
    for _ in range(2):
        assert_tie_completes(h)


def test_subsumes_and_maximal_lower_bounds_take_a_completion(hierarchy):
    h = load_hierarchy(NON_BCPO)
    assert h.subsumes("a", "{c|d}") and h.subsumes("top", "{c|d}")
    assert h.subsumes("{c|d}", "c") and h.subsumes("{c|d}", "{c|d}")
    assert not h.subsumes("c", "{c|d}") and not h.subsumes("{c|d}", "a")
    assert h.maximal_lower_bounds("{c|d}", "a") == {"c", "d"}
    assert h.maximal_lower_bounds("{c|d}", "d") == {"d"}
    # members out of name order, and a one-member completion
    assert h.maximal_lower_bounds("{d|c}", "a") == {"c", "d"}
    assert h.maximal_lower_bounds("a", "{d|c}") == {"c", "d"}
    assert h.subsumes("{d|c}", "c") and h.subsumes("{d|c}", "{c|d}")
    assert hierarchy.maximal_lower_bounds("{man}", "person") == {"man"}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_bcpo_violations_leaves_the_hierarchy_unchanged(warm):
    h = random_dag(3)
    if warm:
        h.maximal_lower_bounds("s5", "s7")
        h.glb("s0", "s9")
    before = state(h)
    assert h.bcpo_violations()
    assert state(h) == before


def chain(size, *extra):
    """s0 above s1 above ... s<size - 1>, then the `extra` lines."""
    return "\n".join(["s0", *(f"s{i}: s{i - 1}" for i in range(1, size)),
                      *extra])


def test_a_deep_chain_loads_in_linear_time():
    start = perf_counter()
    h = load_hierarchy(chain(8000))
    assert perf_counter() - start < 2
    assert h.subsumes("s0", "s7999") and not h.subsumes("s7999", "s0")
    assert h.glb("s4000", "s6000") == "s6000"


def test_a_deep_chain_validates_in_bounded_time():
    # x's parents are comparable, so every pair above x has a unique glb
    start = perf_counter()
    h = load_hierarchy(chain(2000, "x: s1999, s1000"))
    assert h.bcpo_violations() == []
    assert perf_counter() - start < 2


def test_hierarchies_sharing_sort_names_keep_their_own_bounds():
    meeting = load_hierarchy("top\na: top\nb: top\nc: a, b\n")
    apart = load_hierarchy("top\na: top\nb: top\nc: top\n")
    for _ in range(2):
        assert meeting.maximal_lower_bounds("a", "b") == {"c"}
        assert apart.maximal_lower_bounds("a", "b") == frozenset()
        assert meeting.glb("b", "a") == "c"
        assert apart.glb("b", "a") is None
