import pytest

from selparse import data
from selparse.grammar import load_declarations, load_lexicon
from selparse.parser import Chart, tokenize
from selparse.sorts import load_hierarchy
from selparse.tfs import FeatureStructure

CORPUS_SENTENCES = [
    "tom ate a keyboard",
    "tom ate a banana",
    "tom repaired the technician",
    "tom repaired the keyboard",
    "tom repaired the printer",
    "the printer called",
    "list the employees of the departments that retire",
    "the printer repaired the printer",
]

# ambiguity ladders: k copies of the step phrase before the relative clause
LADDERS = {
    "attachment": ("list the employees", "of the departments"),
    "sense": ("list the printer", "of the printer"),
}


def ladder(family, k):
    head, step = LADDERS[family]
    return " ".join([head, *[step] * k, "that retire"])


@pytest.fixture(scope="session")
def hierarchy():
    return load_hierarchy(data.HIERARCHY.read_text())


@pytest.fixture(scope="session")
def decls(hierarchy):
    return load_declarations(data.DECLS.read_text(), hierarchy)


@pytest.fixture(scope="session")
def lexicon(hierarchy, decls):
    return load_lexicon(data.LEXICON.read_text(), hierarchy, decls)


def parse_sentence(sentence, lexicon, decls, hierarchy, method):
    return Chart(tokenize(sentence), lexicon, decls, hierarchy,
                 method).readings()


def brute_maximal_lower_bounds(hierarchy, *sorts):
    """Oracle: enumerate every sort, keep common lower bounds, drop dominated ones."""
    common = [s for s in hierarchy.sorts
              if all(hierarchy.subsumes(c, s) for c in sorts)]
    return frozenset(s for s in common
                     if not any(t != s and hierarchy.subsumes(t, s)
                                for t in common))


def meet_name(bounds):
    """The meet with maximal lower bounds `bounds`: None for none, the one
    sort, or the completion naming several in name order, as in `{x|y}`."""
    if len(bounds) > 1:
        return "{" + "|".join(sorted(bounds)) + "}"
    return next(iter(bounds), None)


def random_structure(rng, hierarchy, max_depth=3, reentrancy=0.25):
    """A random acyclic feature structure over the hierarchy's sorts.

    Reentrancy only ever points at already-finished subtrees, so the result
    is guaranteed cycle-free.
    """
    sorts = sorted(hierarchy.sorts)
    finished = []

    def gen(depth):
        if finished and rng.random() < reentrancy:
            return rng.choice(finished)
        node = FeatureStructure(rng.choice(sorts))
        if depth > 0:
            for feat in ("f", "g", "h"):
                if rng.random() < 0.45:
                    node.feats[feat] = gen(depth - 1)
        finished.append(node)
        return node

    return gen(max_depth)
