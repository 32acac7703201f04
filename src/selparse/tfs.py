"""Typed feature structures: sorted, reentrant attribute-value graphs.

Nodes (`grammar.FeatureStructure`) compare by identity; sharing one node
between two feature paths is what makes a structure reentrant.  Structures
are treated as immutable once built, and unification always returns fresh
nodes.  The parser calls nothing here: it meets sorts with
`SortHierarchy.glb`.

Sorts of the semantic hierarchy, and the completions `SortHierarchy.glb`
names for its ties, meet through `glb`.  Every other node sort (relation
names such as "eat", and atoms such as proper-name strings) belongs to a
flat open inventory in which unification demands equality.
"""

from dataclasses import dataclass

from .grammar import FeatureStructure
from .sorts import HierarchyError

__all__ = [
    "FeatureStructure",
    "UnificationFailure",
    "isomorphic",
    "subsumes_fs",
    "unify",
    "unify_map",
]


@dataclass(frozen=True)
class UnificationFailure:
    """Where and why a unification failed; falsy so callers can branch on it."""

    path: tuple
    sorts: tuple

    def __bool__(self):
        return False

    def __str__(self):
        where = "|".join(self.path) or "(root)"
        return f"sort conflict at {where}: {self.sorts[0]} ^ {self.sorts[1]}"


def unify_map(pairs, roots, hierarchy):
    """Unify each (a, b) node pair of `pairs` inside one shared graph universe.

    Returns a mapping from every node reachable from `roots` to its
    counterpart in a freshly built result graph, or a UnificationFailure.
    Only those counterparts (and what they reach) are built, and inputs are
    never mutated.  `unify` is its one caller in the package.
    """
    parent = {}

    def find(node):
        rep = node
        while rep in parent:
            rep = parent[rep]
        while node in parent:
            parent[node], node = rep, parent[node]
        return rep

    sort_of = {}
    feats_of = {}

    def activate(rep):
        if rep not in sort_of:
            sort_of[rep] = rep.sort
            feats_of[rep] = dict(rep.feats)

    agenda = [(a, b, ()) for a, b in pairs]
    while agenda:
        a, b, path = agenda.pop()
        ra, rb = find(a), find(b)
        if ra is rb:
            continue
        activate(ra)
        activate(rb)
        s1, s2 = sort_of[ra], sort_of[rb]
        met = s1
        if s1 != s2:
            try:
                met = hierarchy.glb(s1, s2)
            except HierarchyError:  # a sort it lacks meets only itself
                met = None
        if met is None:
            return UnificationFailure(path, (s1, s2))
        parent[rb] = ra
        sort_of[ra] = met
        merged = feats_of.pop(rb)
        del sort_of[rb]
        ours = feats_of[ra]
        for feat, child in merged.items():
            if feat in ours:
                agenda.append((ours[feat], child, path + (feat,)))
            else:
                ours[feat] = child

    # Not recursive: a closure that calls itself is a reference cycle, which
    # would keep these tables alive until the cyclic collector runs.
    built = {}
    unfilled = []

    def build(node):
        rep = find(node)
        fresh = built.get(rep)
        if fresh is None:
            activate(rep)
            fresh = built[rep] = FeatureStructure(sort_of[rep])
            unfilled.append((rep, fresh))
        return fresh

    mapping = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node in mapping:
            continue
        mapping[node] = build(node)
        stack.extend(node.feats.values())
    for rep, fresh in unfilled:  # build() appends while this loop runs
        feats = fresh.feats
        for feat, child in feats_of[rep].items():
            feats[feat] = build(child)
    return mapping


def unify(a, b, hierarchy):
    """Unify two structures into the least structure subsumed by both.

    Node sorts meet in the semantic hierarchy (all other sorts must match
    exactly), feature sets merge, and reentrancies from both sides carry over
    into the fresh result.  A sort clash at any corresponding node pair
    returns a UnificationFailure naming the feature path and the two sorts.
    """
    got = unify_map([(a, b)], (a,), hierarchy)
    if isinstance(got, UnificationFailure):
        return got
    return got[a]


def _sort_subsumes(s1, s2, hierarchy):
    try:
        return s1 == s2 or hierarchy.subsumes(s1, s2)
    except HierarchyError:  # a sort it lacks subsumes only itself
        return False


def subsumes_fs(a, b, hierarchy):
    """True iff a describes b.

    Requires b to carry every feature path of a, a's sorts to subsume b's
    pointwise along those paths, and every reentrancy of a to be present
    in b.
    """
    image = {}

    def walk(x, y):
        if x in image:
            return image[x] is y
        if not _sort_subsumes(x.sort, y.sort, hierarchy):
            return False
        image[x] = y
        for feat, xc in x.feats.items():
            yc = y.feats.get(feat)
            if yc is None or not walk(xc, yc):
                return False
        return True

    return walk(a, b)


def isomorphic(a, b):
    """Equality up to node identity: same shapes, sorts, and sharing."""
    fwd = {}
    bwd = {}

    def walk(x, y):
        if x in fwd or y in bwd:
            return fwd.get(x) is y and bwd.get(y) is x
        if x.sort != y.sort or x.feats.keys() != y.feats.keys():
            return False
        fwd[x] = y
        bwd[y] = x
        return all(walk(x.feats[f], y.feats[f]) for f in x.feats)

    return walk(a, b)
