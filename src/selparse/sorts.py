"""Semantic sort hierarchies: types of world entities ordered by subsumption.

A hierarchy is a rooted DAG of sort names.  It is loaded from a small
line-oriented text format and validated.  Its structure never changes
afterwards; its only mutable state is a memo of the lower bounds of the sort
pairs met so far.  Concurrent fills of one memo entry write equal values, so
a hierarchy can still be shared across threads and parses.
"""

import re
from itertools import combinations

__all__ = [
    "AmbiguousMeetError",
    "HierarchyError",
    "SortHierarchy",
    "lines",
    "load_hierarchy",
]

HIERARCHY_FORMAT = """\
One declaration per line:

    <sort>: <parent>[, <parent> ...]

The root is the unique sort declared with no parents (a bare name, or a name
followed by an empty parent list).  Sort names are case-insensitive
identifiers and are stored lowercase.  '#' starts a comment.
"""

_NAME = re.compile(r"[a-z_][a-z0-9_]*$")


class HierarchyError(ValueError):
    """A hierarchy document is malformed or structurally inconsistent."""

    def __init__(self, message, sort=None):
        super().__init__(message)
        self.sort = sort    # the sort a structural error is about, if any


class AmbiguousMeetError(LookupError):
    """A sort pair has several maximal lower bounds where one is required."""


def lines(text):
    """(line number, stripped line) per line not blank once '#...' is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


class SortHierarchy:
    """Fixed DAG of sorts; an ancestor is more general than its descendants.

    `subsumes(a, b)` holds when a == b or a is an ancestor of b.  Two sorts
    are consistent when they share a lower bound; `maximal_lower_bounds`
    yields the most general shared subsorts, and `glb` the unique one (which
    exists for every consistent pair exactly when the hierarchy is a bounded
    complete partial order, see `bcpo_violations`).  Both read a per-instance
    memo of each pair's maximal lower bounds, filled on first use.
    """

    def __init__(self, parents):
        self.parents = {s: frozenset(ps) for s, ps in parents.items()}
        self.sorts = frozenset(self.parents)
        for s in sorted(self.parents):
            for p in sorted(self.parents[s]):
                if p not in self.sorts:
                    raise HierarchyError(
                        f"sort {s!r} names undeclared parent {p!r}", s)
        roots = sorted(s for s, ps in self.parents.items() if not ps)
        if not roots:
            raise HierarchyError("no root: every sort declares a parent")
        if len(roots) > 1:
            raise HierarchyError("multiple roots: " + ", ".join(roots))
        self.root = roots[0]
        up = {}
        for s in self._toposort():
            anc = {s}
            for p in self.parents[s]:
                anc.update(up[p])
            up[s] = anc
        self._down = {s: set() for s in self.sorts}
        for s, anc in up.items():
            for a in anc:
                self._down[a].add(s)
        self._meets = {}    # (a, b) -> maximal lower bounds, both orders

    def _toposort(self):
        # parents before children; a sort never placed is on or below a cycle
        order = []
        placed = set()
        pending = set(self.sorts)
        while pending:
            ready = sorted(s for s in pending if self.parents[s] <= placed)
            if not ready:
                # each pending sort has a pending parent; climbing from one
                # by smallest such parent must revisit a sort on a cycle
                seen, s = set(), min(pending)
                while s not in seen:
                    seen.add(s)
                    s = min(self.parents[s] & pending)
                raise HierarchyError(f"cycle detected through sort {s!r}", s)
            order.extend(ready)
            placed.update(ready)
            pending.difference_update(ready)
        return order

    def __len__(self):
        return len(self.sorts)

    def __repr__(self):
        return f"<SortHierarchy {len(self.sorts)} sorts, root {self.root!r}>"

    def declared(self, sort):
        return sort in self.sorts

    def _check(self, sort):
        if sort not in self.sorts:
            raise HierarchyError(f"unknown sort {sort!r}")

    def subsumes(self, a, b):
        """True iff a == b or a is an ancestor of b (a is at least as general)."""
        self._check(a)
        self._check(b)
        return b in self._down[a]

    def maximal_lower_bounds(self, a, b):
        """Most general sorts subsumed by both a and b; empty means conflict."""
        mlbs = self._meets.get((a, b))
        if mlbs is None:
            # only declared sorts reach the memo
            self._check(a)
            self._check(b)
            mlbs = self._meets[a, b] = self._meets[b, a] = \
                self._lower_bounds(a, b)
        return mlbs

    def _lower_bounds(self, a, b):
        # common is closed downwards, so s is maximal in it exactly when
        # none of its parents is in it
        common = self._down[a] & self._down[b]
        return frozenset(s for s in common
                         if common.isdisjoint(self.parents[s]))

    def glb(self, a, b):
        """The unique maximal lower bound of a and b, or None when they conflict.

        Raises AmbiguousMeetError when several maximal lower bounds exist;
        that cannot happen once `bcpo_violations()` comes back empty.
        """
        mlbs = self.maximal_lower_bounds(a, b)
        if not mlbs:
            return None
        if len(mlbs) > 1:
            raise AmbiguousMeetError(
                f"sorts {a!r} and {b!r} have several maximal lower bounds: "
                + ", ".join(sorted(mlbs)))
        return next(iter(mlbs))

    def bcpo_violations(self):
        """Sort pairs with more than one maximal lower bound, in sorted order.

        Such a pair is incomparable, so each of its bounds has two or more
        parents (one parent would be a greater common lower bound), and both
        sorts are strict ancestors of it.  Only pairs of strict ancestors of
        a multi-parent sort are checked, and the memo is left alone.
        """
        pairs = set()
        for s, ps in self.parents.items():
            if len(ps) > 1:
                above = sorted(a for a in self.sorts
                               if a != s and s in self._down[a])
                pairs.update(combinations(above, 2))
        out = []
        for a, b in sorted(pairs):
            mlbs = self._lower_bounds(a, b)
            if len(mlbs) > 1:
                out.append((a, b, mlbs))
        return out


def load_hierarchy(text):
    """Parse the line-oriented hierarchy format (see HIERARCHY_FORMAT).

    Raises HierarchyError for duplicate or ill-formed declarations, undeclared
    parents, a missing or non-unique root, or a parent cycle; each names the
    line of the sort it is about, if there is one.  Bounded completeness is
    not required here; `bcpo_violations` reports it.
    """
    parents = {}
    linenos = {}
    for lineno, line in lines(text):
        name, _, rest = line.partition(":")
        name = name.strip().lower()
        if not _NAME.match(name):
            raise HierarchyError(f"line {lineno}: bad sort name {name!r}")
        if name in parents:
            raise HierarchyError(f"line {lineno}: duplicate sort {name!r}")
        ps = []
        for part in rest.split(","):
            p = part.strip().lower()
            if not p:
                continue
            if not _NAME.match(p):
                raise HierarchyError(f"line {lineno}: bad parent name {p!r}")
            ps.append(p)
        parents[name] = ps
        linenos[name] = lineno
    if not parents:
        raise HierarchyError("empty hierarchy document")
    try:
        return SortHierarchy(parents)
    except HierarchyError as exc:
        if exc.sort is None:
            raise
        raise HierarchyError(f"line {linenos[exc.sort]}: {exc}") from None
