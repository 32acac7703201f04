"""Semantic sort hierarchies: types of world entities ordered by subsumption.

A hierarchy is a rooted DAG of sort names, loaded from a line-oriented text
format, validated and never changed; `SortHierarchy.glb` is the one meet,
total on every hierarchy, and only this module reads the masks behind it.
"""

__all__ = [
    "HierarchyError",
    "SortHierarchy",
    "lines",
    "load_hierarchy",
]

class HierarchyError(ValueError):
    """A hierarchy document is malformed or structurally inconsistent."""

    def __init__(self, message, sort=None):
        super().__init__(message)
        self.sort = sort    # the sort a structural error is about, if any


def lines(text):
    """(line number, stripped line) per line not blank once '#...' is cut.

    Lines end where `str.splitlines` splits, at a form feed or U+2028 too.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw[:raw.index("#")] if "#" in raw else raw).strip()
        if line:
            yield lineno, line


def _names(sort):
    # the sorts a meet names: a completion `{x|y}`'s members, or the sort
    return sort[1:-1].split("|") if sort[:1] + sort[-1:] == "{}" else (sort,)


class SortHierarchy:
    """Fixed DAG of sorts; an ancestor is more general than its descendants.

    `_mask[s]` has one bit per sort at or below s, its down-set (Ait-Kaci,
    Boyer, Lincoln & Nasr 1989), built in one leaves-first pass with bits
    numbered children before parents.  The AND of two masks is the down-set
    of their common lower bounds, and `glb` alone decides which meet that
    is: None when it is zero, an argument or the multi-parent sort `_meets`
    maps it to, else a tie named as its completion `{x|y}` (see
    `bcpo_violations`) and never stored.  `maximal_lower_bounds` and
    `bcpo_violations` read their bounds off `glb`.
    """

    def __init__(self, parents):
        self.parents = {s: frozenset(ps) for s, ps in parents.items()}
        self.sorts = frozenset(self.parents)
        waiting = dict.fromkeys(self.parents, 0)    # children without a bit
        try:
            for ps in self.parents.values():
                for p in ps:
                    waiting[p] += 1
        except KeyError:
            s, p = min((s, p) for s, ps in self.parents.items() for p in ps
                       if p not in waiting)
            raise HierarchyError(
                f"sort {s!r} names undeclared parent {p!r}", s) from None
        roots = [s for s, ps in self.parents.items() if not ps]
        if not roots:
            raise HierarchyError("no root: every sort declares a parent")
        if len(roots) > 1:
            raise HierarchyError("multiple roots: " + ", ".join(sorted(roots)))
        self.root = roots[0]
        # Kahn from the leaves: bit i is the i-th sort placed
        by_bit = self._by_bit = [s for s, n in waiting.items() if not n]
        mask = self._mask = dict.fromkeys(self.parents, 0)
        for bit, s in enumerate(by_bit):    # grows while it is walked
            m = mask[s] = mask[s] | 1 << bit
            for p in self.parents[s]:
                mask[p] |= m
                n = waiting[p] = waiting[p] - 1
                if not n:
                    by_bit.append(p)
        if len(by_bit) < len(mask):     # the rest are on or above a cycle
            s = self._on_cycle()
            raise HierarchyError(f"cycle detected through sort {s!r}", s)
        self._meets = {mask[s]: s for s, ps in self.parents.items()
                       if len(ps) > 1}

    def _on_cycle(self):
        # a parents-first order from the root never reaches the sorts on or
        # below a cycle; each has such a parent, so climbing from the
        # smallest by smallest such parent must revisit a sort on a cycle
        children = {s: [] for s in self.parents}
        for s, ps in self.parents.items():
            for p in ps:
                children[p].append(s)
        waiting = {s: len(ps) for s, ps in self.parents.items()}
        reached = [self.root]
        for s in reached:   # grows while it is walked
            for c in children[s]:
                waiting[c] -= 1
                if not waiting[c]:
                    reached.append(c)
        pending = self.sorts.difference(reached)
        seen, s = set(), min(pending)
        while s not in seen:
            seen.add(s)
            s = min(self.parents[s] & pending)
        return s

    def __len__(self):
        return len(self.sorts)

    def __repr__(self):
        return f"<SortHierarchy {len(self.sorts)} sorts, root {self.root!r}>"

    def declared(self, sort):
        return sort in self.sorts

    def _down(self, sort):
        # a sort's mask; a completion `{x|y}`'s is the OR of its members'
        mask = 0
        for name in _names(sort):
            try:
                mask |= self._mask[name]
            except KeyError:
                raise HierarchyError(f"unknown sort {name!r}") from None
        return mask

    def _members(self, m):  # the sorts whose bits are set in mask m
        while m:
            low = m & -m
            yield self._by_bit[low.bit_length() - 1]
            m ^= low

    def _name(self, common):
        # the meet whose down-set is mask `common`: None, a sort or a tie;
        # in a down-set, a member is maximal when none of its parents is one
        members = set(self._members(common))
        bounds = sorted(s for s in members
                        if members.isdisjoint(self.parents[s]))
        if len(bounds) > 1:
            return "{" + "|".join(bounds) + "}"
        return bounds[0] if bounds else None

    def subsumes(self, a, b):
        """True iff a == b or a is an ancestor of b (a is at least as general)."""
        down_a, down_b = self._down(a), self._down(b)
        return down_a & down_b == down_b

    def maximal_lower_bounds(self, a, b):
        """Most general sorts subsumed by both a and b; empty means conflict."""
        meet = self.glb(a, b)
        return frozenset(() if meet is None else _names(meet))

    def glb(self, a, b):
        """The greatest lower bound of a and b, or None when they conflict.

        On a tie, which `bcpo_violations` lists, that is the pair's
        completion: a name such as `{x|y}` listing its maximal lower bounds
        in name order, whose down-set is the OR of theirs.  `subsumes`,
        `maximal_lower_bounds` and `glb` take a completion as a sort; one
        naming a sort the hierarchy lacks raises HierarchyError.  The meet
        of two sorts costs an AND and up to three comparisons, plus a
        lookup among multi-parent sorts when neither is below the other.
        """
        try:
            ma = self._mask[a]
            mb = self._mask[b]
        except KeyError:    # a completion, or an unknown sort that raises
            return self._name(self._down(a) & self._down(b))
        # inline, not a helper call: this is on the index fill's path
        common = ma & mb
        if common == mb:
            return b
        if common == ma:
            return a
        if common:
            return self._meets.get(common) or self._name(common)
        return None

    def bcpo_violations(self):
        """Sort pairs with more than one maximal lower bound, in sorted order.

        Every bound of such a pair has two or more parents (one parent would
        be a greater common lower bound), so only incomparable pairs of
        strict ancestors of a multi-parent sort are checked, and only those
        ancestors get an up-set.  A pair is a tie when its `glb` is a
        completion.
        """
        multi = [s for s, ps in self.parents.items() if len(ps) > 1]
        above = set()
        stack = [p for s in multi for p in self.parents[s]]
        while stack:
            a = stack.pop()
            if a not in above:
                above.add(a)
                stack.extend(self.parents[a])
        up = {}     # ancestor -> mask of the sorts at or above it
        # a sort's own bit is its mask's highest, above its descendants'
        for a in sorted(above, key=self._mask.__getitem__, reverse=True):
            up[a] = 1 << self._mask[a].bit_length() - 1
            for p in self.parents[a]:
                up[a] |= up[p]
        pairs = set()
        for s in multi:
            strict = 0
            for p in self.parents[s]:
                strict |= up[p]
            for a in self._members(strict):
                for b in self._members(strict & ~(up[a] | self._mask[a])):
                    pairs.add((a, b) if a < b else (b, a))
        meets = [(a, b, self.glb(a, b)) for a, b in sorted(pairs)]
        return [(a, b, frozenset(_names(meet)))
                for a, b, meet in meets if meet[0] == "{"]


def load_hierarchy(text):
    """Parse the line-oriented hierarchy format (README, "File formats").

    The text is lowercased and read by `lines`; a sort or parent name must
    then be an ASCII identifier, `[a-z_][a-z0-9_]*`.  Raises HierarchyError
    for duplicate or ill-formed declarations, undeclared parents, a missing
    or non-unique root, or a parent cycle; each names the line of the sort
    it is about, if there is one.  Bounded completeness is not required
    here; `bcpo_violations` reports it.
    """
    parents = {}
    linenos = {}
    for lineno, line in lines(text.lower()):
        name, _, rest = line.partition(":")
        name = name.strip()
        if not (name.isascii() and name.isidentifier()):
            raise HierarchyError(f"line {lineno}: bad sort name {name!r}")
        if name in parents:
            raise HierarchyError(f"line {lineno}: duplicate sort {name!r}")
        ps = []
        for part in rest.split(",") if rest else ():
            p = part.strip()
            if not p:
                continue
            if not (p.isascii() and p.isidentifier()):
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
