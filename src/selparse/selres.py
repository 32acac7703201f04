"""Post-parse checking of sortal constraints carried by a finished reading.

The checker collects the `grammar.sortal` relation instances, which an
index sign carries on its indices instead (`grammar.fold`), treating each as
a constraint on the index variable filling its role.  Two constraints on one
variable can be replaced by a constraint for each of their sorts' maximal
lower bounds; a reading is acceptable exactly when every variable reduces to
a single constraint this way.  The fold replaces them by one constraint on
their `SortHierarchy.glb`, which joins several such bounds in their
completion (`{x|y}`), so it never branches and accepts the same readings.

One pass reads a reading's constraints as (sort, source word) pairs per
variable, taking the background instances `grammar.distinct_bg` keeps,
as `render_sign` lists them: `check_reading` folds the pairs and
`extract_constraints` lists them as `ConstraintAtom`s; `solve` groups atoms
into such pairs for the same fold.
"""

from dataclasses import dataclass, field

from .grammar import distinct_bg, sortal

__all__ = [
    "ConstraintAtom",
    "Satisfiable",
    "Violation",
    "check_reading",
    "extract_constraints",
    "merge_pair",
    "solve",
]


@dataclass(frozen=True)
class ConstraintAtom:
    """One single-role constraint: `sort(var)`.

    `source` records the surface word whose sign contributed the constraint;
    it is carried along for diagnostics and ignored by comparisons.
    """

    sort: str
    var: int
    source: str | None = field(default=None, compare=False)

    def __str__(self):
        return f"{self.sort}({self.var})"


@dataclass
class Satisfiable:
    """Success: exactly one sort per constrained variable."""

    assignment: dict


@dataclass(frozen=True)
class Violation:
    """Failure on `var`: the conflicting sorts admit no common lower bound."""

    var: int
    conflicting: frozenset
    narrative: str


def extract_constraints(reading, hierarchy):
    """The atoms `check_reading` folds, lowest variable first (`_grouped`).

    Informative only for a reading parsed under "bg": "index" compilation
    carries the restrictions on the indices instead.
    """
    grouped = _grouped(reading, hierarchy)
    return [ConstraintAtom(sort, var, source)
            for var in sorted(grouped) for sort, source in grouped[var]]


def merge_pair(c1, c2, hierarchy):
    """Candidate replacements for two same-variable constraints.

    One candidate per maximal lower bound of the two sorts; the empty set
    signals a conflict.  Constraints on different variables are a usage
    fault, not a conflict.
    """
    if c1.var != c2.var:
        raise ValueError(
            f"constraints on different variables: {c1.var} != {c2.var}")
    return frozenset(ConstraintAtom(sort, c1.var)
                     for sort in hierarchy.maximal_lower_bounds(c1.sort, c2.sort))


def _reduce_variable(group, hierarchy):
    """Fold a variable's (sort, source) pairs to one sort, a `glb` per pair.

    A tie meets in its completion (`{x|y}`), so the fold never branches.
    Returns (final sort, None), or (None, the conflict that ended it).
    """
    met = group[0][0]
    for i in range(1, len(group)):
        so_far, sort = met, group[i][0]
        met = hierarchy.glb(so_far, sort)
        if met is None:
            return None, ((so_far, _sources(group[:i])),
                          (sort, _sources(group[i:i + 1])))
    return met, None


def _sources(pairs):
    return tuple(source for _, source in pairs if source)


def _fold(grouped, hierarchy):
    """The verdict on {var: (sort, source) pairs}, lowest variable first.

    A variable with one pair takes its sort as it is; only two or more
    pairs are folded (`_reduce_variable`).
    """
    assignment = {}
    for var in sorted(grouped):
        group = grouped[var]
        if len(group) == 1:
            assignment[var] = group[0][0]
            continue
        final, conflict = _reduce_variable(group, hierarchy)
        if final is None:
            (s1, sources1), (s2, sources2) = conflict
            narrative = f"violation: var={var} sorts={s1},{s2}"
            if sources1 + sources2:
                narrative += " from=" + ",".join(sources1 + sources2)
            return Violation(var, frozenset({s1, s2}), narrative)
        assignment[var] = final
    return Satisfiable(assignment)


def solve(atoms, hierarchy):
    """Reduce a constraint multiset to at most one constraint per variable.

    Variables are handled independently, lowest-numbered first.  Within a
    variable, constraints fold left to right in the order given, one `glb`
    per pair; a tie meets in its completion, so whether a variable folds,
    and to which sort, depends neither on that order nor on hierarchies
    having unique meets.  Returns Satisfiable with the final sort per
    variable, or a Violation for the lowest variable whose constraints
    admit no common lower bound.  The atoms are grouped
    into the (sort, source) pairs `check_reading` folds; a sort that
    `hierarchy` does not declare is a usage fault.
    """
    grouped = {}
    for atom in atoms:
        if not hierarchy.declared(atom.sort):
            raise ValueError(f"undeclared sort {atom.sort!r}")
        grouped.setdefault(atom.var, []).append((atom.sort, atom.source))
    return _fold(grouped, hierarchy)


def _grouped(reading, hierarchy):
    """A reading's constraints as {var: [(sort, source), ...]}, in one pass.

    Reads the quantifier and restriction sets and the background instances
    `distinct_bg` keeps, in that order, keeping the `grammar.sortal` ones,
    each on its filler's number in `reading.variables`.
    """
    variables = reading.variables
    grouped = {}
    for ref in (reading.quants + reading.restr
                + distinct_bg(reading.bg, variables)):
        if sortal(ref, hierarchy):
            var = variables[ref.roles[0][1]]
            grouped.setdefault(var, []).append((ref.sort, ref.source))
    return grouped


def check_reading(reading, hierarchy):
    """`solve(extract_constraints(reading, hierarchy), hierarchy)`, without
    building an atom: the fold runs on the pairs `_grouped` reads.

    Every reading keeps one verdict object per hierarchy (`Edge.verdicts`),
    shared by the readings of one chart with its constraint set: the first
    check folds and keeps it, and later checks of any of them return it, so
    callers must treat it as read-only.
    """
    verdicts = reading.verdicts
    verdict = verdicts.get(hierarchy)
    if verdict is None:
        verdict = verdicts[hierarchy] = _fold(_grouped(reading, hierarchy),
                                              hierarchy)
    return verdict
