"""Bottom-up chart parser over a small fixed schema set.

Binary schemas, the rows of RULES (head marked *):

    s    -> np *vp          head_subject
    vp/s -> *v np           head_complement
    np   -> det *nbar       det_nbar
    nbar -> adj *nbar       adj_nbar
    np   -> *np pp          np_pp
    np   -> *np relc        np_relc
    pp   -> *prep np        prep_np
    relc -> relpro *vp      relpro_vp

Verbal categories are derived from valence: a verb edge with pending
complements is v, with complements saturated but a pending subject vp, and
with nothing pending s.  Head-subject, head-complement and the relative
clause's subject satisfaction each identify a pending valence slot, the
index of one of the verb's roles, with the dependent noun phrase's index:
one meet of two sorts (`SortHierarchy.glb`), so sortal conflicts between
indices surface here and, under the "index" compilation method, prune
analyses while parsing.
No graph is copied: a reading's variables are read off its binds.  The
background set of every mother is the union of its daughters' sets; the
quantifier set grows by the noun's restriction when a determiner attaches.
"""

from bisect import insort
from dataclasses import dataclass, field
from typing import NamedTuple

from .grammar import METHODS, PARTS_OF_SPEECH, Sign, compile_entry, tokenize
from .selres import Satisfiable, check_reading

__all__ = [
    "Chart",
    "Edge",
    "MethodReport",
    "SCHEMAS",
    "UnknownTokenError",
    "combine",
    "count",
    "lexical_edges",
    "run_method",
    "tokenize",     # defined in grammar, beside the lexicon's token rule
]

LEFT, RIGHT = 0, 1


class Rule(NamedTuple):
    """One binary schema: daughter categories, head, valence, mother.

    The mother takes the head's core and remaining valence and pools both
    daughters' restr, quants and bg, left before right.  When `slot` is
    set, the `selector` daughter's first pending `slot` index is then
    identified with the other daughter's (an np's) index, provided their
    sorts meet, and the mother records that bind with its meet.
    Otherwise nothing is identified.
    """

    left: str
    right: str
    head: int
    selector: int | None
    slot: str | None
    mother: str | None      # None: derived from the remaining valence
    quantify: bool = False  # the pooled restr becomes quantifiers


RULES = {
    "head_subject": Rule("np", "vp", RIGHT, RIGHT, "subj", "s"),
    "head_complement": Rule("v", "np", LEFT, LEFT, "comps", None),
    "det_nbar": Rule("det", "nbar", RIGHT, None, None, "np", quantify=True),
    "adj_nbar": Rule("adj", "nbar", RIGHT, None, None, "nbar"),
    "np_pp": Rule("np", "pp", LEFT, None, None, "np"),
    "np_relc": Rule("np", "relc", LEFT, RIGHT, "subj", "np"),
    "prep_np": Rule("prep", "np", LEFT, None, None, "pp"),
    "relpro_vp": Rule("relpro", "vp", RIGHT, None, None, "relc"),
}

SCHEMAS = {(rule.left, rule.right): name for name, rule in RULES.items()}
# SCHEMAS by row: left category -> {right category: schema}
_SCHEMA_ROWS = {left: {b: name for (a, b), name in SCHEMAS.items() if a == left}
                for left, _ in SCHEMAS}

_PHRASE_LABEL = {"s": "S", "np": "NP", "vp": "VP", "pp": "PP", "relc": "RelC"}


class UnknownTokenError(ValueError):
    """One or more tokens have no lexical entry."""

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        super().__init__("unknown token(s): " + ", ".join(self.tokens))


@dataclass(eq=False, slots=True)
class Edge:
    """A chart edge: a sign over a token span plus its derivation record.

    The fill reads an edge's category, and `combine` its `binds`,
    `index_sort`, pending `subj` and `comps` and `sign`, the head word's
    compiled sign, which a mother takes from its head daughter; the pooled
    `entries`, `indices`, `restr`, `quants` and `bg` it only concatenates.
    `parts`, the whole `Sign`, is a lexical edge's `sign`; a phrasal edge
    builds it on first read, so a fill builds no `Sign`.  Only readings
    read the pooled sets: the checker, the index assignment and
    `render_sign` through `variables` and `sorts`, the words and their
    senses from `parts.entries`.
    A bind identifies a verb-role slot with an np's index and keeps their
    meet; each class is a star, one index and its slots, and each bind meets
    the sort the earlier binds left, so an index's last bind holds its sort.
    `index_sort` is that sort, else the node's own, for `sign.index` (see
    `combine`).  A reading is an "s" edge spanning every token.  Its
    `derivation_string` is built on first read, in one left-to-right walk
    that stops at every string already kept, and kept by lexical and
    labelled edges, so the readings of one chart share the strings of their
    common subtrees.  The variable table is built on the first read of
    `variables`, `sorts` or `verdicts` and kept the same way, except that
    the readings of one chart share it (see `Chart.readings`).  Every field,
    those two and a kept `parts` included, is a slot set by `__init__`, so
    no edge has an instance dict.  A lexical edge is kept in
    `grammar.Lexicon.edges` under (method, position, word) and reused, with
    its string and table, by every later chart over that word at that
    position (`lexical_edges`).
    """

    start: int
    end: int
    cat: str
    sign: Sign                      # lexical: its own; phrasal: the head's
    schema: str | None = None       # None marks a lexical edge
    children: tuple = ()
    binds: tuple = ()               # (slot, index, met) identifications below
    index_sort: str | None = None   # the binds' sort for sign.index
    # the pooled sets and pending valence, None on a hand-made lexical edge
    entries: tuple | None = None
    indices: tuple | None = None
    restr: tuple | None = None
    quants: tuple | None = None
    bg: tuple | None = None
    subj: tuple | None = None
    comps: tuple | None = None
    _parts: Sign | None = field(default=None, init=False, repr=False)
    _derivation: str | None = field(default=None, init=False, repr=False)
    # None, a chart's {(indices, binds set): table} lookup, or the table
    _table: tuple | dict | None = field(default=None, init=False, repr=False)

    def _tabulate(self):
        """Keep and return the (variables, sorts, verdicts) table.

        Handed a chart's lookup, the edge takes the table kept there under
        `(indices, frozenset(binds))` (a lexical edge's `sign.indices`), what
        a table is built from, or builds one and keeps it there; else it
        builds its own.  A new table's `verdicts` is empty.
        """
        lookup = self._table
        indices = self.sign.indices if self.schema is None else self.indices
        if lookup is not None:
            key = indices, frozenset(self.binds)
            table = lookup.get(key)
            if table is not None:
                self._table = table
                return table
        bound, last_met = {}, {}
        for slot, index, met in self.binds:
            bound[slot], last_met[index] = index, met
        variables, sorts = {}, {}
        for node in indices:
            index = bound.get(node, node)
            var = variables.get(index)
            if var is None:
                var = variables[index] = len(sorts) + 1
                sorts[var] = last_met.get(index, index.sort)
            variables[node] = var
        self._table = table = variables, sorts, {}
        if lookup is not None:
            lookup[key] = table
        return table

    @property
    def variables(self):
        """Index node or bound slot -> its variable number: numbered by first
        appearance in `parts.indices` (word order), a slot as its index.

        Kept, and shared by the readings of one chart with the same indices
        and binds (see `Chart.readings`): read-only."""
        table = self._table
        return (table if table.__class__ is tuple else self._tabulate())[0]

    @property
    def sorts(self):
        """Variable number -> its last bind's meet, else its node's sort.

        Kept and shared as `variables` is: read-only."""
        table = self._table
        return (table if table.__class__ is tuple else self._tabulate())[1]

    @property
    def verdicts(self):
        """{hierarchy: `check_reading` verdict}, kept and shared as
        `variables` is."""
        table = self._table
        return (table if table.__class__ is tuple else self._tabulate())[2]

    @property
    def parts(self):
        """The edge's `Sign`, kept from a phrasal edge's first read."""
        if self.schema is None:
            return self.sign
        if self._parts is None:
            core = self.sign
            self._parts = Sign(self.entries, self.indices, core.head,
                               core.index, core.nucleus, self.subj,
                               self.comps, self.restr, self.quants, self.bg)
        return self._parts

    def __repr__(self):
        words = " ".join(e.phon for e in self.parts.entries)
        return f"<Edge {self.cat} {self.start}:{self.end} {words}>"

    @property
    def derivation_string(self):
        """Bracketed derivation like `(S (NP tom) (VP ate (NP a keyboard)))`."""
        # one left-to-right walk with an explicit stack, as an adjective
        # stack nests one level per word: each kept string is appended when
        # reached, and a labelled edge's close marker joins the pieces
        # appended since it opened into its string.  An unlabelled phrasal
        # edge keeps none, or each level of an adjective stack would keep
        # the words below it.
        if self._derivation is not None:
            return self._derivation
        pieces, stack = [], [self]
        while stack:
            edge = stack.pop()
            if edge.__class__ is tuple:     # (edge, first piece, label)
                edge, first, label = edge
                text = f"({label} {' '.join(pieces[first:])})"
                pieces[first:] = (text,)
                edge._derivation = text
            elif edge._derivation is not None:
                pieces.append(edge._derivation)
            elif edge.children:
                label = _PHRASE_LABEL.get(edge.cat)
                if label:
                    stack.append((edge, len(pieces), label))
                stack += reversed(edge.children)
            else:
                text = " ".join(e.phon for e in edge.sign.entries)
                label = _PHRASE_LABEL.get(edge.cat)
                edge._derivation = f"({label} {text})" if label else text
                pieces.append(edge._derivation)
        return self._derivation or " ".join(pieces)

    @property
    def identity(self):
        """Hashable identity: derivation shape plus each word's sense id."""
        return (self.derivation_string,
                tuple(e.sense_id for e in self.parts.entries))


def _valence_cat(subj, comps):
    return "v" if comps else "vp" if subj else "s"


def lexical_edges(tokens, lexicon, decls, hierarchy, method):
    """One edge per (token position, lexical sense) over that sense's sign.

    A `grammar.Lexicon` keeps a word's edges at a position in its `edges`
    under (method, position, word), built on first use, for every later
    chart over the same hierarchy and declarations objects, with their
    derivation strings and variable tables once read; under others the
    signs are compiled anew and new edges replace the kept ones (see
    `compile_entry`).  Any other mapping of words to senses keeps nothing.
    An unknown method is named before any token is read.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    unknown = sorted({t for t in tokens if t not in lexicon})
    if unknown:
        raise UnknownTokenError(unknown)
    kept = getattr(lexicon, "edges", {})
    edges = []
    for i, token in enumerate(tokens):
        built = kept.get((method, i, token))
        if (built is None or built[0] is not hierarchy
                or built[1] is not decls):
            senses = []
            for entry in lexicon[token]:
                sign = compile_entry(entry, decls, method, hierarchy)
                cat = (PARTS_OF_SPEECH[entry.pos][1]
                       or _valence_cat(sign.subj, sign.comps))
                senses.append(Edge(
                    i, i + 1, cat, sign, None, (), (),
                    sign.index and sign.index.sort, sign.entries,
                    sign.indices, sign.restr, sign.quants, sign.bg,
                    sign.subj, sign.comps))
            built = kept[method, i, token] = (hierarchy, decls, senses)
        edges.extend(built[2])
    return edges


def combine(left, right, schema, hierarchy):
    """Apply one schema to two adjacent edges, None when the index sorts
    clash; the mother keeps the head's `sign` and `index_sort`, or
    np_relc's new meet, and builds no `Sign` (see `Edge.parts`)."""
    rule = RULES.get(schema)
    if rule is None:
        raise ValueError(f"unknown schema {schema!r}")
    head = right if rule.head else left
    subj, comps = head.subj, head.comps
    index_sort = head.index_sort    # the other daughter's binds miss it
    binds = left.binds + right.binds
    if rule.slot is not None:
        selector, dependent = (right, left) if rule.selector else (left, right)
        pending = selector.comps if rule.slot == "comps" else selector.subj
        slot = pending[0]
        met = slot.sort
        if met != dependent.index_sort:     # every bg meet is of equal sorts
            met = hierarchy.glb(met, dependent.index_sort)
        if met is None:
            return None
        if selector is not head:    # np_relc: the np bound is the head
            index_sort = met
        elif rule.slot == "comps":
            comps = pending[1:]
        else:
            subj = pending[1:]
        binds += ((slot, dependent.sign.index, met),)
    restr = left.restr + right.restr
    quants = left.quants + right.quants
    if rule.quantify:
        restr, quants = (), quants + restr
    cat = rule.mother or _valence_cat(subj, comps)
    # positional, in field order: keywords make this call two thirds slower
    return Edge(left.start, right.end, cat, head.sign, schema, (left, right),
                binds, index_sort, left.entries + right.entries,
                left.indices + right.indices, restr, quants,
                left.bg + right.bg, subj, comps)


def _walk(n, cells, ends, lexical, hierarchy, add):
    """Fill the empty `cells`, span -> edges, and `ends`, each start's ends
    of its non-empty cells ascending, over n tokens: `add(cell, edge)` puts
    each `lexical` edge, then each mother `combine` makes, into its cell.

    The starts are walked right to left and, at each, the ends in
    `ends[start]` ascending: each names a complete left cell, whose edges
    meet the right edges their row of `SCHEMAS` names in the non-empty
    cells at that split (`ends[split]`), complete as they lie to its right.
    A new cell's end is inserted past its split, so the walk reaches it
    later; a cell's edges come split ascending, then in left and right
    cell order.
    """
    for start in range(n):
        cells[start, start + 1] = []
        ends.append([start + 1])
    for edge in lexical:
        add(cells[edge.start, edge.end], edge)
    for start in range(n - 2, -1, -1):
        follow = ends[start]
        for split in follow:
            if split == n:
                break
            for l_edge in cells[start, split]:
                row = _SCHEMA_ROWS.get(l_edge.cat)
                if row is None:
                    continue
                for end in ends[split]:
                    for r_edge in cells[split, end]:
                        schema = row.get(r_edge.cat)
                        if schema and (edge := combine(l_edge, r_edge,
                                                       schema, hierarchy)):
                            cell = cells.get((start, end))
                            if cell is None:    # end > split: walked later
                                cell = cells[start, end] = []
                                insort(follow, end)
                            add(cell, edge)


class Chart:
    """One parse's worth of edges, kept per span, plus size statistics.

    Filled when built, private to one parse, and sized unfilled by `count`.
    """

    def __init__(self, tokens, lexicon, decls, hierarchy, method="bg"):
        self.tokens = list(tokens)
        self.lexicon = lexicon
        self.decls = decls
        self.hierarchy = hierarchy
        self.method = method
        self.cells, self.ends = {}, []  # filled by `_walk`
        self.fill()

    def fill(self):
        """Make the walk of `_walk` over the tokens, keeping every edge."""
        cells, hierarchy = self.cells, self.hierarchy
        lexical = lexical_edges(self.tokens, self.lexicon, self.decls,
                                hierarchy, self.method)
        _walk(len(self.tokens), cells, self.ends, lexical, hierarchy,
              list.append)
        self.edges_built = sum(map(len, cells.values()))

    def readings(self):
        """Complete-sentence readings: saturated verbal edges spanning everything.

        Two or more readings are handed one lookup of this chart's, so those
        with the same `parts.indices` and set of `binds` share one variable
        table and one verdict per hierarchy (`Edge.verdicts`); callers must
        treat both as read-only.  The indices fix the constraint set: each
        quants and bg instance is compiled with its word's index nodes,
        `det_nbar` has moved every restr into quants, and both pool left to
        right.  The lookup refers to no edge, and it and its tables go with
        the readings.  A lone reading gets none and keeps its own table.
        """
        full = self.cells.get((0, len(self.tokens)), ())
        readings = [edge for edge in full if edge.cat == "s"]
        if len(readings) > 1:
            lookup = {}
            for reading in readings:
                if reading._table is None:
                    reading._table = lookup
        return readings


def count(tokens, lexicon, decls, hierarchy, method):
    """A `Chart`'s (len(readings()), edges_built), counted without a fill:
    each cell keeps one edge per shape, all that `combine` reads of it
    (category, the sorts of its `subj` and `comps` fields, `index_sort`; no
    edge's `parts` is built), and its trees, as many as a chart's edges of
    that shape.  It makes the fill's walk (`_walk`) with an `add` that keeps
    a cell's first edge of each shape and adds every edge's product of
    daughter trees to that one's (Goodman 1999, "Semiring parsing").
    """
    cells, first, trees = {}, {}, {}

    def add(cell, edge):
        shape = (edge.start, edge.end, edge.cat,
                 tuple(slot.sort for slot in edge.subj),
                 tuple(slot.sort for slot in edge.comps), edge.index_sort)
        made = (trees[edge.children[0]] * trees[edge.children[1]]
                if edge.children else 1)
        kept = first.setdefault(shape, edge)
        if kept is edge:
            cell.append(edge)
        trees[kept] = trees.get(kept, 0) + made

    lexical = lexical_edges(tokens, lexicon, decls, hierarchy, method)
    _walk(len(tokens), cells, [], lexical, hierarchy, add)
    full = cells.get((0, len(tokens)), ())
    return (sum(trees[edge] for edge in full if edge.cat == "s"),
            sum(trees.values()))


@dataclass
class MethodReport:
    """One method's verdict on one sentence."""

    method: str
    pre_filter: int
    post_filter: int
    surviving: list   # (reading Edge, {var: sort})
    violations: list  # (reading Edge, Violation)


def run_method(tokens, lexicon, decls, hierarchy, method):
    """Analyse one sentence under "bg", "index" or "both".

    Returns (reports, agree): one MethodReport per method, bg first, and
    under "both" whether they keep the same readings with the same sorts,
    equal `{identity: assignment}` dicts (None otherwise); both number a
    reading's variables alike, in word order (`Edge.variables`).
    pre_filter counts readings with selectional checking disabled.
    Nothing prunes during a "bg" parse (all indices stay at the root sort,
    so every meet in `combine` succeeds), so the bg chart doubles as the
    unfiltered baseline; under "index" alone only the index chart is
    filled, and `count` counts the bg chart's readings for pre_filter.
    post_filter counts survivors: solver-approved readings under "bg", the
    pruned chart's own readings under "index".

    Readings that differ only in attachment carry the same constraints over
    the same variables.  Each `check_reading` and `sorts` read below is per
    reading, but the readings of one chart share one verdict object and one
    variable table per distinct indices and binds (`Chart.readings`), so the
    solver and the index assignment run once per constraint set; each
    survivor still gets its own copy of its assignment.
    """
    if method not in (*METHODS, "both"):
        raise ValueError(f"unknown method {method!r}")
    reports = []
    if method != "index":
        baseline = Chart(tokens, lexicon, decls, hierarchy, "bg").readings()
        pre_filter = len(baseline)
        surviving, violations = [], []
        for reading in baseline:
            result = check_reading(reading, hierarchy)
            if isinstance(result, Satisfiable):
                surviving.append((reading, dict(result.assignment)))
            else:
                violations.append((reading, result))
        reports.append(MethodReport("bg", pre_filter, len(surviving),
                                    surviving, violations))
    if method != "bg":
        chart = Chart(tokens, lexicon, decls, hierarchy, "index")
        if method == "index":
            pre_filter = count(tokens, lexicon, decls, hierarchy, "bg")[0]
        surviving = [(reading, dict(reading.sorts))
                     for reading in chart.readings()]
        reports.append(MethodReport("index", pre_filter, len(surviving),
                                    surviving, []))
    agree = None
    if method == "both":
        bg, index = ({r.identity: a for r, a in rep.surviving}
                     for rep in reports)
        agree = bg == index
    return reports, agree
