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
one meet of two sorts, so sortal conflicts between indices surface here
and, under the "index" compilation method, prune analyses while parsing.
No graph is copied: an edge's sign is unified when it is first read.  The
background set of every mother is the union of its daughters' sets; the
quantifier set grows by the noun's restriction when a determiner attaches.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

from .grammar import METHODS, PARTS_OF_SPEECH, Sign, compile_entry, tokenize
from .selres import Satisfiable, check_reading
from .tfs import meet

__all__ = [
    "Chart",
    "Edge",
    "MethodReport",
    "SCHEMAS",
    "UnknownTokenError",
    "combine",
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
    identified with the other daughter's index, provided their sorts meet.
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

_PHRASE_LABEL = {"s": "S", "np": "NP", "vp": "VP", "pp": "PP", "relc": "RelC"}


class UnknownTokenError(ValueError):
    """One or more tokens have no lexical entry."""

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        super().__init__("unknown token(s): " + ", ".join(self.tokens))


@dataclass(eq=False)
class Edge:
    """A chart edge: a sign over a token span plus its derivation record.

    While parsing, an edge holds only what `combine` reads; its full `sign`
    is built when it is first read.  A complete analysis (a reading) is an
    "s" edge spanning every token.
    """

    start: int
    end: int
    cat: str
    parts: Sign                     # the daughters pooled; nodes stay lexical
    schema: str | None = None       # None marks a lexical edge
    children: tuple = ()
    entry: object = None            # LexicalEntry on lexical edges
    hierarchy: object = None
    index_sort: str | None = None   # the sort `binds` leave on the index
    binds: tuple = ()               # (slot, index) identifications below

    @cached_property
    def sign(self):
        """The full sign: `parts` with every identification below unified."""
        if not self.binds:
            return self.parts
        return self.parts.unified(self.binds, self.hierarchy)

    def leaves(self):
        """The lexical edges under this one, left to right."""
        # an explicit stack: an adjective stack nests one level per word
        out, stack = [], [self]
        while stack:
            edge = stack.pop()
            if edge.schema is None:
                out.append(edge)
            else:
                stack.extend(reversed(edge.children))
        return out

    def __repr__(self):
        return f"<Edge {self.cat} {self.start}:{self.end} {' '.join(self.parts.phon)}>"

    @property
    def derivation_string(self):
        """Bracketed derivation like `(S (NP tom) (VP ate (NP a keyboard)))`."""
        parts, stack = [], [self]   # stack items: edges and closing text
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            label = _PHRASE_LABEL.get(item.cat)
            if label:
                parts.append(f"({label} ")
                stack.append(")")
            if not item.children:
                parts.append(" ".join(item.parts.phon))
            for i, child in enumerate(reversed(item.children)):
                stack.extend((" ", child) if i else (child,))
        return "".join(parts)

    @property
    def identity(self):
        """Hashable identity: derivation shape plus lexical sense choices."""
        return (self.derivation_string,
                tuple(leaf.entry.sense_id for leaf in self.leaves()))


def _valence_cat(sign):
    if sign.comps:
        return "v"
    return "vp" if sign.subj else "s"


def lexical_edges(tokens, lexicon, decls, hierarchy, method):
    """One edge per (token position, lexical sense), with fresh signs."""
    unknown = sorted({t for t in tokens if t not in lexicon})
    if unknown:
        raise UnknownTokenError(unknown)
    edges = []
    for i, token in enumerate(tokens):
        for entry in lexicon[token]:
            sign = compile_entry(entry, decls, method, hierarchy)
            cat = PARTS_OF_SPEECH[entry.pos][1] or _valence_cat(sign)
            edges.append(Edge(i, i + 1, cat, sign, entry=entry,
                              index_sort=sign.index and sign.index.sort))
    return edges


def combine(left, right, schema, hierarchy):
    """Apply one schema to two adjacent edges; None when the index sorts clash."""
    rule = RULES.get(schema)
    if rule is None:
        raise ValueError(f"unknown schema {schema!r}")
    edges = (left, right)
    lsign, rsign = left.parts, right.parts
    head = edges[rule.head]
    valence = {}
    binds = left.binds + right.binds
    index_sort = head.index_sort
    if rule.slot is not None:
        selector, dependent = edges[rule.selector], edges[1 - rule.selector]
        slot, *rest = getattr(selector.parts, rule.slot)
        met = meet(slot.sort, dependent.index_sort, hierarchy)
        if met is None:
            return None
        if selector is head:
            valence[rule.slot] = tuple(rest)
        else:   # np_relc: the relative clause's subject narrows the head's index
            index_sort = met
        binds += ((slot, dependent.parts.index),)
    restr = lsign.restr + rsign.restr
    quants = lsign.quants + rsign.quants
    if rule.quantify:
        restr, quants = (), quants + restr
    sign = replace(head.parts, phon=lsign.phon + rsign.phon, restr=restr,
                   quants=quants, bg=lsign.bg + rsign.bg, **valence)
    cat = rule.mother or _valence_cat(sign)
    return Edge(left.start, right.end, cat, sign, schema, edges,
                hierarchy=hierarchy, index_sort=index_sort, binds=binds)


class Chart:
    """One parse's worth of edges, kept per span, plus size statistics.

    A chart is filled when it is built and is private to one parse;
    distinct sentences may be parsed concurrently against the same
    (immutable) lexicon and hierarchy.
    """

    def __init__(self, tokens, lexicon, decls, hierarchy, method="bg"):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        self.tokens = list(tokens)
        self.lexicon = lexicon
        self.decls = decls
        self.hierarchy = hierarchy
        self.method = method
        self.cells = {}
        self.ends = [[] for _ in self.tokens]  # per start, ascending
        self.edges_built = 0
        self.fill()

    def _add(self, edge):
        cell = self.cells.setdefault((edge.start, edge.end), [])
        if not cell:
            self.ends[edge.start].append(edge.end)
        cell.append(edge)
        self.edges_built += 1

    def fill(self):
        for edge in lexical_edges(self.tokens, self.lexicon, self.decls,
                                  self.hierarchy, self.method):
            self._add(edge)
        n = len(self.tokens)
        for width in range(2, n + 1):
            for start in range(0, n - width + 1):
                end = start + width
                for split in self.ends[start]:
                    if split >= end:
                        break
                    for l_edge in self.cells[start, split]:
                        for r_edge in self.cells.get((split, end), ()):
                            schema = SCHEMAS.get((l_edge.cat, r_edge.cat))
                            if schema is None:
                                continue
                            edge = combine(l_edge, r_edge, schema, self.hierarchy)
                            if edge is not None:
                                self._add(edge)

    def readings(self):
        """Complete-sentence readings: saturated verbal edges spanning everything."""
        full = self.cells.get((0, len(self.tokens)), ())
        return [edge for edge in full if edge.cat == "s"]


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
    under "both" whether the two methods keep the same reading identities
    (None otherwise).  pre_filter counts readings with selectional checking
    disabled.  Nothing prunes during a "bg" parse (all indices stay at the
    root sort, so every meet in `combine` succeeds), so the bg chart,
    filled once, doubles as the unfiltered baseline.  post_filter
    counts survivors: solver-approved readings under "bg", the pruned
    chart's own readings under "index".
    """
    if method not in (*METHODS, "both"):
        raise ValueError(f"unknown method {method!r}")
    baseline = Chart(tokens, lexicon, decls, hierarchy, "bg").readings()
    reports = []
    if method != "index":
        surviving, violations = [], []
        for reading in baseline:
            result = check_reading(reading, hierarchy)
            if isinstance(result, Satisfiable):
                surviving.append((reading, dict(result.assignment)))
            else:
                violations.append((reading, result))
        reports.append(MethodReport("bg", len(baseline), len(surviving),
                                    surviving, violations))
    if method != "bg":
        surviving = []
        pruned = Chart(tokens, lexicon, decls, hierarchy, "index").readings()
        for reading in pruned:
            numbers = reading.sign.index_numbering(hierarchy)
            surviving.append((reading, {var: node.sort
                                        for node, var in numbers.items()}))
        reports.append(MethodReport("index", len(baseline), len(surviving),
                                    surviving, []))
    agree = None
    if method == "both":
        bg, index = ({r.identity for r, _ in rep.surviving} for rep in reports)
        agree = bg == index
    return reports, agree
