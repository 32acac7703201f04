"""Lexicon and relation declarations, compiled into HPSG-style signs.

`compile_entry` compiles an entry's "bg" sign: its indices stay at the
hierarchy's root sort, and each restriction is a `sortal` relation instance
on its index.  `fold` makes the "index" sign by meeting those sorts onto
the indices, so the parser's one sort meet per identification
(`SortHierarchy.glb`) enforces them during parsing.
"""

import re
from dataclasses import dataclass, field

from .sorts import lines

__all__ = [
    "FeatureStructure",
    "GrammarError",
    "LexicalEntry",
    "Lexicon",
    "Relation",
    "Sign",
    "apply_qfpsoa_declarations",
    "compile_entry",
    "distinct_bg",
    "fold",
    "load_declarations",
    "load_lexicon",
    "render_sign",
    "sortal",
    "tokenize",
]

METHODS = ("bg", "index")

# part of speech -> (head sort, chart category of its lexical edge); a
# verb's category is None because it follows the verb's pending valence
PARTS_OF_SPEECH = {
    "verb": ("verb", None),
    "noun": ("noun", "nbar"),
    "proper-noun": ("noun", "np"),
    "determiner": ("det", "det"),
    "preposition": ("prep", "prep"),
    "relative-pronoun": ("relpro", "relpro"),
    "adjective": ("adj", "adj"),
}

# (subject slots, complement slots); "imp" is a subjectless imperative verb
VALENCES = {"trans": (1, 1), "intrans": (1, 0), "imp": (0, 1)}

_DECL_RE = re.compile(r"([a-z_][a-z0-9_]*)\s*\(([^()]*)\)$")

_PUNCTUATION = ".,!?;:"


class GrammarError(ValueError):
    """A lexicon or declaration document is malformed or inconsistent."""


@dataclass(eq=False)
class FeatureStructure:
    """One node of an attribute-value graph: a sort plus named children."""

    sort: str
    feats: dict = field(default_factory=dict)

    def __repr__(self):
        inner = " " + ",".join(self.feats) if self.feats else ""
        return f"<fs {self.sort}{inner}>"


@dataclass(frozen=True)
class LexicalEntry:
    """One sense of a word, as `load_lexicon` read and checked it."""

    phon: str
    pos: str
    sense_id: str
    nucleus: str | None = None      # verbs
    index_sort: str | None = None   # nouns and proper nouns
    valence: str | None = None      # verbs: trans / intrans / imp
    name_atom: str | None = None    # proper nouns
    overrides: tuple = ()           # ((role, sort), ...)


class Lexicon(dict):
    """word -> its senses, a tuple of LexicalEntry, as `load_lexicon` reads it.

    `edges` keeps the lexical edges `parser.lexical_edges` built over this
    lexicon: (token position, word) -> [hierarchy, declarations, bg edges,
    index edges or None], one edge per sense, compiled under those objects.
    The lexicon owns them, so they go with it, and no edge refers back to it.
    """

    __slots__ = ("edges",)

    def __init__(self, senses=()):
        super().__init__(senses)
        self.edges = {}


@dataclass(eq=False)
class Relation:
    """One relation instance carried by a sign, with its contributing word.

    `sort` is the relation's name and `roles` its (role, filler) pairs in
    declaration order; a filler is an index node, or the atom string of
    `naming`'s `name` role.  An instance compares by identity.
    """

    sort: str
    roles: tuple
    source: str


@dataclass(slots=True)
class Sign:
    """One word's compiled sign: its content and set-valued parts.

    `index` (nouns) or `nucleus` (verbs) is the content; subj/comps are the
    pending valence slots, each a nucleus role filler that a dependent's
    index is identified with; restr and bg hold `Relation` records over
    index nodes (a word has no quants).  `entries` holds the word's
    LexicalEntry, whose part of speech names its head sort, and `indices`
    its index nodes: a noun's index, a verb's role indices in declaration
    order.  A sign is a slotted record: `__init__` sets every field, and no
    sign has an instance dict.
    """

    entries: tuple
    indices: tuple
    index: FeatureStructure | None = None
    nucleus: Relation | None = None
    subj: tuple = ()
    comps: tuple = ()
    restr: tuple = ()
    bg: tuple = ()


def distinct_bg(bg, variables):
    """The `bg` instances, those `variables` numbers alike kept once: the
    one rule for `render_sign`, which lists them, and for
    `selres.check_reading`, which checks them."""
    kept = {}
    for ref in bg:
        key = (ref.sort, tuple([(role, variables.get(filler, filler))
                                for role, filler in ref.roles]))
        kept.setdefault(key, ref)
    return tuple(kept.values())


def tokenize(text):
    """Lowercased whitespace tokens with edge punctuation stripped."""
    stripped = (raw.strip(_PUNCTUATION) for raw in text.lower().split())
    return [token for token in stripped if token]


def load_declarations(text, hierarchy):
    """Parse relation declarations (README, "File formats"): name -> roles."""
    decls = {}
    for lineno, line in lines(text.lower()):
        m = _DECL_RE.match(line)
        if not m:
            raise GrammarError(f"line {lineno}: bad declaration {line!r}")
        name, body = m.group(1), m.group(2)
        if name in decls:
            raise GrammarError(f"line {lineno}: duplicate declaration {name!r}")
        if not body.strip():
            raise GrammarError(f"line {lineno}: {name!r} declares no roles")
        roles = []
        for part in body.split(","):
            role, sep, sort = part.partition(":")
            role, sort = role.strip(), sort.strip()
            if not sep or not role or not sort:
                raise GrammarError(
                    f"line {lineno}: expected 'role: sort', got {part.strip()!r}")
            if any(role == seen for seen, _ in roles):
                raise GrammarError(f"line {lineno}: duplicate role {role!r}")
            if not hierarchy.declared(sort):
                raise GrammarError(
                    f"line {lineno}: unknown restriction sort {sort!r}")
            roles.append((role, sort))
        decls[name] = tuple(roles)
    return decls


def _parse_extras(text, lineno):
    flags = []
    pairs = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        key, sep, value = token.partition("=")
        if sep:
            key, value = key.strip().lower(), value.strip()
            if not key or not value:
                raise GrammarError(f"line {lineno}: bad extra {token!r}")
            if key in pairs:
                raise GrammarError(f"line {lineno}: duplicate extra {key!r}")
            pairs[key] = value
        else:
            flags.append(token.lower())
    return flags, pairs


def load_lexicon(text, hierarchy, decls):
    """Parse the lexicon format (README, "File formats") into word -> entries.

    Validates referenced sorts and relations, verb valence against relation
    arity (the subject fills the first role when there is one), and local
    restriction overrides, which must narrow the declared sort.
    """
    lexicon = {}
    for lineno, line in lines(text):
        fields = [f.strip() for f in line.split("|")]
        if len(fields) < 2 or len(fields) > 4:
            raise GrammarError(
                f"line {lineno}: expected 'word | pos | core | extras'")
        word = fields[0].lower()
        pos = fields[1].lower()
        core = fields[2].lower() if len(fields) > 2 and fields[2] else None
        extras = fields[3] if len(fields) > 3 else ""
        if tokenize(word) != [word]:
            raise GrammarError(f"line {lineno}: {word!r} is not a single token")
        if pos not in PARTS_OF_SPEECH:
            raise GrammarError(f"line {lineno}: unknown part of speech {pos!r}")
        flags, pairs = _parse_extras(extras, lineno)
        for key in ("sense", "name") if pos == "verb" else ():
            if key in pairs and key in dict(decls.get(core, ())):
                raise GrammarError(f"line {lineno}: extra {key!r} is ambiguous: "
                                   f"{core!r} has a role named {key!r}")
        sense = pairs.pop("sense", None)
        name_atom = pairs.pop("name", None)

        if pos == "verb":
            if name_atom is not None:
                raise GrammarError(
                    f"line {lineno}: verb {word!r} takes no name atom")
            if core is None:
                raise GrammarError(f"line {lineno}: verb {word!r} names no qfpsoa")
            valences = [f for f in flags if f in VALENCES]
            if len(valences) != 1:
                raise GrammarError(
                    f"line {lineno}: verb {word!r} needs exactly one of "
                    + "/".join(VALENCES))
            bad = [f for f in flags if f not in VALENCES]
            if bad:
                raise GrammarError(f"line {lineno}: unknown flag {bad[0]!r}")
            roles = decls.get(core)
            if roles is None:
                raise GrammarError(f"line {lineno}: unknown qfpsoa {core!r}")
            slots = sum(VALENCES[valences[0]])
            if len(roles) != slots:
                raise GrammarError(
                    f"line {lineno}: {word!r} offers {slots} argument slot(s) "
                    f"but {core!r} has {len(roles)} role(s)")
            entry = LexicalEntry(
                phon=word, pos=pos, sense_id=sense or core, nucleus=core,
                valence=valences[0],
                overrides=tuple(sorted((role, sort.lower())
                                       for role, sort in pairs.items())))
            # force override validation now rather than at first compile
            try:
                apply_qfpsoa_declarations(entry, decls, hierarchy)
            except GrammarError as exc:
                raise GrammarError(f"line {lineno}: {exc}") from None
        elif pos in ("noun", "proper-noun"):
            if flags or pairs:
                leftover = (flags + sorted(pairs))[0]
                raise GrammarError(f"line {lineno}: unknown extra {leftover!r}")
            if pos == "noun" and name_atom is not None:
                raise GrammarError(
                    f"line {lineno}: common noun {word!r} takes no name atom")
            if core is None:
                raise GrammarError(f"line {lineno}: {word!r} names no index sort")
            if not hierarchy.declared(core):
                raise GrammarError(f"line {lineno}: unknown sort {core!r}")
            if pos == "proper-noun":
                name_atom = name_atom or fields[0]
                if hierarchy.declared(name_atom):
                    raise GrammarError(f"line {lineno}: name atom "
                                       f"{name_atom!r} is a declared sort")
            entry = LexicalEntry(
                phon=word, pos=pos, sense_id=sense or core, index_sort=core,
                name_atom=name_atom)
        else:
            if core is not None or flags or pairs or name_atom is not None:
                raise GrammarError(
                    f"line {lineno}: {pos} {word!r} takes no core or extras")
            entry = LexicalEntry(phon=word, pos=pos, sense_id=sense or word)

        if any(e.sense_id == entry.sense_id for e in lexicon.get(word, ())):
            raise GrammarError(
                f"line {lineno}: duplicate sense {entry.sense_id!r} for {word!r}")
        lexicon.setdefault(word, []).append(entry)
    return Lexicon((word, tuple(entries)) for word, entries in lexicon.items())


def apply_qfpsoa_declarations(entry, decls, hierarchy):
    """Effective (role, restriction) pairs for a verb entry.

    Restrictions come from the relation declaration so that verbs sharing a
    relation share them; an entry-local override must be subsumed by the
    declared sort.  Both must be sorts of `hierarchy`, which need not be the
    one the declarations were loaded against.
    """
    roles = decls.get(entry.nucleus)
    if roles is None:
        raise GrammarError(f"{entry.phon!r}: unknown qfpsoa {entry.nucleus!r}")
    overrides = dict(entry.overrides)
    effective = []
    for role, sort in roles:
        narrowed = overrides.pop(role, sort)
        for s in (narrowed, sort):
            if not hierarchy.declared(s):
                raise GrammarError(
                    f"{entry.phon!r}: unknown sort {s!r} for role {role!r}")
        if narrowed != sort and not hierarchy.subsumes(sort, narrowed):
            raise GrammarError(
                f"{entry.phon!r}: override {role}={narrowed} is not subsumed "
                f"by the declared restriction {sort!r}")
        effective.append((role, narrowed))
    if overrides:
        raise GrammarError(
            f"{entry.phon!r}: unknown role(s) for {entry.nucleus!r}: "
            + ", ".join(sorted(overrides)))
    return tuple(effective)


def compile_entry(entry, decls, hierarchy):
    """Compile one lexical entry into a fresh bg Sign (`fold` makes its
    index sign): new index nodes and `Relation` records, which compare by
    identity, so two tokens of one word stay distinct.  No code changes a
    sign once built, so `parser.lexical_edges` keeps one per position."""
    top = hierarchy.root
    word = entry.phon

    if entry.pos == "verb":
        effective = apply_qfpsoa_declarations(entry, decls, hierarchy)
        nsubj = VALENCES[entry.valence][0]
        indices = tuple([FeatureStructure(top) for _ in effective])
        nuc = Relation(entry.nucleus, tuple(
            (role, idx) for (role, _), idx in zip(effective, indices)), word)
        return Sign(entries=(entry,), indices=indices, nucleus=nuc,
                    subj=indices[:nsubj], comps=indices[nsubj:],
                    bg=tuple([Relation(sort, (("inst", idx),), word)
                              for (_role, sort), idx in zip(effective, indices)
                              if sort != top]))

    if entry.pos in ("noun", "proper-noun"):
        if not hierarchy.declared(entry.index_sort):
            raise GrammarError(f"{word!r}: unknown sort {entry.index_sort!r}")
        idx = FeatureStructure(top)
        restriction = Relation(entry.index_sort, (("inst", idx),), word)
        if entry.pos == "noun":
            return Sign(entries=(entry,), indices=(idx,), index=idx,
                        restr=(restriction,))
        naming = Relation("naming", (("brer", idx), ("name", entry.name_atom)),
                          word)
        return Sign(entries=(entry,), indices=(idx,), index=idx,
                    bg=(naming, restriction))

    return Sign(entries=(entry,), indices=())


def sortal(ref, hierarchy):
    """Whether `ref` restricts its one filler's sort: it has one role and a
    sort names it (read in restr, quants and bg, never in a nucleus)."""
    return len(ref.roles) == 1 and ref.sort in hierarchy.sorts


def _over(ref, fresh):  # `ref` with its index fillers' `fresh` copies
    roles = tuple([(role, fresh.get(f, f)) for role, f in ref.roles])
    return Relation(ref.sort, roles, ref.source)


def fold(sign, hierarchy):
    """The index sign of bg sign `sign`: each `sortal` instance in its restr
    and bg is met onto a fresh copy of its filler node and dropped, the rest
    rebuilt over the copies.  No index nodes: `sign` as it is."""
    if not sign.indices:
        return sign
    fresh = {node: FeatureStructure(node.sort) for node in sign.indices}
    kept = [(), ()]
    for i, refs in enumerate((sign.restr, sign.bg)):
        for ref in refs:
            if sortal(ref, hierarchy):
                node = fresh[ref.roles[0][1]]
                node.sort = hierarchy.glb(node.sort, ref.sort)
            else:
                kept[i] += (_over(ref, fresh),)
    # positional, in field order: keywords make this call twice as slow
    return Sign(sign.entries, tuple(fresh.values()), fresh.get(sign.index),
                sign.nucleus and _over(sign.nucleus, fresh),
                tuple(map(fresh.get, sign.subj)),
                tuple(map(fresh.get, sign.comps)), *kept)


def _filler_str(filler, variables, sorts):
    var = variables.get(filler)
    return filler if var is None else f"#{var}:{sorts[var]}"  # an atom as is


def _psoa_str(ref, variables, sorts):
    inner = ", ".join(f"{role}: {_filler_str(filler, variables, sorts)}"
                      for role, filler in ref.roles)
    return f"{ref.sort}({inner})"


def render_sign(edge):
    """Compact AVM-style rendering of a chart edge's sign through its
    variables.

    The head sort (by its word's part of speech), index and nucleus come
    from the edge's `sign`, the rest from the edge.  Each variable (see
    `parser.Edge.variables`) is shown as `#n:sort`, its number and its
    `sorts` entry; bg instances made identical are listed once
    (`distinct_bg`).
    """
    sign, variables, sorts = edge.sign, edge.variables, edge.sorts
    lines = [f"phon: {' '.join(e.phon for e in edge.entries)}",
             f"cat|head: {PARTS_OF_SPEECH[sign.entries[0].pos][0]}"]
    for label, slots in (("subj", edge.subj), ("comps", edge.comps)):
        rendered = ", ".join(f"np[{_filler_str(s, variables, sorts)}]"
                             for s in slots)
        lines.append(f"{label}: < {rendered} >" if rendered else f"{label}: < >")
    if sign.nucleus is not None:
        lines.append(f"cont|nuc: {_psoa_str(sign.nucleus, variables, sorts)}")
    if sign.index is not None:
        lines.append(f"cont|index: {_filler_str(sign.index, variables, sorts)}")
    for label, refs in (("cont|restr", edge.restr), ("cont|quants", edge.quants),
                        ("cx|bg", distinct_bg(edge.bg, variables))):
        inner = ", ".join(_psoa_str(r, variables, sorts) for r in refs)
        lines.append(f"{label}: {{ {inner} }}" if inner else f"{label}: {{ }}")
    return "\n".join(lines)
