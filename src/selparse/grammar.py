"""Lexicon and relation declarations, compiled into HPSG-style signs.

Every lexical entry compiles under either of two methods.  Under "bg" the
sortal restrictions become single-role relation instances carried in the
sign's background set (verb restrictions) or restriction set (common nouns),
and all referential indices stay at the hierarchy's root sort.  Under
"index" the restriction sorts are written onto the indices themselves, so
ordinary typed unification enforces them during parsing.
"""

import re
from dataclasses import dataclass, replace

from .sorts import lines
from .tfs import FeatureStructure, unify_map

__all__ = [
    "GrammarError",
    "LexicalEntry",
    "PsoaRef",
    "Sign",
    "apply_qfpsoa_declarations",
    "compile_entry",
    "load_declarations",
    "load_lexicon",
    "render_sign",
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

LEXICON_FORMAT = """\
One entry per line, fields separated by '|':

    word | pos | nucleus-or-index-sort | extras

pos is one of: verb, noun, proper-noun, determiner, preposition,
relative-pronoun, adjective.  The third field names the verb's relation
(qfpsoa) or the noun's index sort and is empty for the remaining parts of
speech.  Extras are comma-separated:

    trans | intrans | imp     verb valence (required for verbs)
    <role>=<sort>             verb-local narrowing of a declared restriction
    name=<Atom>               proper-noun naming atom (default: the word)
    sense=<id>                explicit sense id for homograph entries

A word is a single token (see tokenize) and may have several entries (one
per sense).  '#' starts a comment.
"""

DECLARATIONS_FORMAT = """\
One relation declaration per line:

    name(role: sort, role: sort, ...)

Role restrictions must be declared sorts.  '#' starts a comment.
"""

_DECL_RE = re.compile(r"([a-z_][a-z0-9_]*)\s*\(([^()]*)\)$")

_PUNCTUATION = ".,!?;:"


class GrammarError(ValueError):
    """A lexicon or declaration document is malformed or inconsistent."""


@dataclass(frozen=True)
class LexicalEntry:
    phon: str
    pos: str
    sense_id: str
    nucleus: str | None = None      # verbs
    index_sort: str | None = None   # nouns and proper nouns
    valence: str | None = None      # verbs: trans / intrans / imp
    name_atom: str | None = None    # proper nouns
    overrides: tuple = ()           # ((role, sort), ...)


@dataclass
class PsoaRef:
    """One relation instance carried by a sign, with its contributing word.

    The node's sort is the relation name and its features are the role
    fillers, which live inside the same graph as the owning sign.
    """

    node: FeatureStructure
    source: str


@dataclass
class Sign:
    """A compiled sign: its head sort and content nodes plus set-valued parts.

    `index` (nouns) or `nucleus` (verbs) is the content; subj/comps are the
    pending valence slots, each a nucleus role filler that a dependent's
    index unifies with; restr, quants and bg are relation-instance sets.
    All of them reference nodes of one shared graph, so `unified` moves
    them together when the sign takes part in a unification.
    """

    phon: tuple
    head: str
    index: FeatureStructure | None = None
    nucleus: FeatureStructure | None = None
    subj: tuple = ()
    comps: tuple = ()
    restr: tuple = ()
    quants: tuple = ()
    bg: tuple = ()

    def unified(self, pairs, hierarchy):
        """This sign with each (a, b) node pair of `pairs` unified.

        The pairs must unify.  Every part is replaced by its image in the
        fresh graph; background instances made identical (same relation,
        same role fillers) are kept once, the first of them.
        """
        instances = (*self.restr, *self.quants, *self.bg)
        roots = [node for node in (self.index, self.nucleus, *self.subj,
                                   *self.comps, *(r.node for r in instances))
                 if node is not None]
        mapping = unify_map(pairs, roots, hierarchy)

        def refs(parts):
            return tuple(PsoaRef(mapping[r.node], r.source) for r in parts)

        bg = {}
        for ref in refs(self.bg):
            key = (ref.node.sort, tuple(sorted(
                (feat, id(filler)) for feat, filler in ref.node.feats.items())))
            bg.setdefault(key, ref)
        return replace(self, index=mapping.get(self.index),
                       nucleus=mapping.get(self.nucleus),
                       subj=tuple(mapping[s] for s in self.subj),
                       comps=tuple(mapping[s] for s in self.comps),
                       restr=refs(self.restr), quants=refs(self.quants),
                       bg=tuple(bg.values()))

    def index_numbering(self, hierarchy):
        """Stable small-integer names for this sign's referential indices.

        Nucleus role fillers come first (in declaration order), then fillers
        of quantifier, restriction and background instances, numbering each
        hierarchy-sorted node once in order of first appearance.
        """
        numbers = {}

        def note(node):
            if node is not None and node not in numbers \
                    and hierarchy.declared(node.sort):
                numbers[node] = len(numbers) + 1

        note(self.index)
        nuc = self.nucleus
        if nuc is not None:
            for filler in nuc.feats.values():
                note(filler)
        for ref in (*self.quants, *self.restr, *self.bg):
            for filler in ref.node.feats.values():
                note(filler)
        return numbers


def tokenize(text):
    """Lowercased whitespace tokens with edge punctuation stripped."""
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(_PUNCTUATION)
        if token:
            tokens.append(token)
    return tokens


def load_declarations(text, hierarchy):
    """Parse relation declarations (see DECLARATIONS_FORMAT): name -> roles."""
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
    """Parse the lexicon format (see LEXICON_FORMAT) into word -> entry tuple.

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
    return {word: tuple(entries) for word, entries in lexicon.items()}


def apply_qfpsoa_declarations(entry, decls, hierarchy):
    """Effective (role, restriction) pairs for a verb entry.

    Restrictions come from the relation declaration so that verbs sharing a
    relation share them; an entry-local override must be subsumed by the
    declared sort.
    """
    roles = decls.get(entry.nucleus)
    if roles is None:
        raise GrammarError(f"{entry.phon!r}: unknown qfpsoa {entry.nucleus!r}")
    overrides = dict(entry.overrides)
    effective = []
    for role, sort in roles:
        if role in overrides:
            narrowed = overrides.pop(role)
            if not hierarchy.declared(narrowed):
                raise GrammarError(
                    f"{entry.phon!r}: unknown sort {narrowed!r} for role {role!r}")
            if not hierarchy.subsumes(sort, narrowed):
                raise GrammarError(
                    f"{entry.phon!r}: override {role}={narrowed} is not subsumed "
                    f"by the declared restriction {sort!r}")
            sort = narrowed
        effective.append((role, sort))
    if overrides:
        raise GrammarError(
            f"{entry.phon!r}: unknown role(s) for {entry.nucleus!r}: "
            + ", ".join(sorted(overrides)))
    return tuple(effective)


def compile_entry(entry, decls, method, hierarchy):
    """Compile one lexical entry into a fresh Sign under the given method.

    Call once per token occurrence: argument positions must not share index
    nodes across occurrences of the same word.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    top = hierarchy.root
    word = entry.phon
    head = PARTS_OF_SPEECH[entry.pos][0]

    if entry.pos == "verb":
        effective = apply_qfpsoa_declarations(entry, decls, hierarchy)
        nsubj, ncomps = VALENCES[entry.valence]
        indices = [FeatureStructure(sort if method == "index" else top)
                   for _role, sort in effective]
        nuc = FeatureStructure(
            entry.nucleus,
            {role: idx for (role, _sort), idx in zip(effective, indices)})
        bg = []
        if method == "bg":
            for (_role, sort), idx in zip(effective, indices):
                if sort != top:
                    bg.append(PsoaRef(
                        FeatureStructure(sort, {"inst": idx}), word))
        return Sign(phon=(word,), head=head, nucleus=nuc,
                    subj=tuple(indices[:nsubj]), comps=tuple(indices[nsubj:]),
                    bg=tuple(bg))

    if entry.pos in ("noun", "proper-noun"):
        idx = FeatureStructure(entry.index_sort if method == "index" else top)
        restr = ()
        bg = []
        if entry.pos == "proper-noun":
            bg.append(PsoaRef(
                FeatureStructure("naming", {
                    "brer": idx,
                    "name": FeatureStructure(entry.name_atom),
                }), word))
            if method == "bg":
                bg.append(PsoaRef(
                    FeatureStructure(entry.index_sort, {"inst": idx}), word))
        elif method == "bg":
            restr = (PsoaRef(
                FeatureStructure(entry.index_sort, {"inst": idx}), word),)
        return Sign(phon=(word,), head=head, index=idx, restr=restr,
                    bg=tuple(bg))

    return Sign(phon=(word,), head=head)


def _filler_str(node, numbers):
    if node in numbers:
        return f"#{numbers[node]}:{node.sort}"
    return node.sort


def _psoa_str(node, numbers):
    inner = ", ".join(f"{role}: {_filler_str(filler, numbers)}"
                      for role, filler in node.feats.items())
    return f"{node.sort}({inner})"


def render_sign(sign, hierarchy):
    """Compact AVM-style rendering of a sign, with #n tags on shared indices."""
    numbers = sign.index_numbering(hierarchy)
    lines = [f"phon: {' '.join(sign.phon)}",
             f"cat|head: {sign.head}"]
    for label, slots in (("subj", sign.subj), ("comps", sign.comps)):
        rendered = ", ".join(f"np[{_filler_str(s, numbers)}]" for s in slots)
        lines.append(f"{label}: < {rendered} >" if rendered else f"{label}: < >")
    if sign.nucleus is not None:
        lines.append(f"cont|nuc: {_psoa_str(sign.nucleus, numbers)}")
    if sign.index is not None:
        lines.append(f"cont|index: {_filler_str(sign.index, numbers)}")
    for label, refs in (("cont|restr", sign.restr), ("cont|quants", sign.quants),
                        ("cx|bg", sign.bg)):
        inner = ", ".join(_psoa_str(r.node, numbers) for r in refs)
        lines.append(f"{label}: {{ {inner} }}" if inner else f"{label}: {{ }}")
    return "\n".join(lines)
