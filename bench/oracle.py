"""Expected reading counts, computed without the selparse package.

The oracle reads the hierarchy, declaration and lexicon files with its own
small parsers and its own ancestor closure, so a fault in selparse's loaders,
lattice, unifier, chart or solver cannot also hide in the expected values.

Two kinds of sentence are covered:

* simple clauses (one verb, one noun phrase per role, no attachment
  ambiguity): pre_filter is the product of the nouns' sense counts, and
  post_filter counts the sense tuples in which every noun's sort shares a
  lower bound with its role's restriction;
* the two ambiguity ladders, by closed forms in the Catalan numbers C(n):
  ``list the employees (of the departments)^k that retire`` has
  pre_filter C(k+1) and post_filter C(k); ``list the printer (of the
  printer)^k that retire`` has pre_filter C(k+1)*2^(k+1) and post_filter
  C(k+1)*2^k.
"""

import re
from itertools import product
from math import comb

_DECL = re.compile(r"\s*([a-z_][a-z0-9_]*)\s*\((.*)\)\s*$")

ATTACHMENT = ("employees", "departments")
SENSE = ("printer", "printer")


def _lines(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def read_parents(text):
    """Sort -> list of parents, from the `sort: parent, ...` format."""
    parents = {}
    for line in _lines(text):
        name, _, rest = line.partition(":")
        parents[name.strip().lower()] = [
            p.strip().lower() for p in rest.split(",") if p.strip()]
    return parents


class Grammar:
    """What the oracle needs from the three resource files."""

    def __init__(self, hierarchy_text, decls_text, lexicon_text):
        self.parents = read_parents(hierarchy_text)
        self.up = {}
        for sort in self.parents:
            self._ancestors(sort)
        self.roles = {}
        for line in _lines(decls_text.lower()):
            m = _DECL.match(line)
            self.roles[m.group(1)] = [
                tuple(x.strip() for x in part.split(":"))
                for part in m.group(2).split(",")]
        # word -> list of (pos, core, {extra key: value}, [flags])
        self.entries = {}
        for line in _lines(lexicon_text):
            fields = [f.strip() for f in line.split("|")] + ["", ""]
            extras, flags = {}, []
            for tok in fields[3].split(","):
                key, sep, value = tok.strip().partition("=")
                if sep:
                    extras[key.strip().lower()] = value.strip().lower()
                elif key:
                    flags.append(key.lower())
            self.entries.setdefault(fields[0].lower(), []).append(
                (fields[1].lower(), fields[2].lower(), extras, flags))

    def _ancestors(self, sort):
        # iterative, so a deep generated hierarchy cannot hit the recursion limit
        stack = [sort]
        while stack:
            top = stack[-1]
            todo = [p for p in self.parents[top] if p not in self.up]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            anc = {top}
            for p in self.parents[top]:
                anc |= self.up[p]
            self.up[top] = anc
        return self.up[sort]

    def consistent(self, a, b):
        """True iff some sort lies below both a and b."""
        return any(a in anc and b in anc for anc in self.up.values())

    def pos(self, word):
        return {e[0] for e in self.entries.get(word, ())}

    def noun_sorts(self, word):
        return [core for pos, core, _, _ in self.entries[word]
                if pos in ("noun", "proper-noun")]

    def role_restrictions(self, verb):
        """Effective (role, sort) list of a verb, with entry-local overrides."""
        (_pos, rel, extras, _flags), = [e for e in self.entries[verb]
                                        if e[0] == "verb"]
        return [extras.get(role, sort) for role, sort in self.roles[rel]]


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def ladder_counts(family, k):
    """(pre_filter, post_filter) of ladder rung k by its closed form."""
    if family == ATTACHMENT:
        return catalan(k + 1), catalan(k)
    if family == SENSE:
        return catalan(k + 1) * 2 ** (k + 1), catalan(k + 1) * 2 ** k
    raise ValueError(f"unknown ladder {family!r}")


def ladder_rung(tokens, grammar):
    """(family, k) when tokens spell a ladder rung, else None.

    A rung is `list NP (of NP)^k that retire`, where each NP is a
    determiner, any number of adjectives and a noun.
    """
    if tokens[:1] != ["list"] or tokens[-2:] != ["that", "retire"]:
        return None
    nouns = []
    i = 1
    body = tokens[:-2]
    while i < len(body):
        if nouns:
            if body[i] != "of":
                return None
            i += 1
        if i >= len(body) or "determiner" not in grammar.pos(body[i]):
            return None
        i += 1
        while i < len(body) and "adjective" in grammar.pos(body[i]):
            i += 1
        if i >= len(body) or "noun" not in grammar.pos(body[i]):
            return None
        nouns.append(body[i])
        i += 1
    if not nouns:
        return None
    for fam in (ATTACHMENT, SENSE):
        if nouns[0] == fam[0] and all(n == fam[1] for n in nouns[1:]):
            return fam, len(nouns) - 1
    return None


def clause_counts(tokens, grammar):
    """(pre_filter, post_filter) of a simple clause, else None.

    A simple clause has exactly one verb and as many nouns as the verb has
    roles; the nouns fill the roles in surface order (subject before the
    verb, object after it).
    """
    verbs = [t for t in tokens if "verb" in grammar.pos(t)]
    nouns = [t for t in tokens if grammar.pos(t) & {"noun", "proper-noun"}]
    if len(verbs) != 1 or any(t in ("of", "that") for t in tokens):
        return None
    restrictions = grammar.role_restrictions(verbs[0])
    if len(nouns) != len(restrictions):
        return None
    senses = [grammar.noun_sorts(n) for n in nouns]
    pre = 1
    for s in senses:
        pre *= len(s)
    post = sum(
        all(grammar.consistent(s, r) for s, r in zip(combo, restrictions))
        for combo in product(*senses))
    return pre, post


def expected_counts(tokens, grammar):
    """(pre_filter, post_filter) for a covered sentence, else None."""
    rung = ladder_rung(tokens, grammar)
    if rung is not None:
        return ladder_counts(*rung)
    return clause_counts(tokens, grammar)


def read_corpus(text):
    """(tokens, accept, readings or None) per annotated corpus line."""
    rows = []
    for line in _lines(text):
        sentence, _, rest = line.partition("=>")
        parts = [p.strip() for p in rest.split(",")]
        readings = None
        for part in parts[1:]:
            key, _, value = part.partition("=")
            if key.strip() == "readings":
                readings = int(value)
        rows.append((sentence.lower().split(), parts[0] == "accept", readings))
    return rows


def self_check(grammar, corpus_text):
    """Compare the oracle with a hand-annotated corpus.

    Returns (covered, mismatches): the number of corpus sentences the oracle
    covers, and a message per sentence whose annotation it contradicts.
    """
    covered, mismatches = 0, []
    for tokens, accept, readings in read_corpus(corpus_text):
        got = expected_counts(tokens, grammar)
        if got is None:
            continue
        covered += 1
        _pre, post = got
        if (post > 0) != accept or (readings is not None and post != readings):
            mismatches.append(f"{' '.join(tokens)}: oracle post_filter={post}")
    return covered, mismatches
