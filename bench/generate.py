"""Seeded inputs for the benchmark workloads.

Every workload is a set of resource files (hierarchy, declarations,
lexicon), a list of sentences, and a corpus file that annotates each
sentence with the oracle's expected outcome.  The same seed always gives
the same inputs.  To write them out for inspection or for re-checking a
claim on a fresh seed:

    python3 bench/generate.py --seed 7 --out some/dir
"""

import argparse
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

DATA = Path(__file__).resolve().parent.parent / "src" / "selparse" / "data"

WORKLOADS = ("corpus-batch", "ladders", "big-hierarchy")

# Full and quick (--self-check) sizes.  The quick sizes keep every check
# and every layer but finish in seconds.
CORPUS_SIZE = {False: 400, True: 24}
ATTACHMENT_KS = {False: range(1, 7), True: range(1, 4)}
SENSE_KS = {False: range(1, 4), True: range(1, 3)}
GENERATED_SORTS = {False: 1000, True: 60}
BIG_ATTACHMENT_KS = {False: range(1, 6), True: range(1, 4)}

# The extended hierarchy does not vary with the workload seed.  Its parse
# cost hangs on where a few sorts fall in the iteration order of one set,
# and index_s moved 2.5-fold between hierarchies generated from different
# seeds, which would hide any change smaller than that.
HIERARCHY_SEED = "big-hierarchy"

# Clause templates per ten corpus sentences.
TEMPLATE_CYCLE = ("trans",) * 4 + ("intrans",) * 2 + ("imp",) * 2 + ("rung",) * 2


@dataclass
class Workload:
    name: str
    hierarchy_text: str
    decls_text: str
    lexicon_text: str
    sentences: list          # token lists
    expected: list           # (pre_filter, post_filter) per sentence
    sort_count: int          # sorts declared in hierarchy_text

    def corpus_text(self):
        lines = []
        for tokens, (_pre, post) in zip(self.sentences, self.expected):
            verdict = f"accept, readings={post}" if post else "reject"
            lines.append(f"{' '.join(tokens)} => {verdict}")
        return "\n".join(lines) + "\n"

    def write(self, out_dir):
        """Write the four input files; return their paths by role."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {role: out_dir / f"{self.name}.{ext}" for role, ext in
                 (("hierarchy", "sorts"), ("decls", "psoa"),
                  ("lexicon", "lex"), ("corpus", "corpus"))}
        paths["hierarchy"].write_text(self.hierarchy_text)
        paths["decls"].write_text(self.decls_text)
        paths["lexicon"].write_text(self.lexicon_text)
        paths["corpus"].write_text(self.corpus_text())
        return paths


class Deck:
    """Draws without replacement and reshuffles when empty.

    Stratified sampling: every option is drawn equally often, so totals
    such as chart edges hardly move between seeds, while combinations do.
    """

    def __init__(self, rng, options):
        self.rng = rng
        self.options = list(options)
        self.pool = []

    def draw(self):
        if not self.pool:
            self.pool = list(self.options)
            self.rng.shuffle(self.pool)
        return self.pool.pop()


def _words(grammar, pos, flag=None):
    return sorted(w for w, entries in grammar.entries.items()
                  if any(e[0] == pos and (flag is None or flag in e[3])
                         for e in entries))


def ladder(family, k, dets):
    """Tokens of ladder rung k; `dets` yields one determiner per noun phrase."""
    head, tail = family
    tokens = ["list", next(dets), head]
    for _ in range(k):
        tokens += ["of", next(dets), tail]
    return tokens + ["that", "retire"]


def corpus_sentences(rng, grammar, size):
    """Short transitive, intransitive and imperative clauses plus ladder rungs.

    Noun phrases take 'a' or 'the', zero to two stacked adjectives, and any
    noun, the homograph 'printer' included; subjects may be proper nouns.
    Rungs are attachment-ladder rungs with k <= 2.
    """
    proper = _words(grammar, "proper-noun")
    nouns = _words(grammar, "noun")
    adjectives = _words(grammar, "adjective")
    verbs = {v: Deck(rng, _words(grammar, "verb", v))
             for v in ("trans", "intrans", "imp")}
    dets = Deck(rng, _words(grammar, "determiner"))
    adj_counts = Deck(rng, (0, 1, 2))
    subjects = Deck(rng, proper + nouns)
    objects = Deck(rng, nouns)
    rung_ks = Deck(rng, (0, 1, 2))

    def common_np(noun):
        return ([dets.draw()]
                + [rng.choice(adjectives) for _ in range(adj_counts.draw())]
                + [noun])

    def subject():
        word = subjects.draw()
        return [word] if word in proper else common_np(word)

    def dealt_dets():
        while True:
            yield dets.draw()

    sentences = []
    for i in range(size):
        template = TEMPLATE_CYCLE[i % len(TEMPLATE_CYCLE)]
        if template == "trans":
            tokens = subject() + [verbs["trans"].draw()] + common_np(objects.draw())
        elif template == "intrans":
            tokens = subject() + [verbs["intrans"].draw()]
        elif template == "imp":
            tokens = [verbs["imp"].draw()] + common_np(objects.draw())
        else:
            tokens = ladder(oracle.ATTACHMENT, rung_ks.draw(), dealt_dets())
        sentences.append(tokens)
    rng.shuffle(sentences)
    return sentences


def extended_hierarchy(rng, base_text, count):
    """The base hierarchy plus `count` generated sorts with one parent each.

    Generated sorts are dealt round-robin to the base sorts, and each grows
    a random tree under its base sort, so every base sort gets the same
    number of new descendants on every seed.  Single-parent additions keep
    a BCPO a BCPO and leave the meet of any two base sorts unchanged.
    """
    base = list(oracle.read_parents(base_text))
    trees = {sort: [sort] for sort in base}
    lines = [base_text.rstrip("\n"), f"# {count} generated sorts"]
    for i in range(count):
        tree = trees[base[i % len(base)]]
        name = f"gen{i:05d}"
        lines.append(f"{name}: {rng.choice(tree)}")
        tree.append(name)
    return "\n".join(lines) + "\n"


def bundled_texts():
    """The bundled hierarchy, declarations and lexicon, as text."""
    return tuple((DATA / f).read_text()
                 for f in ("figure1.sorts", "figure2.psoa", "corpus.lex"))


def build(name, seed, quick=False):
    """The workload's resources and sentences for one seed."""
    rng = random.Random(f"{name}:{seed}")
    hierarchy_text, decls_text, lexicon_text = bundled_texts()
    grammar = oracle.Grammar(hierarchy_text, decls_text, lexicon_text)

    def dets():
        while True:
            yield rng.choice(("a", "the"))

    if name == "corpus-batch":
        sentences = corpus_sentences(rng, grammar, CORPUS_SIZE[quick])
    elif name == "ladders":
        sentences = ([ladder(oracle.ATTACHMENT, k, dets())
                      for k in ATTACHMENT_KS[quick]]
                     + [ladder(oracle.SENSE, k, dets()) for k in SENSE_KS[quick]])
    elif name == "big-hierarchy":
        # One hierarchy for every seed: see HIERARCHY_SEED.
        hierarchy_text = extended_hierarchy(random.Random(HIERARCHY_SEED),
                                            hierarchy_text,
                                            GENERATED_SORTS[quick])
        grammar = oracle.Grammar(hierarchy_text, decls_text, lexicon_text)
        sentences = [ladder(oracle.ATTACHMENT, k, dets())
                     for k in BIG_ATTACHMENT_KS[quick]]
    else:
        raise ValueError(f"unknown workload {name!r}")
    expected = [oracle.expected_counts(tokens, grammar) for tokens in sentences]
    uncovered = [" ".join(t) for t, e in zip(sentences, expected) if e is None]
    if uncovered:
        raise ValueError(f"oracle does not cover: {uncovered[0]}")
    return Workload(name, hierarchy_text, decls_text, lexicon_text, sentences,
                    expected, len(grammar.parents))


def main():
    ap = argparse.ArgumentParser(
        description="Write every workload's input files for one seed.")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write into")
    args = ap.parse_args()
    for name in WORKLOADS:
        for role, path in build(name, args.seed).write(args.out).items():
            print(f"{name} {role}: {path}")


if __name__ == "__main__":
    main()
