"""Selectional-restriction parsing toolkit.

A small unification grammar stack: a semantic sort hierarchy, typed feature
structures, a lexicon compiled into signs, a chart parser, and a post-parse
constraint solver.  The same lexical entries parse under two methods:

* ``bg``    -- restrictions ride along as background constraints and a
               constraint solver filters the finished readings;
* ``index`` -- restrictions are sorts on the referential indices, so typed
               unification prunes violating analyses during parsing.
"""

from pathlib import Path

from . import data
from .grammar import (GrammarError, LexicalEntry, PsoaRef, Sign,
                      apply_qfpsoa_declarations, compile_entry,
                      load_declarations, load_lexicon, render_sign, tokenize)
from .parser import (Chart, Edge, MethodReport, UnknownTokenError, combine,
                     lexical_edges, run_method)
from .selres import (ConstraintAtom, Satisfiable, Violation, check_reading,
                     extract_constraints, merge_pair, solve)
from .sorts import (AmbiguousMeetError, HierarchyError, SortHierarchy,
                    load_hierarchy)
from .tfs import (FeatureStructure, UnificationFailure, isomorphic,
                  subsumes_fs, unify)

__version__ = "0.1.0"


def read_resource(path):
    """A resource or corpus file's text; a file that is not UTF-8 is named."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GrammarError(f"{path}: {exc}") from None


def _load_file(path, loader, *args):
    """`loader` run on a resource file's text; a load error names the file."""
    text = read_resource(path)
    try:
        return loader(text, *args)
    except (GrammarError, HierarchyError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def load_resources(hierarchy=data.HIERARCHY, decls=data.DECLS,
                   lexicon=data.LEXICON):
    """(hierarchy, lexicon, decls) read from the three resource files.

    Each argument is a file path; the defaults are the bundled files.
    """
    sorts = _load_file(hierarchy, load_hierarchy)
    relations = _load_file(decls, load_declarations, sorts)
    words = _load_file(lexicon, load_lexicon, sorts, relations)
    return sorts, words, relations
