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
from .grammar import (GrammarError, LexicalEntry, PsoaRef, QfpsoaDecl, Sign,
                      apply_qfpsoa_declarations, compile_entry,
                      load_declarations, load_lexicon, render_sign)
from .parser import (Chart, Edge, MethodReport, UnknownTokenError, combine,
                     lexical_edges, run_method, tokenize)
from .selres import (ConstraintAtom, Satisfiable, Violation, check_reading,
                     extract_constraints, merge_pair, solve)
from .sorts import (AmbiguousMeetError, HierarchyError, SortHierarchy,
                    load_hierarchy)
from .tfs import (CyclicStructureError, FeatureStructure, UnificationFailure,
                  check_acyclic, isomorphic, render, subsumes_fs, unify)

__version__ = "0.1.0"


def read_resource(path):
    """A resource or corpus file's text; a file that is not UTF-8 is named."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GrammarError(f"{path}: {exc}") from None


def load_resources(hierarchy=data.HIERARCHY, decls=data.DECLS,
                   lexicon=data.LEXICON):
    """(hierarchy, lexicon, decls) read from the three resource files.

    Each argument is a file path; the defaults are the bundled files.
    """
    sorts = load_hierarchy(read_resource(hierarchy))
    relations = load_declarations(read_resource(decls), sorts)
    words = load_lexicon(read_resource(lexicon), sorts, relations)
    return sorts, words, relations
