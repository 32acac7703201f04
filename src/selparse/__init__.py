"""Selectional-restriction parsing toolkit.

A small unification grammar stack: a semantic sort hierarchy, typed feature
structures, a lexicon compiled into signs, a chart parser, and a post-parse
constraint solver.  The same lexical entries parse under two methods:

* ``bg``    -- restrictions ride along as background constraints and a
               constraint solver filters the finished readings;
* ``index`` -- restrictions are sorts on the referential indices, so typed
               unification prunes violating analyses during parsing.
"""

from . import data
from .grammar import (GrammarError, LexicalEntry, PsoaRef, QfpsoaDecl, Sign,
                      apply_qfpsoa_declarations, compile_entry,
                      load_declarations, load_lexicon, render_sign)
from .parser import (Chart, Edge, MethodReport, UnknownTokenError, combine,
                     count_parses, lexical_edges, parse, run_method, tokenize)
from .selres import (ConstraintAtom, Satisfiable, Violation, check_reading,
                     extract_constraints, merge_pair, solve)
from .sorts import (AmbiguousMeetError, HierarchyError, SortHierarchy,
                    load_hierarchy)
from .tfs import (CyclicStructureError, FeatureStructure, UnificationFailure,
                  check_acyclic, isomorphic, render, subsumes_fs, unify)

__version__ = "0.1.0"


def load_default_resources():
    """The bundled hierarchy, lexicon and declarations, ready to parse with."""
    hierarchy = load_hierarchy(data.HIERARCHY.read_text())
    decls = load_declarations(data.DECLS.read_text(), hierarchy)
    lexicon = load_lexicon(data.LEXICON.read_text(), hierarchy, decls)
    return hierarchy, lexicon, decls
