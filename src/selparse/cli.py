"""Command-line front end: parse sentences, run corpora, validate resources.

Exit codes: 0 = ran to completion (a rejected sentence is a result, not an
error), 1 = input or configuration error, 2 = batch expectation mismatch.
"""

import argparse
import json
import sys
import textwrap
from . import _load_file, data, load_resources, read_resource
from .grammar import GrammarError, compile_entry, load_declarations, \
    load_lexicon, render_sign, tokenize
from .parser import UnknownTokenError, run_method
from .sorts import AmbiguousMeetError, HierarchyError, lines, load_hierarchy


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # one line and exit 1 like any input error; exit 2 is a batch mismatch
        self.exit(1, f"error: {message}\n")


def _add_resources(sub):
    sub.add_argument("--hierarchy", default=str(data.HIERARCHY), metavar="PATH")
    sub.add_argument("--lexicon", default=str(data.LEXICON), metavar="PATH")
    sub.add_argument("--decls", default=str(data.DECLS), metavar="PATH")


def _add_analysis(sub):
    _add_resources(sub)
    sub.add_argument("--method", choices=("bg", "index", "both"), default="both")
    sub.add_argument("--json", dest="json_lines", action="store_true",
                     help="emit one JSON record per sentence")


def _arg_parser():
    top = _ArgumentParser(
        prog="selparse",
        description="Parse sentences under selectional restrictions, either "
                    "checked after parsing (bg) or enforced during parsing "
                    "via index sorts (index).")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse one sentence")
    _add_analysis(p)
    p.add_argument("--explain", action="store_true",
                   help="render the sign of each surviving reading")
    p.add_argument("sentence")
    p.set_defaults(func=cmd_parse)

    b = sub.add_parser("batch", help="run a corpus of annotated sentences")
    _add_analysis(b)
    b.add_argument("corpus", nargs="?", default=str(data.CORPUS))
    b.set_defaults(func=cmd_batch)

    v = sub.add_parser("validate",
                       help="check the hierarchy, declarations and lexicon")
    _add_resources(v)
    v.set_defaults(func=cmd_validate)
    return top


def _senses(reading, lexicon):
    out = []
    for leaf in reading.leaves():
        word = leaf.entry.phon
        if len(lexicon[word]) > 1:
            out.append(f"{word}={leaf.entry.sense_id}")
    return out


def _reading_json(reading, assignment, lexicon):
    return {
        "derivation": reading.derivation_string,
        "senses": _senses(reading, lexicon),
        "assignment": {str(var): sort
                       for var, sort in sorted(assignment.items())},
    }


def _violation_json(reading, violation, lexicon):
    return {
        "derivation": reading.derivation_string,
        "senses": _senses(reading, lexicon),
        "message": violation.narrative,
    }


def _record(sentence, method, reports, agree, lexicon):
    # under "both": survivors from index, violations from bg (reports[0])
    first, last = reports[0], reports[-1]
    record = {
        "sentence": sentence,
        "method": method,
        "pre_filter": first.pre_filter,
        "post_filter": last.post_filter,
        "readings": [_reading_json(r, a, lexicon) for r, a in last.surviving],
        "violations": [_violation_json(r, v, lexicon)
                       for r, v in first.violations],
    }
    if agree is not None:
        record["agree"] = agree
    return record


def _print_report(sentence, reports, agree, hierarchy, lexicon, explain):
    print(f"sentence: {sentence}")
    for rep in reports:
        print(f"method={rep.method} pre_filter={rep.pre_filter} "
              f"post_filter={rep.post_filter}")
        for reading, assignment in rep.surviving:
            print(f"  reading: {reading.derivation_string}")
            senses = _senses(reading, lexicon)
            if senses:
                print("    senses: " + " ".join(senses))
            if assignment:
                print("    sorts: " + " ".join(
                    f"{var}={sort}" for var, sort in sorted(assignment.items())))
            if explain:
                print(textwrap.indent(render_sign(reading.sign, hierarchy),
                                      "    "))
        for reading, violation in rep.violations:
            print(f"  {violation.narrative}")
            print(f"    derivation: {reading.derivation_string}")
    if agree is not None:
        print("agreement: " + ("yes" if agree else "NO"))


def cmd_parse(args):
    hierarchy, lexicon, decls = load_resources(args.hierarchy, args.decls,
                                               args.lexicon)
    tokens = tokenize(args.sentence)
    if not tokens:
        raise GrammarError("empty sentence")
    reports, agree = run_method(tokens, lexicon, decls, hierarchy, args.method)
    sentence = " ".join(tokens)
    if args.json_lines:
        print(json.dumps(_record(sentence, args.method, reports, agree, lexicon)))
    else:
        _print_report(sentence, reports, agree, hierarchy, lexicon, args.explain)
    return 0


def _load_corpus(text):
    rows = []
    for lineno, line in lines(text):
        sentence, sep, rest = line.partition("=>")
        sentence = sentence.strip()
        if not sep or not sentence:
            raise GrammarError(f"corpus line {lineno}: expected '<sentence> => "
                               "accept|reject[, readings=<n>]'")
        parts = [p.strip() for p in rest.split(",")]
        verdict = parts[0].lower()
        if verdict not in ("accept", "reject"):
            raise GrammarError(
                f"corpus line {lineno}: expected accept or reject, "
                f"got {parts[0]!r}")
        expected_readings = None
        for annotation in parts[1:]:
            key, sep, value = annotation.partition("=")
            if key.strip() != "readings" or not sep \
                    or not value.strip().isdecimal():
                raise GrammarError(
                    f"corpus line {lineno}: bad annotation {annotation!r}")
            if expected_readings is not None:
                raise GrammarError(
                    f"corpus line {lineno}: duplicate annotation 'readings'")
            if verdict == "reject":
                raise GrammarError(
                    f"corpus line {lineno}: a reject line takes no readings")
            expected_readings = int(value)
            if expected_readings < 1:
                raise GrammarError(
                    f"corpus line {lineno}: readings must be at least 1")
        tokens = tokenize(sentence)
        if not tokens:
            raise GrammarError(f"corpus line {lineno}: empty sentence")
        rows.append((sentence, tokens, verdict == "accept", expected_readings))
    return rows


def cmd_batch(args):
    hierarchy, lexicon, decls = load_resources(args.hierarchy, args.decls,
                                               args.lexicon)
    rows = _load_corpus(read_resource(args.corpus))
    failures = 0
    for sentence, tokens, expect_accept, expected_readings in rows:
        reports, agree = run_method(tokens, lexicon, decls, hierarchy,
                                    args.method)
        problems = []
        for rep in reports:
            accepted = rep.post_filter > 0
            if accepted != expect_accept:
                problems.append(
                    f"{rep.method}: {'accepted' if accepted else 'rejected'}")
            elif expected_readings is not None \
                    and rep.post_filter != expected_readings:
                problems.append(f"{rep.method}: readings={rep.post_filter}")
        if agree is False:
            problems.append("methods disagree")
        status = "PASS" if not problems else "FAIL"
        if problems:
            failures += 1
        if args.json_lines:
            record = _record(sentence, args.method, reports, agree, lexicon)
            record["expected"] = "accept" if expect_accept else "reject"
            record["status"] = status
            print(json.dumps(record))
        else:
            got = " ".join(f"{rep.method}={rep.pre_filter}/{rep.post_filter}"
                           for rep in reports)
            expected = "accept" if expect_accept else "reject"
            if expected_readings is not None:
                expected += f"({expected_readings})"
            line = f"{status}  {sentence}  expected={expected} got {got}"
            if problems:
                line += "  [" + "; ".join(problems) + "]"
            print(line)
    if not args.json_lines:
        print(f"{len(rows) - failures}/{len(rows)} sentences as expected")
    return 2 if failures else 0


def cmd_validate(args):
    code = 0
    try:
        hierarchy = _load_file(args.hierarchy, load_hierarchy)
    except (HierarchyError, GrammarError, OSError) as exc:
        print(f"hierarchy: ERROR {exc}")
        return 1
    print(f"hierarchy: {len(hierarchy)} sorts, root {hierarchy.root!r}, acyclic")
    violations = hierarchy.bcpo_violations()
    if violations:
        for a, b, mlbs in violations:
            print(f"bcpo: violation ({a}, {b}) share "
                  "{" + ", ".join(sorted(mlbs)) + "}")
        code = 1
    else:
        print("bcpo: ok")
    try:
        decls = _load_file(args.decls, load_declarations, hierarchy)
        print(f"declarations: {len(decls)} qfpsoas")
        lexicon = _load_file(args.lexicon, load_lexicon, hierarchy, decls)
        entries = sum(len(senses) for senses in lexicon.values())
        print(f"lexicon: {entries} entries for {len(lexicon)} words")
        for senses in lexicon.values():
            for entry in senses:
                for method in ("bg", "index"):
                    compile_entry(entry, decls, method, hierarchy)
        print("compilation: ok")
    except (GrammarError, OSError) as exc:
        print(f"resources: ERROR {exc}")
        return 1
    return code


def main(argv=None):
    args = _arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HierarchyError, AmbiguousMeetError, GrammarError,
            UnknownTokenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
