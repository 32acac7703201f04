"""selparse benchmark: end-to-end timings and per-layer counters.

One measurement, run from the repository root:

    python3 bench/run.py --workload ladders --seed 3 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(see BENCHMARK.json for both lists).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

    python3 bench/run.py --self-check

runs every correctness check on tiny inputs in a few seconds.

Each workload repeats whole rounds until --seconds have passed.  A round
loads the workload's resources, runs `selparse validate` and
`selparse batch --json` in-process through
`selparse.cli.main`, then analyses every sentence through the library under
bg (fill, then `check_reading` on every reading) and under index (fill).
Every output is checked against bench/oracle.py.  The process starts no
threads and no other processes.
"""

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout, suppress
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import generate
import oracle
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# String hashing is salted per process unless PYTHONHASHSEED is set, and the
# salt decides the iteration order of the lattice's sets of sort names.
# `maximal_lower_bounds` stops scanning early when an ancestor comes first,
# so on big-hierarchy one salt parsed 2.5 times faster than another.  Every
# run uses the same salt.
HASH_SEED = "0"
# Schemas with their own combine counters (the names in BENCHMARK.json).
# Fixed here, so a change to the parser's schema table cannot drop a metric.
SCHEMAS = ("head_subject", "head_complement", "det_nbar", "adj_nbar",
           "np_pp", "np_relc", "prep_np", "relpro_vp")
# Median time of `calibration()` on the reference machine (see README).
CALIBRATION_REFERENCE_S = 0.0072


def import_selparse():
    """Import selparse from this checkout's src/, never from elsewhere."""
    init = SRC / "selparse" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: selparse sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import selparse.cli
    if Path(selparse.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported selparse from {selparse.__file__}, "
                 f"not from {SRC}")
    return selparse


def metric_units():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def _churn():
    # small dicts, lists and tuples, the kind of work the unifier does
    nodes = []
    for i in range(8_000):
        nodes.append({"sort": str(i), "feats": [i, i + 1], "path": (i,)})
    return len(nodes)


def calibration():
    """Fastest of three runs of a fixed allocating loop: the machine's pace now."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _churn()
        best = min(best, perf_counter() - start)
    return best


def reference_seconds(seconds, before, after):
    """`seconds` rescaled to the reference machine's pace.

    `before` and `after` are calibrations taken just before and after the
    timed work.  The machines this runs on change pace by up to a half for
    tens of seconds at a time, on a plain arithmetic loop too; the ratio of
    a time to adjacent calibrations moves a few percent between runs.
    """
    return seconds / ((before + after) / 2) * CALIBRATION_REFERENCE_S


@dataclass
class Round:
    times: dict        # operation -> reference seconds, None if it crashed
    edges: tuple       # (bg chart edges, index chart edges)
    attempted: int
    failed: int


class Bench:
    """One workload's inputs on disk plus the operations of one round."""

    def __init__(self, sp, workload, paths):
        self.sp = sp
        self.wl = workload
        self.paths = paths
        self.files = ["--hierarchy", str(paths["hierarchy"]),
                      "--lexicon", str(paths["lexicon"]),
                      "--decls", str(paths["decls"])]
        self.resources = None

    def setup(self):
        """Load hierarchy, declarations and lexicon; return the seconds taken."""
        sp, paths = self.sp, self.paths
        start = perf_counter()
        hierarchy = sp.sorts.load_hierarchy(paths["hierarchy"].read_text())
        decls = sp.grammar.load_declarations(paths["decls"].read_text(),
                                             hierarchy)
        lexicon = sp.grammar.load_lexicon(paths["lexicon"].read_text(),
                                          hierarchy, decls)
        elapsed = perf_counter() - start
        self.resources = hierarchy, lexicon, decls
        return elapsed

    def _cli(self, *argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                code = self.sp.cli.main(list(argv))
            finally:
                elapsed = perf_counter() - start
        return code, out.getvalue(), elapsed

    def _validate(self):
        code, out, elapsed = self._cli("validate", *self.files)
        lines = out.splitlines()
        ok = (code == 0 and "bcpo: ok" in lines and "compilation: ok" in lines
              and any(line.startswith(f"hierarchy: {self.wl.sort_count} sorts,")
                      for line in lines))
        return elapsed, 0 if ok else 1

    def _batch(self):
        wl = self.wl
        code, out, elapsed = self._cli("batch", "--json", *self.files,
                                       str(self.paths["corpus"]))
        records = [json.loads(line) for line in out.splitlines() if line]
        bad = 0
        for i, (tokens, (pre, post)) in enumerate(zip(wl.sentences,
                                                      wl.expected)):
            rec = records[i] if i < len(records) else {}
            if not (rec.get("sentence") == " ".join(tokens)
                    and rec.get("pre_filter") == pre
                    and rec.get("post_filter") == post
                    and len(rec.get("readings", ())) == post
                    and rec.get("agree") is True
                    and rec.get("status") == "PASS"):
                bad += 1
        if code != 0 or len(records) != len(wl.sentences):
            bad = len(wl.sentences)
        return elapsed, bad

    def library(self):
        """bg and index analysis of every sentence; (bg s, index s, edges, failed)."""
        sp = self.sp
        hierarchy, lexicon, decls = self.resources
        chart_class, check = sp.parser.Chart, sp.selres.check_reading
        satisfiable = sp.selres.Satisfiable
        bg_s = index_s = 0.0
        edges_bg = edges_index = failed = 0
        for tokens, (pre, post) in zip(self.wl.sentences, self.wl.expected):
            start = perf_counter()
            bg = chart_class(tokens, lexicon, decls, hierarchy, "bg")
            readings = bg.readings()
            survivors = [r for r in readings
                         if isinstance(check(r, hierarchy), satisfiable)]
            middle = perf_counter()
            index = chart_class(tokens, lexicon, decls, hierarchy, "index")
            pruned = index.readings()
            end = perf_counter()
            bg_s += middle - start
            index_s += end - middle
            edges_bg += bg.edges_built
            edges_index += index.edges_built
            if not (len(readings) == pre and len(survivors) == post
                    and len(pruned) == post
                    and {r.identity for r in survivors}
                    == {r.identity for r in pruned}):
                failed += 1
        return bg_s, index_s, (edges_bg, edges_index), failed

    def _guarded(self, op, count):
        """Run op; an exception fails all `count` operations it covers."""
        try:
            return op()
        except Exception as exc:  # a crash is a failed operation, not a stop
            print(f"bench: {op.__name__} raised {exc!r}", file=sys.stderr)
            return None, count

    def round(self):
        """Set-up, then every operation once, each between two calibrations."""
        n = len(self.wl.sentences)
        raw = {}
        marks = [calibration()]
        raw["setup"] = self.setup()
        marks.append(calibration())
        raw["validate"], failed = self._guarded(self._validate, 1)
        marks.append(calibration())
        raw["batch"], bad = self._guarded(self._batch, n)
        marks.append(calibration())
        failed += bad
        try:
            raw["bg"], raw["index"], edges, bad = self.library()
        except Exception as exc:  # a crash is a failed operation, not a stop
            print(f"bench: library pass raised {exc!r}", file=sys.stderr)
            raw["bg"] = raw["index"] = None
            edges, bad = None, n
        marks.append(calibration())
        brackets = {"setup": 0, "validate": 1, "batch": 2, "bg": 3, "index": 3}
        times = {op: None if t is None else reference_seconds(
                     t, marks[brackets[op]], marks[brackets[op] + 1])
                 for op, t in raw.items()}
        print(f"round: calibration {min(marks):.5f} s; reference " + ", ".join(
            f"{op} {t:.6f} s" for op, t in times.items() if t is not None),
            file=sys.stderr)
        return Round(times, edges, attempted=2 * n + 1, failed=failed + bad)


def measure(bench, seconds):
    """Whole rounds until `seconds` have passed (at least one)."""
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        gc.collect()
        rounds.append(bench.round())
    return rounds


def op_time(rounds, op):
    """Median over rounds of one operation's reference seconds."""
    times = [r.times[op] for r in rounds if r.times[op] is not None]
    return statistics.median(times) if times else float("inf")


def round_seconds(r):
    return sum(t for t in r.times.values() if t is not None)


def layer_targets(sp, tracer):
    """(metric prefix, owner, attribute, observer) for every traced function."""

    def unify_outcome(stat, args, result):
        if isinstance(result, sp.tfs.UnificationFailure):
            stat.counts["failures"] += 1
        else:
            stat.counts["nodes_built"] += len(set(result.values()))

    def combine_outcome(stat, args, result):
        schema = args[2]
        stat.counts[f"{schema}.attempts"] += 1
        if result is not None:
            stat.counts["successes"] += 1
            stat.counts[f"{schema}.successes"] += 1

    def fill_context(stat, args, result):
        if tracer.active["cli.main"]:
            stat.counts["in_cli"] += 1

    def reading_outcome(stat, args, result):
        if isinstance(result, sp.selres.Violation):
            stat.counts["violations"] += 1

    def atom_count(stat, args, result):
        stat.counts["atoms"] += len(result)

    hierarchy_class = sp.sorts.SortHierarchy
    return [
        ("sorts.glb", hierarchy_class, "glb", None),
        ("sorts.maximal_lower_bounds", hierarchy_class,
         "maximal_lower_bounds", None),
        ("sorts.bcpo_violations", hierarchy_class, "bcpo_violations", None),
        ("sorts.load_hierarchy", sp.sorts, "load_hierarchy", None),
        ("tfs.unify_map", sp.tfs, "unify_map", unify_outcome),
        ("grammar.compile_entry", sp.grammar, "compile_entry", None),
        ("grammar.load_lexicon", sp.grammar, "load_lexicon", None),
        ("parser.fill", sp.parser.Chart, "fill", fill_context),
        ("parser.combine", sp.parser, "combine", combine_outcome),
        ("selres.check_reading", sp.selres, "check_reading", reading_outcome),
        ("selres.extract_constraints", sp.selres, "extract_constraints",
         atom_count),
        ("selres.merge_pair", sp.selres, "merge_pair", None),
        ("cli.run_method", sp.cli, "run_method", None),
        ("cli.main", sp.cli, "main", None),
    ]


def layer_metrics(tracer, rounds, sentences):
    """Per-layer metrics per round; `.s` metrics are seconds per call."""
    stats = tracer.stats

    def per(name, count=None):
        stat = stats[name]
        return (stat.calls if count is None else stat.counts[count]) / rounds

    def self_s(name):
        return stats[name].self_time / rounds

    def per_call_s(name):
        stat = stats[name]
        return stat.total / stat.calls if stat.calls else 0.0

    def share(a, b):
        return a / b if b else 0.0

    unify_calls = per("tfs.unify_map")
    combines = per("parser.combine")
    metrics = {
        "sorts.glb.calls": per("sorts.glb"),
        "sorts.glb.self_s": self_s("sorts.glb"),
        "sorts.maximal_lower_bounds.calls": per("sorts.maximal_lower_bounds"),
        "sorts.maximal_lower_bounds.self_s":
            self_s("sorts.maximal_lower_bounds"),
        "sorts.bcpo_violations.s": per_call_s("sorts.bcpo_violations"),
        "sorts.load_hierarchy.s": per_call_s("sorts.load_hierarchy"),
        "tfs.unify_map.calls": unify_calls,
        "tfs.unify_map.failures": per("tfs.unify_map", "failures"),
        "tfs.unify_map.yield": share(
            unify_calls - per("tfs.unify_map", "failures"), unify_calls),
        "tfs.unify_map.nodes_built": per("tfs.unify_map", "nodes_built"),
        "tfs.unify_map.self_s": self_s("tfs.unify_map"),
        "grammar.compile_entry.calls": per("grammar.compile_entry"),
        "grammar.compile_entry.self_s": self_s("grammar.compile_entry"),
        "grammar.load_lexicon.s": per_call_s("grammar.load_lexicon"),
        "parser.fill.calls": per("parser.fill"),
        "parser.fill.per_sentence": per("parser.fill", "in_cli") / sentences,
        "parser.fill.self_s": self_s("parser.fill"),
        "parser.combine.attempts": combines,
        "parser.combine.successes": per("parser.combine", "successes"),
        "parser.combine.yield": share(per("parser.combine", "successes"),
                                      combines),
        "parser.combine.self_s": self_s("parser.combine"),
        "selres.check_reading.calls": per("selres.check_reading"),
        "selres.check_reading.violations":
            per("selres.check_reading", "violations"),
        "selres.extract_constraints.atoms":
            per("selres.extract_constraints", "atoms"),
        "selres.merge_pair.calls": per("selres.merge_pair"),
        "selres.check_reading.self_s": self_s("selres.check_reading"),
        "cli.run_method.calls": per("cli.run_method"),
        "cli.run_method.self_s": self_s("cli.run_method"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for schema in SCHEMAS:
        for outcome in ("attempts", "successes"):
            metrics[f"parser.combine.{schema}.{outcome}"] = per(
                "parser.combine", f"{schema}.{outcome}")
    return metrics


def check_oracle():
    """The oracle against the bundled corpus: (sentences covered, mismatches)."""
    return oracle.self_check(oracle.Grammar(*generate.bundled_texts()),
                             (generate.DATA / "paper.corpus").read_text())


def run_workload(sp, workload, seconds, trace):
    """Measure one workload; return the result object that run.py prints."""
    work = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    try:
        bench = Bench(sp, workload, workload.write(work))
        covered, mismatches = check_oracle()
        if not trace:
            rounds = measure(bench, seconds)
            n = len(workload.sentences)
            values = {
                "setup_s": op_time(rounds, "setup"),
                "sentences_per_s": n / op_time(rounds, "batch"),
                "bg_s": op_time(rounds, "bg"),
                "index_s": op_time(rounds, "index"),
                "edges_bg": rounds[0].edges[0] if rounds[0].edges else 0,
                "edges_index": rounds[0].edges[1] if rounds[0].edges else 0,
                "validate_s": op_time(rounds, "validate"),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            plain = measure(bench, seconds / 2)
            tracer = Tracer()
            tracer.install(layer_targets(sp, tracer))
            try:
                traced = measure(bench, seconds / 2)
            finally:
                tracer.uninstall()
            values = layer_metrics(tracer, len(traced), len(workload.sentences))
            values["trace.overhead_s"] = (
                statistics.median(round_seconds(r) for r in traced)
                - statistics.median(round_seconds(r) for r in plain))
            rounds = plain + traced
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    units = metric_units()["per_layer" if trace else "end_to_end"]
    if set(values) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    repeatable = len({r.edges for r in rounds}) == 1
    return {
        "correct": bool(covered and not mismatches and repeatable),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def self_check(sp):
    """Every check on tiny inputs, both with and without tracing."""
    covered, mismatches = check_oracle()
    print(f"oracle: covers {covered} bundled corpus sentences, "
          f"{len(mismatches)} disagree with their annotations")
    ok = covered > 0 and not mismatches
    for name in generate.WORKLOADS:
        first = generate.build(name, 1, quick=True)
        again = generate.build(name, 1, quick=True)
        other = generate.build(name, 2, quick=True)
        same = (first.corpus_text() == again.corpus_text()
                and first.hierarchy_text == again.hierarchy_text)
        print(f"{name}: same seed gives same inputs: {same}; "
              f"seed 2 differs: {first != other}")
        ok &= same
        for trace in (False, True):
            result = run_workload(sp, first, 0, trace)
            good = result["correct"] and result["failed"] == 0
            print(f"{name} trace={int(trace)}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            ok &= good
    print("self-check: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=generate.WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every correctness check on tiny inputs")
    args = ap.parse_args()
    if not args.self_check and None in (args.workload, args.seed, args.seconds):
        ap.error("--workload, --seed and --seconds are required")
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # replaces this process (same pid) rather than starting another
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sp = import_selparse()
    if args.self_check:
        return self_check(sp)
    workload = generate.build(args.workload, args.seed)
    result = run_workload(sp, workload, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
