"""Command-line front end for the invclust pipeline.

Every subcommand is a thin wrapper over a library operation; with --json the
output is exactly the library result serialized as JSON. Exit codes: 0 on
success, 1 on usage errors, 2 on corpus/runtime errors and on paths the OS
refuses.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .anonymizer import anonymize, serialize_aast
from .clusterer import closest_program, purity
from .corpus import (analyze, generate_synthetic_corpus, ingest, load_labels,
                     load_model, load_vectors, read_source, read_tests,
                     run_pipeline, write_corpus)
from .errors import InvclustError
from .nodes import SourceProgram
from .parser import parse
from .renamer import rename
from .synth import ASSIGNMENTS
from .tracer import run_suite
from .unparse import unparse
from .vectorizer import MODES, represent

# Each mode by its own name, and aast_inv also as aast+inv.
_MODE_ALIASES = {a: m for m in MODES for a in (m, m.replace("_", "+"))}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _emit(args, payload, human):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _renamed_tree(path):
    return rename(parse(read_source(path)))


def _analyze(args):
    """The submission at args.program analyzed against args.tests."""
    program = SourceProgram(id="query", label="",
                            text=read_source(args.program))
    return analyze(program, read_tests(args.tests), args.max_steps)


def cmd_rename(args):
    renamed, rmap = _renamed_tree(args.program)
    text = unparse(renamed)
    _emit(args, {"renamed": text, "mapping": rmap.as_dict()}, text.rstrip("\n"))
    return 0


def cmd_aast(args):
    renamed, _ = _renamed_tree(args.program)
    aast = serialize_aast(anonymize(renamed))
    _emit(args, {"aast": aast.text, "node_count": aast.node_count}, aast.text)
    return 0


def cmd_trace(args):
    renamed, _ = _renamed_tree(args.program)
    log, verdicts = run_suite(renamed, read_tests(args.tests), args.max_steps,
                              record=args.json)
    payload = {"verdicts": verdicts}
    if args.json:
        payload["trace"] = log.to_json()
    lines = [f"t{i}: {v}" for i, v in enumerate(verdicts)]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_invariants(args):
    pa = _analyze(args)
    _emit(args, {"invariants": pa.inv_by_point, "verdicts": pa.verdicts},
          pa.docs.inv_text.rstrip("\n"))
    return 0


def cmd_cluster(args):
    mode = _MODE_ALIASES[args.mode]
    corpus = ingest(args.corpus, args.tests)
    arts = run_pipeline(
        corpus, mode=mode, k=args.k, k_frac=args.k_frac, seed=args.seed,
        subset=args.subset, n=args.n, out_dir=args.out,
        restarts=args.restarts)
    payload = {
        "purity": arts.purity,
        "k": arts.model.k,
        "clustered": arts.clustered_ids,
        "assignment": arts.model.assignment,
        "representatives": {str(c): pid
                            for c, pid in arts.model.representatives.items()},
        "exclusions": arts.exclusions,
    }
    human = (f"clustered {len(arts.clustered_ids)} programs into "
             f"{arts.model.k} clusters (purity {arts.purity:.4f})")
    if args.out:
        human += f"; artifacts in {args.out}"
    _emit(args, payload, human)
    return 0


def cmd_representatives(args):
    model = load_model(args.model)
    reps = {str(c): pid for c, pid in sorted(model.representatives.items())}
    human = "\n".join(f"{c}: {pid}" for c, pid in reps.items())
    _emit(args, {"representatives": reps}, human)
    return 0


def cmd_closest(args):
    model = load_model(args.model)
    pa = _analyze(args)
    query = represent(pa.docs, model.vocab, pa.program_id)
    if args.all_candidates:
        ids = sorted(model.assignment)
    else:
        ids = sorted(model.representatives.values())
    pid, dist = closest_program(np.array(query.values), ids,
                                load_vectors(args.model, model, ids))
    _emit(args, {"closest": pid, "distance": dist},
          json.dumps({"closest": pid, "distance": dist}))
    return 0


def cmd_purity(args):
    model = load_model(args.model)
    p = purity(model.assignment, load_labels(args.model, model.assignment))
    _emit(args, {"purity": p}, f"purity {p:.4f}")
    return 0


def cmd_synth(args):
    corpus = generate_synthetic_corpus(args.seed, args.assignments,
                                       args.variants_per)
    write_corpus(corpus, args.out)
    count = sum(len(a.programs) for a in corpus.assignments.values())
    _emit(args, {"out": args.out, "assignments": sorted(corpus.assignments),
                 "programs": count},
          f"wrote {count} programs across {len(corpus.assignments)} "
          f"assignments to {args.out}")
    return 0


def _int_at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


_positive_int = _int_at_least(1)


def _positive_fraction(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}")
    return value


@functools.cache
def build_parser():
    """The argparse parser, built once per process: parse_args keeps no
    state between calls."""
    parser = _Parser(prog="invclust",
                     description="Cluster C submissions by invariants and "
                                 "anonymized ASTs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="print machine-readable JSON")

    def tracing(p):
        p.add_argument("--tests", required=True,
                       help="directory of t<i>.in / t<i>.out files")
        p.add_argument("--max-steps", type=_positive_int, default=None)

    p = sub.add_parser("rename", help="canonically rename variables")
    p.add_argument("program")
    common(p)
    p.set_defaults(func=cmd_rename)

    p = sub.add_parser("aast", help="print the anonymized AST string")
    p.add_argument("program")
    common(p)
    p.set_defaults(func=cmd_aast)

    p = sub.add_parser("trace", help="run a program on a test suite")
    p.add_argument("program")
    tracing(p)
    common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("invariants", help="detect likely invariants")
    p.add_argument("program")
    tracing(p)
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("cluster", help="run the full pipeline")
    p.add_argument("--corpus", required=True)
    p.add_argument("--tests", default=None,
                   help="tests root (default: <corpus>/tests)")
    p.add_argument("--mode", choices=sorted(_MODE_ALIASES),
                   default="aast+inv")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--k", type=_positive_int, default=None)
    group.add_argument("--k-frac", type=_positive_fraction, default=0.1)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--n", type=_positive_int, default=3, help="gram size")
    p.add_argument("--subset", choices=("correct-only", "all"),
                   default="correct-only")
    p.add_argument("--restarts", type=_positive_int, default=8,
                   help="best-of-R k-means restarts by SSE")
    p.add_argument("--out", default=None, help="artifact output directory")
    common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("representatives",
                       help="list per-cluster representatives")
    p.add_argument("--model", required=True)
    common(p)
    p.set_defaults(func=cmd_representatives)

    p = sub.add_parser("closest",
                       help="closest correct program to a submission")
    p.add_argument("--model", required=True)
    p.add_argument("--program", required=True)
    tracing(p)
    p.add_argument("--all-candidates", action="store_true",
                   help="search all clustered programs, not representatives")
    common(p)
    p.set_defaults(func=cmd_closest)

    p = sub.add_parser("purity", help="purity of a persisted model")
    p.add_argument("--model", required=True)
    common(p)
    p.set_defaults(func=cmd_purity)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assignments", type=int, default=3,
                   choices=range(2, len(ASSIGNMENTS) + 1))
    p.add_argument("--variants-per", type=_int_at_least(2), default=10)
    common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 1
    try:
        return args.func(args)
    except (InvclustError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2

