"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed (and of the smoke
flag, which only shrinks sizes). Expected outputs are computed in plain
Python, never with the program's own interpreter, so they are an oracle the
pipeline's verdicts can be checked against.
"""

import math
import os
import re

from invclust.corpus import generate_synthetic_corpus
from invclust.nodes import SourceProgram
from invclust.tracer import TestCase

LABELS = ("sum1n", "factorial", "maxseq")

# Steps allowed to every closest-stream query; enough for the short default
# test suites, small enough that the planted infinite loop stops quickly.
STREAM_MAX_STEPS = 20_000


def oracle(label, stdin_text):
    """Expected stdout of a correct submission, from the input alone."""
    nums = [int(t) for t in stdin_text.split()]
    if label == "sum1n":
        return str(nums[0] * (nums[0] + 1) // 2)
    if label == "factorial":
        return str(math.factorial(nums[0]))
    if label == "maxseq":
        return str(max(nums[1:1 + nums[0]]))
    raise ValueError(f"no oracle for {label!r}")


def long_tests(rng, smoke):
    """trace-long test suites: one long input per assignment plus a short
    one. The maxseq long input ends with its strict maximum, so a loop that
    stops one element early gives a wrong answer."""
    n_sum = 400 if smoke else 40_000
    n_seq = 200 if smoke else 20_000
    sum_ns = [n_sum - rng.randrange(50), rng.randint(1, 9)]
    seq = [rng.randint(-10**6, 10**6) for _ in range(n_seq - rng.randrange(50))]
    seq[-1] = max(seq) + 1
    short = [rng.randint(-100, 100) for _ in range(rng.randint(2, 6))]
    suites = {
        "sum1n": [str(n) for n in sum_ns],
        "factorial": [str(n) for n in (20, rng.randint(1, 12))],
        "maxseq": [f"{len(xs)}\n" + " ".join(map(str, xs))
                   for xs in (seq, short)],
    }
    return {label: [TestCase(s, oracle(label, s)) for s in ins]
            for label, ins in suites.items()}


# A mutant is a clean variant with one wrong loop bound or one wrong initial
# value. Each rewrite below matches exactly one place in the variants the
# synthetic generator emits and is wrong on every test suite used here.
_BOUND = {
    "sum1n": [(r"(\w+) <= (\w+)", r"\1 < \2"), (r"(\w+) > 0\b", r"\1 > 1")],
    "factorial": [(r"(\w+) <= (\w+)", r"\1 < \2"), (r"(\w+) > 1\b", r"\1 > 2")],
    "maxseq": [(r"(\w+) < (\w+)\)", r"\1 < \2 - 1)"),
               (r"(\w+) < (\w+);", r"\1 < \2 - 1;"),
               (r"= (\w+) - 1", r"= \1 - 2")],
}
_INIT = {
    "sum1n": (r"(int \w+ = )0;", r"\g<1>1;"),
    "factorial": (r"(int \w+ = )1;", r"\g<1>2;"),
}


def mutate(label, text, kind):
    """Apply one mutation of `kind` ("bound" or "init") to a variant."""
    rules = _BOUND[label] if kind == "bound" else [_INIT[label]]
    for pattern, repl in rules:
        out, n = re.subn(pattern, repl, text)
        if n == 1:
            return out
    raise ValueError(f"no {kind} mutation applies to this {label} variant")


def _mutation_kind(label, index):
    return "init" if label in _INIT and index % 2 else "bound"


def planted(label, base_texts):
    """Planted submissions for one assignment: {stem: (text, kind)} where
    kind is "mutant", "syntax" or "unsupported"."""
    out = {}
    for i, text in enumerate(base_texts):
        out[f"x_mut{i}"] = (mutate(label, text, _mutation_kind(label, i)),
                            "mutant")
    head = base_texts[0]
    out["x_syntax"] = (head.replace("int main() {", "int main( {", 1),
                       "syntax")
    out["x_unsupported"] = (head.replace("int main() {",
                                         "int main() {\n  int *ptr;", 1),
                            "unsupported")
    return out


def cluster_corpus(seed, variants_per, tests=None):
    """The synthetic corpus plus planted submissions per assignment.

    Returns (corpus, expected) where expected maps every planted program id
    to its kind. Mutants come from variants v02 and v03: v00 and v01 of
    sum1n are the motivating pair, which these rewrites do not target."""
    corpus = generate_synthetic_corpus(seed, 3, variants_per)
    expected = {}
    for label, asn in corpus.assignments.items():
        if tests is not None:
            asn.tests = tests[label]
        bases = [p.text for p in asn.programs[2:4]]
        for stem, (text, kind) in planted(label, bases).items():
            pid = f"{label}/{stem}"
            asn.programs.append(SourceProgram(id=pid, label=label, text=text))
            expected[pid] = kind
    return corpus, expected


def stream_mutants(seed, variants_per):
    """Query mutants: [(label, stem, text)], one mutant per variant v02..
    of a corpus generated from a different seed."""
    corpus = generate_synthetic_corpus(seed + 1_000_003, 3, variants_per)
    out = []
    for label in LABELS:
        for i, prog in enumerate(corpus.assignments[label].programs[2:]):
            stem = f"m{i:02d}"
            out.append((label, stem,
                        mutate(label, prog.text, _mutation_kind(label, i))))
    return out


def hostile():
    """The six hostile submissions: {kind: source bytes}. Each is queried
    against sum1n's tests under STREAM_MAX_STEPS."""
    read_print = 'int main() {\n  int n;\n  scanf("%d", &n);\n'
    return {
        "recursion-390": (
            "int f(int n) {\n  if (n == 0) {\n    return 0;\n  }\n"
            "  return f(n - 1) + 1;\n}\n\n"
            + read_print + '  printf("%d", f(390));\n}\n').encode(),
        "parens-2000": (
            read_print + '  printf("%d", ' + "(" * 2000 + "n" + ")" * 2000
            + ");\n}\n").encode(),
        "non-utf8": (read_print.encode() + b"  int m\xff = 0;\n"
                     b'  printf("%d", n);\n}\n'),
        "syntax-error": b'int main( {\n  int n;\n  scanf("%d", &n);\n}\n',
        "unsupported": (read_print + '  int *p;\n  printf("%d", n);\n}\n'
                        ).encode(),
        "infinite-loop": (read_print + "  while (1) {\n    n = n + 0;\n  }\n"
                          '  printf("%d", n);\n}\n').encode(),
    }


def write_sources(root, items):
    """Write {relative path: bytes or str} under root."""
    for rel, data in items.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        mode = "wb" if isinstance(data, bytes) else "w"
        with open(path, mode) as f:
            f.write(data)


def check_tests(corpus):
    """Every test's expected output agrees with the oracle."""
    return all(tc.expected_stdout == oracle(label, tc.stdin_text)
               for label, asn in corpus.assignments.items()
               for tc in asn.tests)
