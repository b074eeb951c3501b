"""Shared fixtures and test oracles.

Contains the two motivating source programs, a deterministic small-program
generator for randomized property tests, an independent invariant-template
oracle, and a string-level invariant evaluator used for soundness checks.
"""

import math
import random
import re
from itertools import combinations, product

import numpy as np
import pytest

from invclust import tracer
from invclust.invariants import UNSET
from invclust.parser import parse
from invclust.renamer import rename
from invclust.synth import PAIR_FOR, PAIR_WHILE
from invclust.tracer import PointTrace, TestCase, TraceLog, run_suite

LEFT_SRC = PAIR_WHILE
RIGHT_SRC = PAIR_FOR


_READ_N = 'int main() {\n  int n;\n  scanf("%d", &n);\n'

# Submissions that once escaped as raw Python errors: {name: (source bytes,
# a substring of the diagnostic they must now produce)}.
HOSTILE_SOURCES = {
    "recursion-390": (
        ("int f(int n) {\n  if (n == 0) {\n    return 0;\n  }\n"
         "  return f(n - 1) + 1;\n}\n\n" + _READ_N
         + '  printf("%d", f(390));\n}\n').encode(),
        "step-limit at f/entry: call depth"),
    "parens-2000": (
        (_READ_N + '  printf("%d", ' + "(" * 2000 + "n" + ")" * 2000
         + ");\n}\n").encode(),
        "nesting too deep"),
    "non-utf8": (
        _READ_N.encode() + b"  int m\xff = 0;\n" + b'  printf("%d", n);\n}\n',
        "4:8: unexpected character"),
    "inf-to-int": (
        (_READ_N + "  double x = 1e300;\n  x = x * x;\n  int y = x;\n"
         '  printf("%d", n);\n}\n').encode(),
        "integer-overflow at main/entry"),
    "array-increment": (
        (_READ_N + "  int a[2];\n  a++;\n" + '  printf("%d", n);\n}\n'
         ).encode(),
        "type-error at main/entry: array 'int1' used as scalar"),
    "unicode-digit": (
        (_READ_N + "  int x = 1\u00b2;\n" + '  printf("%d", n);\n}\n'
         ).encode(),
        "4:12: unexpected character '\u00b2'"),
    "nan-printf": (
        (_READ_N + "  double x = 1e300;\n  x = x * x - x * x;\n"
         '  printf("%d", x);\n}\n').encode(),
        "integer-overflow at main/entry"),
}


# Programs whose points hold what a chunked fold of snapshots must get
# right. Each ignores its stdin but "float", which loops n times.
SNAPSHOT_EDGE_PROGRAMS = {
    # nan, +inf, -inf, and a column alternating -0.0 and 0.0.
    "float": """\
int main() {
  double x = 1.5;
  double y = 0.0;
  double z = -0.0;
  double w = 0.0;
  int i = 0;
  int n;
  scanf("%d", &n);
  while (i < n) {
    x = x * 1e300;
    y = x - x;
    w = -x;
    z = z * -1.0;
    i = i + 1;
  }
  printf("%f", x);
}
""",
    # `a` declared again in the loop body, set there from i == 2 on.
    "shadow": """\
int main() {
  int a = 1;
  int i;
  for (i = 0; i < 4; i++) {
    int a;
    if (i > 1) {
      a = i * 10;
    }
    {
      printf("%d", i);
    }
  }
}
""",
    # f/exit is reached from three returns with different scopes.
    "returns": """\
int f(int n) {
  if (n < 0) {
    return 0;
  }
  int m = n * 2;
  if (m > 4) {
    return m;
  }
  int k = m + 1;
  return k;
}

int main() {
  int i;
  for (i = -2; i < 5; i++) {
    printf("%d ", f(i));
  }
}
""",
    # Two blocks on line 5, each with a block inside: four points.
    "one-line": """\
int main() {
  int a = 0;
  int i;
  for (i = 0; i < 3; i++) {
    { int b = i; { a = a + b; } } int t = a; { int b = i + 10; { a = a - b + t; } }
  }
}
""",
}


def log_from_snapshots(point_snaps):
    """A recorded TraceLog holding the given snapshots, {point id: [dict of
    variable values]}: each point's schema is the names of its dicts in
    first-seen order, and a name a dict lacks is UNSET in its row."""
    log = TraceLog(record=True)
    for pid, snaps in point_snaps.items():
        point = log.points[pid] = PointTrace(
            dict.fromkeys(name for snap in snaps for name in snap))
        point.flat = [snap.get(name, UNSET)
                      for snap in snaps for name in point.names]
        point.summary.fold(point.flat)
        if not point.names:
            point.summary.count = len(snaps)
    return log


def sum_suite(ns=(1, 2, 5)):
    return [TestCase(f"{n}\n", f"{n * (n + 1) // 2}") for n in ns]


def mutations_shown(corpus):
    """The meaning-preserving mutations that a synthetic corpus's generated
    variants show in their text, the motivating pair left out:
    "loop-conversion" when both a `for` and a `while` loop occur,
    "loop-reversal" when a loop counts down, and "rename" when two
    variants of one assignment declare different variable names."""
    shown = set()
    for asn in corpus.assignments.values():
        texts = [p.text for p in asn.programs
                 if p.text not in (PAIR_WHILE, PAIR_FOR)]
        if (any("for (" in t for t in texts)
                and any("while (" in t for t in texts)):
            shown.add("loop-conversion")
        if any("--" in t for t in texts):
            shown.add("loop-reversal")
        declared = {frozenset(e[0] for e in rename(parse(t))[1].entries)
                    for t in texts}
        if len(declared) > 1:
            shown.add("rename")
    return shown


@pytest.fixture
def left_src():
    return LEFT_SRC


@pytest.fixture
def right_src():
    return RIGHT_SRC


# ---------------------------------------------------------------------------
# Random small-program generator (terminating, error-free by construction:
# all variables initialized, loop counters never reassigned, multiplication
# only by small constants so 64-bit overflow is unreachable).

_NAME_CANDIDATES = ["a", "b", "c", "d", "val", "tmp", "acc", "num", "zz",
                    "q", "w", "res", "cnt", "top", "lo", "hi"]


def gen_program(seed, names=None):
    """Returns (source_text, n_inputs). Deterministic given seed; the same
    seed with a different name list yields the same program modulo a
    variable permutation."""
    rng = random.Random(seed)
    pool = list(names) if names else list(_NAME_CANDIDATES)
    rng2 = random.Random(seed + 10_000)
    rng2.shuffle(pool)
    nvars = rng.randint(1, 2)
    nloops = rng.randint(0, 2)
    variables = pool[:nvars]
    counters = pool[nvars:nvars + nloops]
    lines = ["int main() {"]
    for v in variables:
        lines.append(f"  int {v} = {rng.randint(-5, 5)};")
    for c in counters:
        lines.append(f"  int {c} = 0;")
    n_inputs = 0
    if rng.random() < 0.5:
        lines.append(f'  scanf("%d", &{variables[0]});')
        n_inputs = 1

    def expr():
        t = rng.choice(variables + [str(rng.randint(0, 9))])
        for _ in range(rng.randint(0, 2)):
            op = rng.choice(["+", "-", "*"])
            rhs = str(rng.randint(0, 3)) if op == "*" else \
                rng.choice(variables + [str(rng.randint(0, 5))])
            t = f"{t} {op} {rhs}"
        return t

    def assigns(indent, budget):
        out = []
        for _ in range(budget):
            v = rng.choice(variables)
            if rng.random() < 0.25:
                cond = (f"{rng.choice(variables + counters)} "
                        f"{rng.choice(['<', '<=', '>', '>=', '!='])} "
                        f"{rng.randint(-3, 3)}")
                out.append(f"{indent}if ({cond}) {{")
                out.append(f"{indent}  {v} = {expr()};")
                if rng.random() < 0.5:
                    out.append(f"{indent}}} else {{")
                    out.append(f"{indent}  {v} = {expr()};")
                out.append(f"{indent}}}")
            else:
                out.append(f"{indent}{v} = {expr()};")
        return out

    lines.extend(assigns("  ", rng.randint(0, 2)))
    for c in counters:
        bound = rng.randint(2, 4)
        lines.append(f"  for ({c} = 0; {c} < {bound}; {c}++) {{")
        lines.extend(assigns("    ", rng.randint(1, 2)))
        lines.append("  }")
    lines.append(f'  printf("%d", {rng.choice(variables)});')
    lines.append("}")
    return "\n".join(lines) + "\n", n_inputs


def gen_suite(seed, n_inputs, cases=3):
    rng = random.Random(seed + 77)
    tests = []
    for _ in range(cases):
        stdin_text = f"{rng.randint(-9, 9)}\n" if n_inputs else ""
        tests.append(TestCase(stdin_text, ""))
    return tests


def untiered_suite(tree, tests, max_steps=None):
    """(TraceLog, verdicts) of the suite run recorded with HOT_ITERS out of
    reach, so that no loop tiers: the closures alone, the tier's
    reference."""
    hot_iters = tracer.HOT_ITERS
    tracer.HOT_ITERS = math.inf
    try:
        return run_suite(tree, tests, max_steps, record=True)
    finally:
        tracer.HOT_ITERS = hot_iters


def fewest_steps(tree, tests):
    """The fewest max_steps under which no test of the suite stops at the
    step limit: the most steps one test takes. A call-depth or
    loop-iteration stop has a detail and does not count."""
    lo, hi = 1, tracer.MAX_STEPS
    while lo < hi:
        mid = (lo + hi) // 2
        log, _ = run_suite(tree, tests, mid)
        if any(e.startswith("step-limit") and ":" not in e
               for e in log.errors):
            lo = mid + 1
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Invariant string evaluator: checks one canonical invariant string against
# one snapshot. Used to verify soundness directly on trace logs.

_INV_RE = re.compile(r"^(\w+) (==|!=|<=|>=|<|>) (.+)$")
_DIFF_RE = re.compile(r"^(\w+) \+ (-?\d+)$")


def inv_holds(text, snap):
    m = _INV_RE.match(text)
    assert m, f"unparseable invariant: {text!r}"
    x, op, rhs = m.groups()
    left = snap[x]
    dm = _DIFF_RE.match(rhs)
    if dm and dm.group(1) in snap:
        right = snap[dm.group(1)] + int(dm.group(2))
    elif rhs in snap:
        right = snap[rhs]
    else:
        try:
            right = int(rhs)
        except ValueError:
            right = float(rhs)
    return {"==": left == right, "!=": left != right, "<": left < right,
            "<=": left <= right, ">": left > right, ">=": left >= right}[op]


# ---------------------------------------------------------------------------
# Independent template oracle: enumerates every template instance holding on
# all snapshots at one point, then applies the stated suppression rules.

def oracle_point_invariants(snaps):
    common = sorted(set.intersection(*(set(s) for s in snaps)))
    out = set()
    const_vars = set()
    for x in common:
        vals = [s[x] for s in snaps]
        c = vals[0]
        if all(v == c and type(v) is type(c) for v in vals):
            out.add(f"{x} == {repr(c) if isinstance(c, float) else c}")
            const_vars.add(x)
    for x in common:
        if x in const_vars:
            continue  # equality suppresses this variable's bounds and signs
        vals = [s[x] for s in snaps]
        lo, hi = min(vals), max(vals)
        if all(v >= lo for v in vals):
            out.add(f"{x} >= {repr(lo) if isinstance(lo, float) else lo}")
        if all(v <= hi for v in vals):
            out.add(f"{x} <= {repr(hi) if isinstance(hi, float) else hi}")
        strict_pos = all(v > 0 for v in vals)
        strict_neg = all(v < 0 for v in vals)
        if strict_pos:
            out.add(f"{x} > 0")
        elif all(v >= 0 for v in vals):
            out.add(f"{x} >= 0")
        if strict_neg:
            out.add(f"{x} < 0")
        elif all(v <= 0 for v in vals):
            out.add(f"{x} <= 0")
        if all(v != 0 for v in vals):
            out.add(f"{x} != 0")
    for x, y in combinations(common, 2):
        pairs = [(s[x], s[y]) for s in snaps]
        if all(a == b for a, b in pairs):
            out.add(f"{x} == {y}")
            continue  # suppresses order relations and the c == 0 diff
        for text, pred in ((f"{x} < {y}", lambda a, b: a < b),
                           (f"{x} <= {y}", lambda a, b: a <= b),
                           (f"{y} < {x}", lambda a, b: a > b),
                           (f"{y} <= {x}", lambda a, b: a >= b)):
            if all(pred(a, b) for a, b in pairs):
                out.add(text)
        if all(isinstance(a, int) and isinstance(b, int) for a, b in pairs):
            d = pairs[0][0] - pairs[0][1]
            if d != 0 and abs(d) <= 100 and all(a - b == d for a, b in pairs):
                out.add(f"{x} == {y} + {d}")
    return sorted(out)


def clusterable_instance(rng):
    """A small instance with k well-separated groups (N <= 8, d <= 3,
    k <= 3). Separation keeps the global optimum reachable by Lloyd's
    algorithm, so the exhaustive oracle tests the implementation rather
    than the algorithm's known local-optimum behavior."""
    n = rng.randint(3, 8)
    d = rng.randint(1, 3)
    k = rng.randint(1, min(3, n))
    centers = []
    while len(centers) < k:
        c = tuple(rng.uniform(-3, 3) for _ in range(d))
        if all(sum((a - b) ** 2 for a, b in zip(c, c2)) > 2.25
               for c2 in centers):
            centers.append(c)
    pts = [tuple(a + rng.gauss(0, 0.15) for a in centers[i % k])
           for i in range(n)]
    return pts, k


# ---------------------------------------------------------------------------
# Exhaustive k-means oracle: minimum SSE over every assignment of N points
# to k clusters (empty clusters allowed, matching "at most k groups").

def brute_force_sse(points, k):
    X = np.asarray(points, dtype=float)
    best = None
    for labels in product(range(k), repeat=len(X)):
        sse = 0.0
        for c in set(labels):
            members = X[[i for i, l in enumerate(labels) if l == c]]
            centroid = members.mean(axis=0)
            sse += float(((members - centroid) ** 2).sum())
        if best is None or sse < best:
            best = sse
    return best
