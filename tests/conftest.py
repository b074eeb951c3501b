"""Shared fixtures and test oracles.

Contains the two motivating source programs, a deterministic small-program
generator for randomized property tests, an independent invariant-template
oracle, and a string-level invariant evaluator used for soundness checks.
"""

import random
import re
from itertools import combinations, product

import numpy as np
import pytest

from invclust.synth import PAIR_FOR, PAIR_WHILE
from invclust.tracer import TestCase

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
}


def sum_suite(ns=(1, 2, 5)):
    return [TestCase(f"{n}\n", f"{n * (n + 1) // 2}") for n in ns]


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
        if len(set(map(type, vals))) == 1 and len(set(vals)) == 1:
            c = vals[0]
            out.add(f"{x} == {repr(c) if isinstance(c, float) else c}")
            const_vars.add(x)
    for x in common:
        if x in const_vars:
            continue  # equality suppresses this variable's bounds and signs
        vals = [s[x] for s in snaps]
        lo, hi = min(vals), max(vals)
        out.add(f"{x} >= {repr(lo) if isinstance(lo, float) else lo}")
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
