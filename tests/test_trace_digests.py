"""Tracer and detector output pinned by digest.

The digests were recorded from the tree-walking interpreter that the
closure-compiled tracer replaced. Each covers, per program, the suite's
`TraceLog.to_json()` and verdicts and the `detect(...).as_dict()` of that
log, traced with record=True so that every snapshot is kept. Any change to
snapshot contents, key order, point ids, step accounting, error kinds,
points or details shows up here.

That interpreter named points by source line (`main/while@L5/body`); the
tracer names them by structure (`main/loop0/body`). Before hashing, each
structural id is mapped back to its line-based id through a map built from
the tree, which must be a bijection, so every other byte is compared as
recorded.
"""

import functools
import hashlib
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from invclust import cli, tracer
from invclust.corpus import generate_synthetic_corpus
from invclust.invariants import detect
from invclust.nodes import Kind
from invclust.parser import parse
from invclust.renamer import rename
from invclust.synth import PAIR_WHILE
from invclust.tracer import TestCase, execute, run_suite

from conftest import (fewest_steps, gen_program, gen_suite,
                      log_from_snapshots, untiered_suite)

# (max_steps, tracer.MAX_LOOP_ITERS) of a digest's runs.
TIGHT = (777, 50)
# Small enough that most programs stop part-way through a statement.
SMALL = (60, 3)

# Programs that end in each runtime error the tracer reports.
ERROR_PROGRAMS = [
    'int main() {\n  int a;\n  printf("%d", a);\n}\n',
    "int main() {\n  while (1) {\n  }\n}\n",
    "int f(int n) {\n  return f(n + 1);\n}\n\nint main() {\n  f(0);\n}\n",
    'int main() {\n  int a = 0;\n  printf("%d", 1 / a);\n}\n',
    "int main() {\n  int x = 9223372036854775807;\n  x = x + 1;\n}\n",
    'int main() {\n  int a;\n  scanf("%d", &a);\n}\n',
    "int main() {\n  int a[2];\n  a[5] = 1;\n}\n",
    'int main() {\n  int a[3];\n  a[1] = 2;\n  printf("%d", a[0]);\n}\n',
    'int main() {\n  double d = 2.5;\n  printf("%d", 7 % d);\n}\n',
    'int main() {\n  int a[2];\n  a[0.5] = 1;\n}\n',
    'int main() {\n  int a[2];\n  int b = a;\n}\n',
    'int main() {\n  int v;\n  v++;\n}\n',
    'int main() {\n  int v;\n  scanf("%d", &v);\n}\n',
]

# Doubles that overflow to inf and then give nan, next to ints.
FLOAT_PROGRAM = """\
int main() {
  double x = 1.5;
  double y = 0.0;
  int i = 0;
  int n;
  scanf("%d", &n);
  while (i < n) {
    x = x * 1e300;
    y = x - x;
    i = i + 1;
  }
  printf("%f %f %d", x, y, i);
}
"""


_LINE_SEGMENT = {Kind.IF: "if", Kind.WHILE: "while", Kind.FOR: "for",
                 Kind.BLOCK: "block"}


def _line_based_ids(tree):
    """Each structural point id of `tree` -> the line-based id the digests
    were recorded with: a scope-opening statement was `<kind>@L<line>`,
    its kind `if`, `while`, `for` or `block`."""
    ids = {}

    def walk(stmts, new, old):
        opened = 0
        for node in stmts:
            if node.kind not in _LINE_SEGMENT:
                continue
            kind = _LINE_SEGMENT[node.kind]
            seg = "loop" if kind in ("while", "for") else kind
            n = f"{new}/{seg}{opened}"
            o = f"{old}/{kind}@L{node.line}"
            opened += 1
            if node.kind == Kind.BLOCK:
                arms = [("", node)]
            elif node.kind == Kind.IF:
                arms = list(zip(("/then", "/else"), node.children[1:]))
            else:
                arms = [("/body", node.children[-1])]
            for arm, block in arms:
                ids[n + arm] = o + arm
                walk(block.children, n + arm, o + arm)

    for fn in tree.children:
        name = fn.identifier
        ids[f"{name}/entry"] = f"{name}/entry"
        ids[f"{name}/exit"] = f"{name}/exit"
        walk(fn.children[-1].children, name, name)
    assert len(set(ids.values())) == len(ids), "not a bijection"
    return ids


def _to_line_based(log, ids):
    """`log.to_json()` with every point id replaced by its line-based id."""
    d = json.loads(log.to_json())
    for key in ("samples", "point_kinds"):
        d[key] = {ids[p]: x for p, x in d[key].items()}

    def point(m):  # "start", before main, is no point
        return " at " + (m[1] if m[1] == "start" else ids[m[1]])
    d["errors"] = [re.sub(r" at ([^\s:]+)", point, e, count=1)
                   for e in d["errors"]]
    return json.dumps(d, sort_keys=True)


def _digest(runs):
    """sha256 over (trace json, verdicts, invariants) of each suite run,
    with point ids in their line-based form."""
    h = hashlib.sha256()
    for tree, tests, max_steps in runs:
        log, verdicts = run_suite(tree, tests, max_steps, record=True)
        ids = _line_based_ids(tree)
        assert set(log.points) <= set(ids)
        h.update(_to_line_based(log, ids).encode())
        h.update(json.dumps(verdicts).encode())
        h.update(json.dumps({ids[p]: invs for p, invs
                             in detect(log).as_dict().items()},
                            sort_keys=True).encode())
    return h.hexdigest()


def _renamed(src):
    return rename(parse(src))[0]


def _synth_runs(max_steps):
    corpus = generate_synthetic_corpus(0, 3, 10)
    for label in sorted(corpus.assignments):
        asn = corpus.assignments[label]
        for prog in asn.programs:
            yield _renamed(prog.text), asn.tests, max_steps


def _gen_runs(max_steps):
    for seed in range(20):
        src, n_inputs = gen_program(seed)
        yield _renamed(src), gen_suite(seed, n_inputs), max_steps


def _error_runs(max_steps):
    for src in ERROR_PROGRAMS:
        yield (parse(src), [TestCase("4\n", ""), TestCase("", "")],
               max_steps)


def _float_runs(max_steps):
    tests = [TestCase(f"{n}\n", "") for n in (0, 1, 2, 3)]
    yield _renamed(FLOAT_PROGRAM), tests, max_steps


PINNED = {
    ("synth", "default"):
        "cb07e317fb0b46b86254dd887a57ccfd29f96bbc4a8f339f82d44830d0796891",
    ("synth", "tight"):
        "cb07e317fb0b46b86254dd887a57ccfd29f96bbc4a8f339f82d44830d0796891",
    ("gen", "default"):
        "a50a6ad6ec8c947504df15549662e6cda3cabdaa11d354f02e747505601f5728",
    ("gen", "tight"):
        "a50a6ad6ec8c947504df15549662e6cda3cabdaa11d354f02e747505601f5728",
    ("synth", "small"):
        "3f7a7397e3593a68d134d78736cab75bdc5b3a99476e13776c5c3779e350e17f",
    ("gen", "small"):
        "5e4b80d336658ed862a0ff971a7e80ac2f9094cd1194259c09713404e250ec94",
    ("errors", "tight"):
        "38a50fae0b68e5fe06c7c5751bdad6a865a73a941a12236208c0d872d77af1e9",
    ("errors", "small"):
        "1738393ca2bd3ad734e5d828b3320aa14deb4c5666de3304d13f90832b24f53e",
    # Re-recorded when a column that held a nan stopped getting bounds.
    ("float", "default"):
        "ffeed7fdc4c0bee5fece4e86612e732106d9d4faa17c48541da83c9e1fd2735a",
}

_GROUPS = {"synth": _synth_runs, "gen": _gen_runs, "errors": _error_runs,
           "float": _float_runs}
_LIMITS = {"default": (None, tracer.MAX_LOOP_ITERS), "tight": TIGHT,
           "small": SMALL}


@pytest.mark.parametrize("group,limits", sorted(PINNED))
def test_suite_output_matches_recorded_digest(group, limits, monkeypatch):
    max_steps, max_loop_iters = _LIMITS[limits]
    monkeypatch.setattr(tracer, "MAX_LOOP_ITERS", max_loop_iters)
    assert _digest(_GROUPS[group](max_steps)) == PINNED[group, limits]


# The fewest steps PAIR_WHILE needs on stdin 3: pins step accounting to the
# statement and expression node.
PAIR_WHILE_STEPS = 37

# A maxseq-shaped loop: an `i < n - 1` bound, a `++` step, `scanf` and an
# `if` in the body.
MAXSEQ_LOOP = ('int main() {\n  int n, m, i, v;\n  scanf("%d", &n);\n'
               '  scanf("%d", &m);\n  for (i = 0; i < n - 1; i++) {\n'
               '    scanf("%d", &v);\n    if (v > m) {\n      m = v;\n    }\n'
               '  }\n  printf("%d", m);\n}\n')

# A tiered loop whose tier calls closures: an element store, an `if` whose
# test is a call (`%` is not emitted inline) and a printf in its arm.
CALLS_LOOP = ('int main() {\n  int n, i, s;\n  int a[2];\n  scanf("%d", &n);\n'
              "  a[0] = 0;\n  a[1] = 0;\n  s = 0;\n"
              "  for (i = 0; i < n; i++) {\n    a[i % 2] = a[i % 2] + i;\n"
              '    if (i % 1000 == 999) {\n      printf("%d ", a[0] - a[1]);\n'
              '    }\n    s = s + i;\n  }\n  printf("%d", s);\n}\n')

_MAXSEQ_3000 = "3000\n" + "".join(f"{i}\n" for i in range(1, 3001))

# name: (source, stdin, expected stdout, the fewest steps the test needs,
# the point where one step fewer stops it). Past HOT_ITERS a loop runs in
# the source compiled for it; near the limit the tier hands the execution
# back to the loop's closure, which stops at the exact node.
STEP_BUDGETS = {
    "pair-while-3": (PAIR_WHILE, "3\n", "6\n", PAIR_WHILE_STEPS,
                     "main/loop0/body"),
    "maxseq-4": (MAXSEQ_LOOP, "4\n3 9 2 7\n", "9\n", 51, "main/loop0/body"),
    "maxseq-3000": (MAXSEQ_LOOP, _MAXSEQ_3000, "3000\n", 39003,
                    "main/loop0/body/if0/then"),
    "calls-3000": (CALLS_LOOP, "3000\n", "-500 -1000 -1500 4498500\n", 72039,
                   "main/loop0/body/if0/then"),
    # The length of trace-long's tests.
    "pair-while-40000": (PAIR_WHILE, "40000\n", "800020000\n", 320013,
                         "main/loop0/body"),
}


def test_pair_while_step_budget_is_exact():
    for name, (src, stdin, stdout, steps, stop) in STEP_BUDGETS.items():
        tree = parse(src)
        test = TestCase(stdin, stdout)
        log, _, verdict = execute(tree, test, steps)
        assert verdict == "pass", name
        log, _, verdict = execute(tree, test, steps - 1)
        assert verdict == "error", name
        assert log.errors == [f"step-limit at {stop}"], name


# A loop whose tier reuses values across an if/else join where one arm
# stores, declares a name again in the body and opens a block that shadows
# one. Renaming gives each declaration its own name.
JOIN_LOOP = ('int main() {\n  int n, i, s, t;\n  scanf("%d", &n);\n'
             "  s = 0;\n  t = 0;\n  for (i = 0; i < n; i++) {\n"
             "    if (i < 2500) {\n      s = s + 1;\n    } else {\n"
             "      t = t + 2;\n    }\n    s = s + t - t;\n    {\n"
             "      int s = i % 5;\n      if (s == 0) {\n        t = t + s;\n"
             "      }\n    }\n    int s = i % 3;\n    if (s == 1) {\n"
             '      t = t + s;\n    }\n  }\n  printf("%d %d", s, t);\n}\n')

# name: (source, stdin, expected stdout, the `invariants --json` output, or
# the sha256 of that output's JSON with sorted keys).
LONG_RUN_INVARIANTS = {
    # The body's first snapshot has v unset, so that point's first chunk
    # packs each column alone, and its later chunks of 64 rows or more
    # convert in one pack each.
    "maxseq-3000": (
        MAXSEQ_LOOP, _MAXSEQ_3000, "3000\n",
        "f8c6dce8ba0f8ee0c2f55a2330602aadb22faff71ff02839532478b29b036c3b"),
    # 8 steps an iteration, and every point folds at the first back-edge or
    # call 32,768 steps past its last fold, so the loop body folds in three
    # chunks, each as int64 arrays, into the invariants of one chunk; all
    # but the first HOT_ITERS iterations run tiered.
    "pair-while-10000": (PAIR_WHILE, "10000\n", "50005000\n", {
        "invariants": {"main/loop0/body": [
            "int0 <= 49995000", "int0 >= 0", "int1 == 10000", "int2 < int1",
            "int2 <= 9999", "int2 <= int0", "int2 <= int1", "int2 >= 0"]},
        "verdicts": ["pass"]}),
    # Those of the untiered tracer: 97 lines over six points.
    "join-5000": (
        JOIN_LOOP, "5000\n", "2500 6667\n",
        "92ce24d31eae1325651b9999169efd371078f415cd150a1f1d3a6fd29668bd03"),
}


@pytest.mark.parametrize("name", sorted(LONG_RUN_INVARIANTS))
def test_long_run_invariants_match_recorded_output(name, tmp_path, capsys):
    src, stdin, stdout, expected = LONG_RUN_INVARIANTS[name]
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "t0.in").write_text(stdin)
    (tests / "t0.out").write_text(stdout)
    (tmp_path / "prog.c").write_text(src)
    assert cli.main(["invariants", str(tmp_path / "prog.c"),
                     "--tests", str(tests), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["verdicts"] == ["pass"]
    if isinstance(expected, str):
        got = hashlib.sha256(
            json.dumps(got, sort_keys=True).encode()).hexdigest()
    assert got == expected


def _edge_log():
    nan, inf = math.nan, math.inf
    columns = {
        "p": [{"a": nan, "b": nan, "c": 1, "d": 1.0, "e": inf, "f": -inf}] * 3,
        "q": [{"a": 1, "b": 1.0}, {"a": 2, "b": 2.0}, {"a": 3, "b": 3}],
        "r": [{"a": 0, "b": -0.0, "c": inf}, {"a": 0, "b": 0.0, "c": inf},
              {"a": 0, "b": 0, "c": nan}],
        "s": [{"x": 5, "y": 3, "z": -2}, {"x": 9, "y": 7, "z": -2},
              {"x": -1, "y": -3, "z": -2}],
        "t": [{"x": 1, "y": nan}, {"x": 2, "y": 1.0}, {"x": 3, "y": inf}],
        "u": [{"x": 1}],
    }
    return log_from_snapshots(columns)


# Re-recorded when a column that held a nan stopped getting bounds.
EDGE_DETECT = (
    "899404318395b920f756ec26081f7266cf0d5b582aa0e720a2d00feaa7a058e6")


def test_detect_edge_values_match_recorded_digest():
    out = json.dumps(detect(_edge_log()).as_dict(), sort_keys=True)
    assert hashlib.sha256(out.encode()).hexdigest() == EDGE_DETECT


# Step-budget sweeps: each program runs under every max_steps from 1 up to
# the first budget at which no test stops with `step-limit`, and the
# (verdicts, errors) of each run are pinned. A step counted early or late,
# or a failure checked out of order, moves a budget's errors. Together the
# programs cover compares and `+ - *` with a variable or a literal on each
# side, int and double; the left, the right and both operands unset; an
# array used as an operand; `+`, `-` past the int range; a double stored
# into an int; and stores from assignment, declaration and `scanf`. The
# digests were recorded before leaf operands and scalar stores were fused
# into their parent's closure. The last six programs (loop and `if`
# conditions, `for` steps, a leaf compared with leaf arithmetic, and
# `scanf` with one and two targets) were recorded before loop and `if`
# control, `scanf`'s reads and such compares were fused.

SWEEP_OPERANDS = """\
int main() {
  int a, b, c;
  double d;
  scanf("%d %lf", &a, &d);
  b = 7;
  c = a + b;
  c = c - 2;
  c = 3 * c;
  c = 4 + 5;
  d = d * 2;
  d = 1.5 - d;
  c = d;
  c = a + d;
  int e = a * b;
  double f = a + 0.5;
  scanf("%lf %d", &c, &f);
  printf("%d %d %d %d %d\\n", a < b, a >= 2, 3 == b, 1 != 2, a + b);
  printf("%d %d %d %d\\n", d > a, a <= d, d == 2.5, 2 * 3);
  if (a < b) {
    c = c + 1;
  }
  while (c > 0) {
    c = c - 1;
    e = e + c;
  }
  printf("%d %d %f %f\\n", c, e, d, f);
}
"""


def _sweep_unset(stmt):
    """A program whose stdin k sets neither operand (k=0), only `a` (1),
    only `b` (2) or both (3) before `stmt`."""
    return ('int main() {\n  int k, a, b;\n  int c = 0;\n  scanf("%d", &k);\n'
            "  if (k % 2 == 1) {\n    a = k;\n  }\n"
            "  if (k > 1) {\n    b = k;\n  }\n"
            f"  {stmt}\n" '  printf("%d", c);\n}\n')


SWEEP_MISUSE = """\
int main() {
  int k;
  int x[2];
  int c = 0;
  scanf("%d", &k);
  if (k == 0) {
    c = x + 1;
  }
  if (k == 1) {
    c = 1 < x;
  }
  if (k == 2) {
    printf("%d", x * k);
  }
  if (k == 3) {
    printf("%d", k - x);
  }
}
"""

SWEEP_OVERFLOW = """\
int main() {
  int x = 9223372036854775807;
  int y = 0 - x - 1;
  int k;
  scanf("%d", &k);
  if (k == 0) {
    x = x + 1;
  }
  if (k == 1) {
    printf("%d", x + 1);
  }
  if (k == 2) {
    x = 1 + x;
  }
  if (k == 3) {
    y = y - 1;
  }
  if (k == 4) {
    double d = x + 1;
  }
  printf("%d %d", x, y);
}
"""

SWEEP_TO_INT = """\
int main() {
  double d;
  int c;
  scanf("%lf", &d);
  c = d;
  c = d * 2;
  c = 0.5 + d;
  int e = d - 1;
  scanf("%d", &d);
  c = d;
  printf("%d %d %f", c, e, d);
}
"""


# Loop bounds and `if` conditions on two leaves: int/int, int/double and a
# literal on either side; `for` with and without an init, stepped by `++`,
# `--` (on an int and a double) and by an assignment.
SWEEP_LOOPS = """\
int main() {
  int k, i, n;
  double d;
  scanf("%d", &k);
  n = k;
  d = k + 1.5;
  i = 0;
  while (i < n) {
    i++;
  }
  while (i < d) {
    i = i + 1;
  }
  while (4 > i) {
    i++;
  }
  for (i = 0; i <= 2; i = i + 1) {
    d = d - 1;
  }
  for (; d < i; d++) {
    n--;
  }
  for (i = k; i > 0; i--) {
    printf("%d ", i);
  }
  if (d > k) {
    n = n + 10;
  } else {
    n = n - 10;
  }
  if (k != i) {
    n = n * 2;
  }
  printf("%d %f", n, d);
}
"""

# An UNSET bound operand: the right one and (in a `for` with no init) the
# left one on a loop's first evaluation, and an inner loop's bound that is
# set on its first two entries and UNSET on its third.
SWEEP_LOOP_UNSET = """\
int main() {
  int k, i, j, n;
  scanf("%d", &k);
  i = 0;
  if (k > 0) {
    n = 2;
  }
  while (i < n) {
    i++;
  }
  if (k > 1) {
    j = 0;
  }
  for (; j < n; j++) {
    i--;
  }
  for (j = 0; j < k; j++) {
    int m;
    if (j < 2) {
      m = j;
    }
    for (i = 0; m > i; i++) {
      n = n + 1;
    }
  }
  printf("%d %d", i, n);
}
"""

# `++`/`--` as a `for` step: an int up to INT_MAX and down to INT_MIN, a
# double, an UNSET variable and an array.
SWEEP_STEPS = """\
int main() {
  int k;
  int u;
  int a[2];
  int x = 9223372036854775805;
  int y = 0 - x - 2;
  double d = 0.5;
  scanf("%d", &k);
  if (k == 0) {
    for (; x > 0; x++) {
    }
  }
  if (k == 1) {
    for (; y < 0; y--) {
    }
  }
  if (k == 2) {
    for (d = 0.5; d < 3; d++) {
      y = y + 1;
    }
  }
  if (k == 3) {
    for (k = 0; k < 2; u++) {
    }
  }
  if (k == 4) {
    for (k = 0; k < 2; a++) {
    }
  }
  printf("%d %d %f", x, y, d);
}
"""

# A leaf compared with `+ - *` on two leaves: UNSET `n`, `n - 1` past
# INT_MIN, and a double on either side.
SWEEP_LEAF_ARITH = """\
int main() {
  int k, i, n;
  double d = 1.5;
  scanf("%d", &k);
  i = 0;
  if (k > 0) {
    n = 4;
  }
  if (k == 2) {
    n = 0 - 9223372036854775807 - 1;
  }
  while (i < n - 1) {
    i++;
  }
  for (i = 0; i < d + n; i++) {
    d = d + 0.25;
  }
  while (d < n * 2) {
    d = d + 1;
  }
  if (1 > i - 9) {
    i = 0;
  }
  printf("%d %f", i, d);
}
"""

# scanf into two scalars, and into an array element whose index is checked
# after its token is converted.
SWEEP_SCANF = """\
int main() {
  int k, a;
  double d;
  int x[2];
  scanf("%d", &k);
  scanf("%d %lf", &a, &d);
  scanf("%lf %d", &x[k], &a);
  printf("%d %f %d", a, d, x[1]);
}
"""


def _ks(n, last_out):
    """Tests k = 0..n-1, each expecting no output but the last."""
    return [TestCase(str(k), last_out if k == n - 1 else "")
            for k in range(n)]


SWEEP_PROGRAMS = {
    "operands": (SWEEP_OPERANDS, [
        TestCase("3 2.5 4.7 9",
                 "1 1 0 1 10\n0 0 0 6\n0 31 -3.500000 9.000000"),
        TestCase("9 -1.25 0 -2",
                 "0 1 0 1 16\n0 0 0 6\n0 63 4.000000 -2.000000")]),
    "unset-compare": (_sweep_unset("c = a < b;"), _ks(4, "0")),
    "unset-arith": (_sweep_unset('printf("%d ", a - b);'), _ks(4, "0 0")),
    "unset-store": (_sweep_unset("c = a + b;"), _ks(4, "6")),
    "unset-literal": (_sweep_unset("c = 2 * b + a;"), _ks(4, "9")),
    "unset-literal-compare": (_sweep_unset("c = 0 < b && a >= 1;"),
                              _ks(4, "1")),
    "misuse": (SWEEP_MISUSE, _ks(4, "")),
    "overflow": (SWEEP_OVERFLOW,
                 _ks(6, "9223372036854775807 -9223372036854775808")),
    "to-int": (SWEEP_TO_INT, [TestCase("2.75 5", "5 1 5.000000"),
                              TestCase("1e30 1", ""),
                              TestCase("-3.5 -7", "-7 -4 -7.000000")]),
    "pair-while": (PAIR_WHILE, [TestCase("3", "6"), TestCase("0", "0")]),
    "loops": (SWEEP_LOOPS, [TestCase("0", "5 3.500000"),
                            TestCase("2", "2 1 18 3.500000"),
                            TestCase("3", "3 2 1 22 3.500000")]),
    "loop-unset": (SWEEP_LOOP_UNSET, _ks(4, "")[:2]
                   + [TestCase("2", "1 3"), TestCase("3", "")]),
    "steps": (SWEEP_STEPS, _ks(6, "9223372036854775805 "
                                  "-9223372036854775807 0.500000")),
    "leaf-arith": (SWEEP_LEAF_ARITH, _ks(3, "0 8.500000")),
    "if-unset": (_sweep_unset("if (a < b) {\n    c = 1;\n  }\n"
                              "  if (b <= a) {\n    c = c + 2;\n"
                              "  } else {\n    c = c + 4;\n  }"),
                 _ks(4, "2")),
    "scanf": (SWEEP_SCANF, [TestCase("1 2 3.5 4.5 6", "6 3.500000 4"),
                            TestCase("5 2 3.5 4.5 6", ""),
                            TestCase("1 2", ""), TestCase("1 x 2", ""),
                            TestCase("1 2 y", "")]),
}

# Program -> (budgets swept, sha256 of the sweep).
SWEEP_PINNED = {
    "if-unset": (
        34, "768d89d65f627f4c1e23c0591d9be2f6b87a5d0e90ca5938f5063d1b7157b875"),
    "leaf-arith": (
        192, "839e25caeeab0207b7afc002c65e8163cc87d61f860f297c06390d56f6c76c25"),
    "loop-unset": (
        103, "80d6b3e3f994579b575fcc43c6a1184226f28bc63e683cd50ae1d3652fca9de1"),
    "loops": (
        147, "3321463d329e93700aaa6b7dc57118dc4159c3ee0d7fb36813393aa98eae6d38"),
    "misuse": (
        25, "63706ed06482ee566ae096546647194fe938c70af37ce43fa7fb4548cc79f7fa"),
    "operands": (
        147, "56d308ea849746f990dcb818c3e0112ff4086ea0c4ff969a7097c9d7b210838f"),
    "overflow": (
        34, "4a71bfcb450ae6b05fb3e2396be977df1998214411e28fcd332ac522e6dc36a9"),
    "pair-while": (
        37, "ad97c2154747ff5a376a53c4217c941cefa0feb5d84fd26e55319a597cf81383"),
    "scanf": (
        13, "83a35f95f56fc2b5dc5db8bae0b1aebf40716a1f7df8c45767075335d1c00045"),
    "steps": (
        68, "2068c804d3d76bfc0e25e68f5aecd049aae3df725bb0fa34a43967fd4e70e8f3"),
    "to-int": (
        24, "4233e3ec363904922d015640c6ce4f674516b6ab323d4399e517d6b9e236818b"),
    "unset-arith": (
        26, "ba1bc7c29a69a4904bcbe742836255fc4c1028bd2d4f3c3d5e383c1ab56dd480"),
    "unset-compare": (
        26, "ba1bc7c29a69a4904bcbe742836255fc4c1028bd2d4f3c3d5e383c1ab56dd480"),
    "unset-literal": (
        28, "81af23cf036bfc9a6e6641eaeae6ce47362dbaebb1838337d6cc443f7e83ea6a"),
    "unset-literal-compare": (
        30, "c5ccd75e8013fcf583506b7f0ce0c6cce94e1e2e77aa279bb1ffa3665c7983ba"),
    "unset-store": (
        26, "ba1bc7c29a69a4904bcbe742836255fc4c1028bd2d4f3c3d5e383c1ab56dd480"),
}


def _sweep(src, tests, last=1000):
    """Sweeps at most `last` budgets, so a tracer that never lets the
    program finish fails the pin instead of hanging."""
    tree = parse(src)
    runs = []
    for max_steps in range(1, last + 1):
        log, verdicts = run_suite(tree, tests, max_steps)
        runs.append((verdicts, log.errors))
        if not any(e.startswith("step-limit") for e in log.errors):
            break
    return len(runs), hashlib.sha256(json.dumps(runs).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SWEEP_PROGRAMS))
def test_step_budget_sweep_matches_recorded_digest(name):
    assert _sweep(*SWEEP_PROGRAMS[name]) == SWEEP_PINNED[name]


# At every budget, up to a few past the most steps a test takes, a run in
# which loops tier gives what the closures alone give.
_REPLAY_NAMES = sorted(SWEEP_PROGRAMS) + [f"gen{seed}" for seed in range(40)]


@functools.cache
def _replay_case(name):
    """(tree, tests, the most steps a test takes) of a sweep program or a
    `gen_program` seed."""
    if name in SWEEP_PROGRAMS:
        src, tests = SWEEP_PROGRAMS[name]
    else:
        src, n_inputs = gen_program(int(name[3:]))
        tests = gen_suite(int(name[3:]), n_inputs)
    tree = parse(src)
    return tree, tests, fewest_steps(tree, tests)


# Every loop is handed to its compiled function after one or two
# iterations, so the short loops of these programs run tiered too, or after
# HOT_ITERS, which they never reach. The tier's guard stops a run of inline
# statements that would pass max_steps at the exact node, so each suite
# compiles one program and runs each test once.
def test_tiered_run_equals_untiered_run(monkeypatch):
    tiered = []
    untiered = []  # the draws in which no loop tiered
    programs = []
    hot_loop, program = tracer._hot_loop, tracer._Program
    monkeypatch.setattr(tracer, "_hot_loop",
                        lambda *plan: tiered.append(plan) or hot_loop(*plan))
    monkeypatch.setattr(tracer, "_Program",
                        lambda *args: programs.append(args) or program(*args))

    # A flat strategy draws far faster than a `flatmap` on the program; the
    # budget is 1 to 5 steps past the most a test takes.
    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(st.tuples(st.sampled_from(_REPLAY_NAMES), st.integers(0, 2**16),
                     st.sampled_from([1, 2, tracer.HOT_ITERS])))
    def check(case):
        name, k, hot_iters = case
        tree, tests, most = _replay_case(name)
        max_steps = 1 + k % (most + 5)
        before = len(tiered), len(programs)
        with monkeypatch.context() as patch:
            patch.setattr(tracer, "HOT_ITERS", hot_iters)
            log, verdicts = run_suite(tree, tests, max_steps, record=True)
        assert len(programs) == before[1] + 1
        untiered_log, untiered_verdicts = untiered_suite(tree, tests,
                                                         max_steps)
        assert verdicts == untiered_verdicts
        assert log.errors == untiered_log.errors
        assert log.to_json() == untiered_log.to_json()
        if len(tiered) == before[0]:
            untiered.append(case)

    check()
    assert len(untiered) > 300, len(untiered)
    assert len(tiered) > 300, len(tiered)
