"""Tree-walking interpreter and trace-collection tests."""

import gc
import inspect
import json
import random
import sys
import tracemalloc

import pytest

from invclust import cli, tracer
from invclust.errors import CSyntaxError, UnresolvedIdentifier
from invclust.invariants import PointSummary
from invclust.parser import parse
from invclust.renamer import rename
from invclust.tracer import (MAX_CALL_DEPTH, TestCase, TraceLog,
                             _Program, execute, normalize_output, run_suite)

from conftest import (LEFT_SRC, RIGHT_SRC, SNAPSHOT_EDGE_PROGRAMS,
                      fewest_steps, sum_suite, untiered_suite)


def _renamed(src):
    renamed, _ = rename(parse(src))
    return renamed


def _loop_body_point(log):
    pts = [p for p, k in log.point_kinds.items() if k == "loop-body"]
    assert len(pts) == 1
    return pts[0]


def test_left_program_stdin_3():
    log, stdout, verdict = execute(_renamed(LEFT_SRC), TestCase("3\n", "6"))
    assert stdout == "6"
    assert verdict == "pass"
    snaps = log.snapshots()[_loop_body_point(log)]
    assert [s["int2"] for s in snaps] == [0, 1, 2]


def test_uninitialized_read_is_error():
    tree = parse('int main() {\n  int a;\n  printf("%d", a);\n}\n')
    log, stdout, verdict = execute(tree, TestCase("", ""))
    assert verdict == "error"
    assert any("uninitialized-read" in e for e in log.errors)


def test_infinite_loop_hits_step_limit(monkeypatch):
    monkeypatch.setattr(tracer, "MAX_LOOP_ITERS", 1000)
    tree = parse("int main() {\n  while (1) {\n  }\n}\n")
    log, stdout, verdict = execute(tree, TestCase("", ""))
    assert verdict == "error"
    assert any("step-limit" in e for e in log.errors)


def test_python_stack_overflow_is_call_depth_error():
    tree = parse("int f(int n) {\n  return f(n + 1);\n}\n\n"
                 "int main() {\n  f(0);\n}\n")
    log, _, verdict = execute(tree, TestCase("", ""))
    assert verdict == "error"
    assert log.errors == ["step-limit at f/entry: call depth"]


# main calls f(n), which recurses down to f(0): n + 2 calls at once.
_RECURSE_N = ("int f(int n) {\n  if (n == 0) {\n    return 0;\n  }\n"
              "  return f(n - 1) + 1;\n}\n\n"
              'int main() {\n  int n;\n  scanf("%d", &n);\n'
              '  printf("%d", f(n));\n}\n')


def _nested(frames, fn):
    return fn() if frames == 0 else _nested(frames - 1, fn)


def _recurse_test(depth):
    n = depth - 2
    return TestCase(f"{n}\n", str(n))


def _tight_frames():
    """Caller frames as deep as leaves its caller 30 frames above the two
    that each of MAX_CALL_DEPTH direct calls takes, so that one frame more
    per call overflows Python's stack first."""
    caller_stack = len(inspect.stack(0)) - 1
    return (sys.getrecursionlimit() - caller_stack - 2 * MAX_CALL_DEPTH
            - 30)


@pytest.mark.parametrize("caller_frames",
                         [0, 200, pytest.param(None, id="tight")])
def test_call_depth_cap_is_the_limit(caller_frames):
    tree = parse(_RECURSE_N)
    if caller_frames is None:
        caller_frames = _tight_frames()

    def run(depth, max_steps=None):
        return execute(tree, _recurse_test(depth), max_steps)

    log, _, verdict = _nested(caller_frames, lambda: run(MAX_CALL_DEPTH))
    assert verdict == "pass"
    log, _, verdict = _nested(caller_frames,
                              lambda: run(MAX_CALL_DEPTH + 1))
    assert verdict == "error"
    assert log.errors == ["step-limit at f/entry: call depth"]
    assert len(log.samples["f/entry"]) == MAX_CALL_DEPTH - 1
    # One step short, it recurses to the cap all the same, and stops at
    # the last step, the outer `+ 1`.
    total = fewest_steps(tree, [_recurse_test(MAX_CALL_DEPTH)])
    log, _, verdict = _nested(
        caller_frames,
        lambda: run(MAX_CALL_DEPTH, total - 1))
    assert verdict == "error"
    assert log.errors == ["step-limit at f/exit"]
    assert len(log.samples["f/entry"]) == MAX_CALL_DEPTH - 1


# Closures check the limit as they count their steps, so a run past it
# stops there, however long the program would run on.
_TREE_RECURSION = ("void f(int n) {\n  if (n > 0) {\n    f(n - 1);\n"
                   "    f(n - 1);\n  }\n}\n\nint main() {\n  f(16);\n}\n")


@pytest.mark.parametrize("src,pid", [
    ("int main() {\n  int i = 0;\n  int n = 1000000000;\n"
     "  while (i < n) {\n    i = i + 1;\n  }\n}\n", "main/loop0/body"),
    (_TREE_RECURSION, "f/entry"),
])
def test_fast_run_past_the_limit_stops_soon(src, pid):
    log, verdicts = run_suite(parse(src), [TestCase("", "")],
                              1000, record=True)
    assert verdicts == ["error"]
    stop = "f/exit" if src == _TREE_RECURSION else pid
    assert log.errors == [f"step-limit at {stop}"]
    assert len(log.points[pid]) > 100


def test_python_stack_overflow_below_the_cap_is_call_depth_error():
    # Each call sits under 40 additions, so it is charged 41 frames, and
    # f's own body nests 44 (its call, the call's arguments, `n + 1` and
    # `n`). With main's 1 and its `f(0);` 2, f is entered 10 times:
    # 3 + 9 * 41 + 44 = 416 <= _MAX_FRAMES < 457.
    expr = "1 + (" * 40 + "f(n + 1)" + ")" * 40
    tree = parse("int f(int n) {\n  return " + expr + ";\n}\n\n"
                 "int main() {\n  f(0);\n}\n")
    log, _, verdict = execute(tree, TestCase("", ""))
    assert verdict == "error"
    assert log.errors == ["step-limit at f/entry: call depth"]
    assert len(log.samples["f/entry"]) == 10


def test_error_in_a_call_from_nested_blocks():
    src = ("int f(int n) {\n  return 1 / n;\n}\n\n"
           "int main() {\n  int i = 0;\n  while (i < 1) {\n"
           "    if (i == 0) {\n      printf(\"%d\", f(0));\n    }\n"
           "    i++;\n  }\n}\n")
    log, _, verdict = execute(parse(src), TestCase("", ""))
    assert verdict == "error"
    assert log.errors == ["div-by-zero at f/entry"]


def test_div_by_zero():
    tree = parse('int main() {\n  int a = 0;\n  printf("%d", 1 / a);\n}\n')
    _, _, verdict = execute(tree, TestCase("", ""))
    assert verdict == "error"


def test_integer_overflow_trapped():
    src = ("int main() {\n  int x = 9223372036854775807;\n"
           "  x = x + 1;\n}\n")
    log, _, verdict = execute(parse(src), TestCase("", ""))
    assert verdict == "error"
    assert any("integer-overflow" in e for e in log.errors)


_OVERFLOWED = "  double x = 1e300;\n  x = x * x;\n"


@pytest.mark.parametrize("src", [
    "int main() {\n" + _OVERFLOWED + "  int y = x;\n}\n",
    "int main() {\n" + _OVERFLOWED + '  printf("%d", x);\n}\n',
    "int main() {\n" + _OVERFLOWED + '  printf("%d", x - x);\n}\n',
    "int main() {\n" + _OVERFLOWED + "  int a[2];\n  a[0] = x - x;\n}\n",
    "int f(int a) {\n  return a;\n}\n\nint main() {\n" + _OVERFLOWED
    + "  f(x);\n}\n",
], ids=["store-inf", "printf-inf", "printf-nan", "array-nan", "param-inf"])
def test_non_finite_double_to_int_is_integer_overflow(src):
    log, _, verdict = execute(parse(src), TestCase("", ""))
    assert verdict == "error"
    assert len(log.errors) == 1
    assert log.errors[0].startswith("integer-overflow at ")


@pytest.mark.parametrize("store", ["  int y = x;\n", '  printf("%d", x);\n'],
                         ids=["store", "printf"])
def test_finite_double_beyond_int_range_is_integer_overflow(store):
    src = "int main() {\n  double x = 1e30;\n" + store + "}\n"
    log, _, verdict = execute(parse(src), TestCase("", ""))
    assert verdict == "error"
    assert log.errors == ["integer-overflow at main/entry"]


def test_printf_d_of_double_at_int_min():
    # The literal rounds to -2**63 as a double: in range, so it prints.
    src = ('int main() {\n  double x = -9223372036854775809.0;\n'
           '  printf("%d", x);\n}\n')
    log, stdout, _ = execute(parse(src), TestCase("", ""))
    assert log.errors == []
    assert stdout == "-9223372036854775808"


def test_scanf_exhausted():
    tree = parse('int main() {\n  int a;\n  scanf("%d", &a);\n}\n')
    log, _, verdict = execute(tree, TestCase("", ""))
    assert verdict == "error"
    assert any("scanf-exhausted" in e for e in log.errors)


def test_array_out_of_bounds():
    tree = parse("int main() {\n  int a[2];\n  a[5] = 1;\n}\n")
    log, _, verdict = execute(tree, TestCase("", ""))
    assert verdict == "error"
    assert any("array-out-of-bounds" in e for e in log.errors)


@pytest.mark.parametrize("stmt", ["a++;", "--a;", "a = 1;", "int b = a;",
                                  'printf("%d", a);', 'scanf("%d", &a);'])
def test_array_used_as_scalar_is_type_error(stmt):
    tree = parse("int main() {\n  int a[2];\n  " + stmt + "\n}\n")
    log, _, verdict = execute(tree, TestCase("1\n", ""))
    assert verdict == "error"
    assert log.errors == ["type-error at main/entry: array 'a' used as scalar"]


@pytest.mark.parametrize("stmt", ["x[0] = 1;", "int y = x[0];",
                                  'scanf("%d", &x[0]);'])
def test_scalar_indexed_is_type_error(stmt):
    tree = parse("int main() {\n  int x;\n  " + stmt + "\n}\n")
    log, _, verdict = execute(tree, TestCase("1\n", ""))
    assert verdict == "error"
    assert log.errors == ["type-error at main/entry: 'x' is not an array"]


# A misuse, and the steps a run takes up to and including it: the misused
# node counts its own and its ancestors' steps before it fails, and a store
# counts none (the value stored counts its own).
@pytest.mark.parametrize("body,steps", [
    ("int a[2];\n  int b = a;", 3),
    ("int a[2];\n  a++;", 2),
    ("int x = 0;\n  int y = x[0];", 4),
    ("int x = 0;\n  x[1] = 1;", 4),
    ("int x = 0;\n  x[0] = 1;", 4),
    ("int a[2];\n  int b = a + 1;", 4),
    ("int a[2];\n  int b = 1 < a;", 5),
    ("int a[2];\n  int b = 0;\n  b = 2 * a;", 7),
    ('int a[2];\n  printf("%d", a - 1);', 4),
])
def test_misuse_counts_its_steps_before_failing(body, steps):
    tree = parse("int main() {\n  " + body + "\n}\n")
    log, _, _ = execute(tree, TestCase("", ""), steps - 1)
    assert log.errors == ["step-limit at main/entry"]
    log, _, _ = execute(tree, TestCase("", ""), steps)
    misuse = ("'x' is not an array" if body.startswith("int x")
              else "array 'a' used as scalar")
    assert log.errors == [f"type-error at main/entry: {misuse}"]


# An operand that is unset fails its read, after its own steps and before
# the right operand's; with both unset, the left one is named.
@pytest.mark.parametrize("setup,stmt,name", [
    ("a = 1;", 'printf("%d", a < b);', "b"),
    ("", 'printf("%d", a < b);', "a"),
    ("b = 1;", 'printf("%d", a < b);', "a"),
    ("a = 1;", 'printf("%d", 1 < b);', "b"),
    ("", "b = a + 1;", "a"),
    ("a = 1;", "b = a * b;", "b"),
    ("b = 1;", "a = b - a;", "a"),
])
def test_unset_operand_is_named(setup, stmt, name):
    src = "int main() {\n  int a, b;\n  " + setup + "\n  " + stmt + "\n}\n"
    log, _, verdict = execute(parse(src), TestCase("", ""))
    assert verdict == "error"
    assert log.errors == [f"uninitialized-read at main/entry: {name}"]


# C converts an int compared with a double to double; 2**53 + 1 rounds to
# 2**53. gcc 12.2 prints the same lines for the program with `long a`.
def test_int_compared_with_double_is_converted_first():
    src = ("int main() {\n  int a = 9007199254740993;\n"
           "  double d = 9007199254740992.0;\n"
           '  printf("%d %d %d\\n", a == d, a > d, a != d);\n'
           '  printf("%d %d %d\\n", d == a, d < a, 9007199254740993 <= d);\n'
           '  printf("%d %d %d\\n", a + 0 == d, d < a * 1, a - 0 != d + 0);\n'
           "}\n")
    log, stdout, _ = execute(parse(src), TestCase("", ""))
    assert (stdout, log.errors) == ("1 0 0\n1 0 1\n1 0 0\n", [])


def _printed(expr, max_steps=None):
    tree = parse('int main() {\n  printf("%d", ' + expr + ");\n}\n")
    return execute(tree, TestCase("", ""), max_steps)


@pytest.mark.parametrize("expr,printed", [
    ("!5", "0"), ("!0", "1"), ("!0.5", "0"),
    ("3 && 0 - 2", "1"), ("3 && 0", "0"), ("0 && 3", "0"),
    ("0 || 7", "1"), ("0 || 0", "0"), ("0.5 || 0", "1"),
])
def test_logical_operators_yield_0_or_1(expr, printed):
    log, stdout, _ = _printed(expr)
    assert (stdout, log.errors) == (printed, [])


# The printf statement, the operator and its left operand take 3 steps; the
# skipped right operand would take 3 more, and divide by zero.
@pytest.mark.parametrize("expr,printed", [("0 && 1 / 0", "0"),
                                          ("1 || 1 / 0", "1")])
def test_short_circuit_skips_the_right_operand_and_its_steps(expr, printed):
    log, _, _ = _printed(expr, 2)
    assert log.errors == ["step-limit at main/entry"]
    log, stdout, _ = _printed(expr, 3)
    assert (stdout, log.errors) == (printed, [])


def test_bare_return_skips_the_rest_and_snapshots_the_exit():
    src = ('void f(int n) {\n  if (n > 0) {\n    return;\n  }\n'
           '  printf("f");\n}\n\n'
           'int main() {\n  int x = 1;\n  f(x);\n  printf("a");\n'
           '  return;\n  x = 2;\n  printf("b");\n}\n')
    log, stdout, verdict = execute(parse(src), TestCase("", "a"))
    assert (stdout, verdict, log.errors) == ("a", "pass", [])
    snaps = log.snapshots()
    assert snaps["f/exit"] == [{"n": 1}]
    assert snaps["main/exit"] == [{"x": 1}]


def test_undeclared_name_is_rejected_before_any_test_runs():
    # The branch is never taken, and a raw tree has not been renamed.
    src = ("int main() {\n  int x = 0;\n  if (x > 0) {\n    y = 1;\n"
           "  }\n}\n")
    with pytest.raises(UnresolvedIdentifier) as traced:
        run_suite(parse(src), [TestCase("", "")])
    assert (traced.value.name, traced.value.line) == ("y", 4)
    with pytest.raises(UnresolvedIdentifier) as renamed:
        rename(parse(src))
    assert str(traced.value) == str(renamed.value)


# With two names undeclared, the tracer names the one the renamer does: an
# assignment's target is resolved before its value.
@pytest.mark.parametrize("stmt", ["y = z;", "y = z + 1;", "y = 1 < z;"])
def test_assignment_target_is_resolved_first(stmt):
    src = "int main() {\n  " + stmt + "\n}\n"
    with pytest.raises(UnresolvedIdentifier) as traced:
        run_suite(parse(src), [TestCase("", "")])
    with pytest.raises(UnresolvedIdentifier) as renamed:
        rename(parse(src))
    assert traced.value.name == "y"
    assert str(traced.value) == str(renamed.value)


# The raw and the renamed tree read the same variable: the one declared.
@pytest.mark.parametrize("src,raw_error,renamed_error", [
    ("int main() {\n  int x = x + 1;\n}\n",
     "uninitialized-read at main/entry: x",
     "uninitialized-read at main/entry: int0"),
    ("int main() {\n  int x = 1;\n  {\n    int x = x + 1;\n  }\n}\n",
     "uninitialized-read at main/block0: x",
     "uninitialized-read at main/block0: int1"),
    ("int main() {\n  int a[2];\n  int a = a;\n}\n",
     "uninitialized-read at main/entry: a",
     "uninitialized-read at main/entry: int0"),
])
def test_a_declaration_is_in_scope_in_its_own_initializer(src, raw_error,
                                                          renamed_error):
    raw, _, _ = execute(parse(src), TestCase("", ""))
    renamed, _, _ = execute(_renamed(src), TestCase("", ""))
    assert (raw.errors, renamed.errors) == ([raw_error], [renamed_error])


def test_single_test_suite_equals_execute():
    tree = _renamed(LEFT_SRC)
    test = TestCase("4\n", "10")
    log1, stdout, verdict = execute(tree, test)
    log2, verdicts = run_suite(tree, [test], record=True)
    assert verdicts == [verdict] == ["pass"]
    assert log1.to_json() == log2.to_json()


def test_suite_snapshot_counts():
    log, verdicts = run_suite(_renamed(LEFT_SRC), sum_suite((1, 2, 5)))
    assert verdicts == ["pass"] * 3
    assert len(log.samples[_loop_body_point(log)]) == 1 + 2 + 5


def test_unrecorded_trace_keeps_no_snapshots():
    log, _ = run_suite(_renamed(LEFT_SRC), sum_suite())
    assert all(not point.flat for point in log.points.values())
    assert log.outputs == []
    with pytest.raises(ValueError):
        log.to_json()


def _recorded_edge_program(name):
    log, _, _ = execute(parse(SNAPSHOT_EDGE_PROGRAMS[name]), TestCase("", ""))
    return log


# As in C, the inner `a` hides the outer one, so a snapshot taken before
# the inner `a` is set lacks `a`; renamed, the two are separate columns.
def test_inner_declaration_hides_the_outer_name():
    snaps = _recorded_edge_program("shadow").snapshots()
    assert snaps["main/loop0/body/if0/then"] == [{"i": 2}, {"i": 3}]
    assert snaps["main/loop0/body/block1"] == [
        {"i": 0}, {"i": 1}, {"a": 20, "i": 2}, {"a": 30, "i": 3}]
    log, _, _ = execute(_renamed(SNAPSHOT_EDGE_PROGRAMS["shadow"]),
                        TestCase("", ""))
    assert log.points["main/loop0/body/if0/then"].names == [
        "int0", "int1", "int2"]
    assert log.snapshots()["main/loop0/body/if0/then"] == [
        {"int0": 1, "int1": 2}, {"int0": 1, "int1": 3}]


def test_exit_point_schema_is_the_union_of_its_returns():
    log = _recorded_edge_program("returns")
    assert log.samples["f/exit"].names == ["n", "m", "k"]
    assert log.snapshots()["f/exit"] == [
        {"n": -2}, {"n": -1}, {"n": 0, "m": 0, "k": 1},
        {"n": 1, "m": 2, "k": 3}, {"n": 2, "m": 4, "k": 5},
        {"n": 3, "m": 6}, {"n": 4, "m": 8}]


def test_two_blocks_on_one_line_are_two_points():
    snaps = _recorded_edge_program("one-line").snapshots()
    assert snaps["main/loop0/body/block0"][:2] == [
        {"a": 0, "i": 0}, {"a": -10, "i": 1}]
    assert snaps["main/loop0/body/block1"][:2] == [
        {"a": 0, "i": 0, "t": 0}, {"a": -9, "i": 1, "t": -9}]
    assert snaps["main/loop0/body/block0/block0"][:2] == [
        {"a": 0, "i": 0, "b": 0}, {"a": -10, "i": 1, "b": 1}]
    assert snaps["main/loop0/body/block1/block0"][:2] == [
        {"a": 0, "i": 0, "b": 10, "t": 0},
        {"a": -9, "i": 1, "b": 11, "t": -9}]


@pytest.mark.parametrize("name,kinds", [
    ("returns", {"f/entry": "function-entry", "f/exit": "function-exit",
                 "f/if0/then": "then-block", "f/if1/then": "then-block",
                 "main/entry": "function-entry", "main/exit": "function-exit",
                 "main/loop0/body": "loop-body"}),
    ("one-line", {"main/entry": "function-entry", "main/exit": "function-exit",
                  "main/loop0/body": "loop-body",
                  "main/loop0/body/block0": "plain-block",
                  "main/loop0/body/block0/block0": "plain-block",
                  "main/loop0/body/block1": "plain-block",
                  "main/loop0/body/block1/block0": "plain-block"}),
])
def test_point_kind_is_the_last_segment_of_its_id(name, kinds):
    log = _recorded_edge_program(name)
    assert log.point_kinds == kinds
    assert json.loads(log.to_json())["point_kinds"] == kinds


_COUNT_TO_N = ('int main() {\n  int n;\n  int i;\n  scanf("%d", &n);\n'
               "  for (i = 0; i < n; i++) {\n  }\n}\n")


def _peak_trace_bytes(tree, n):
    tracemalloc.start()
    try:
        log, verdicts = run_suite(tree, [TestCase(f"{n}\n", "")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts == ["pass"]
    assert len(log.samples["main/loop0/body"]) == n
    return peak


def test_trace_memory_does_not_grow_with_the_loop():
    tree = parse(_COUNT_TO_N)
    short, long = (_peak_trace_bytes(tree, n) for n in (100_000, 400_000))
    assert long - short < 2 * 2**20


def test_failing_suite_still_traces():
    wrong = [TestCase("3\n", "999")]
    log, verdicts = run_suite(_renamed(LEFT_SRC), wrong)
    assert verdicts == ["fail"]
    assert log.samples


def test_semantics_spot_check_both_programs():
    for src in (LEFT_SRC, RIGHT_SRC):
        tree = _renamed(src)
        for n in range(7):
            _, stdout, verdict = execute(
                tree, TestCase(f"{n}\n", f"{n * (n + 1) // 2}"))
            assert stdout == str(n * (n + 1) // 2), (src[:20], n)
            assert verdict == "pass"


def test_trace_determinism():
    a, _ = run_suite(_renamed(RIGHT_SRC), sum_suite(), record=True)
    b, _ = run_suite(_renamed(RIGHT_SRC), sum_suite(), record=True)
    assert a.to_json() == b.to_json()


def test_double_printf_six_decimals():
    src = ('int main() {\n  double x = 1.5;\n  printf("%f", x);\n}\n')
    _, stdout, _ = execute(parse(src), TestCase("", ""))
    assert stdout == "1.500000"


def test_scanf_lf_reads_double():
    src = ('int main() {\n  double x;\n  scanf("%lf", &x);\n'
           '  printf("%lf", x + 0.25);\n}\n')
    _, stdout, verdict = execute(parse(src), TestCase("2.5\n", "2.750000"))
    assert stdout == "2.750000" and verdict == "pass"


def test_truncating_division_and_mod():
    src = ('int main() {\n  printf("%d", 0 - (7 / 2) + 100 * (7 % 2));\n}\n')
    _, stdout, _ = execute(parse(src), TestCase("", ""))
    assert stdout == "97"


def test_trailing_whitespace_normalization():
    assert normalize_output("6 \n") == normalize_output("6")
    assert normalize_output("1\n2  \n") == normalize_output("1\n2\n")
    assert normalize_output("12") != normalize_output("1\n2")


def test_user_function_call_and_points():
    src = ("int twice(int v) {\n  return v + v;\n}\n"
           "int main() {\n  int x = 0;\n  x = twice(21);\n"
           '  printf("%d", x);\n}\n')
    log, stdout, verdict = execute(parse(src), TestCase("", "42"))
    assert verdict == "pass"
    kinds = set(log.point_kinds.values())
    assert "function-entry" in kinds and "function-exit" in kinds
    assert any(p.startswith("twice/") for p in log.samples)


def test_branch_points_recorded():
    src = ("int main() {\n  int x = 1;\n  if (x > 0) {\n    x = 2;\n"
           "  } else {\n    x = 3;\n  }\n}\n")
    log, _, _ = execute(parse(src), TestCase("", ""))
    assert "then-block" in log.point_kinds.values()
    assert "else-block" not in log.point_kinds.values()


# --- the tier: a loop past HOT_ITERS iterations runs in compiled source ---

@pytest.fixture
def compiled(monkeypatch):
    """The node of each loop tiered while the test runs: a node holds no
    compiled closure, so the spy keeps no program alive."""
    tiers = []
    hot_loop = tracer._hot_loop
    monkeypatch.setattr(tracer, "_hot_loop",
                        lambda *args: tiers.append(args[0]) or hot_loop(*args))
    return tiers


def _tiered_equals_untiered(compiled, tree, tests, max_steps=None):
    """Runs the suite recorded and not, asserts that a loop tiered, and
    that both runs give what the closures alone give. Returns the recorded
    log."""
    before = len(compiled)
    log, verdicts = run_suite(tree, tests, max_steps, record=True)
    # Unrecorded, the points fold their snapshots every FOLD_STEPS steps.
    folded, folded_verdicts = run_suite(tree, tests, max_steps)
    assert len(compiled) > before
    untiered = untiered_suite(tree, tests, max_steps)
    assert (log.to_json(), verdicts) == (untiered[0].to_json(), untiered[1])
    assert (folded.errors, folded_verdicts) == (log.errors, verdicts)
    assert ({pid: p.summary.invariants() for pid, p in folded.samples.items()}
            == {pid: p.summary.invariants() for pid, p in log.samples.items()})
    return log


_LONG = 3000  # iterations of the loops below, past HOT_ITERS


def _counting(body, decls="", after=""):
    """main with a loop of _LONG iterations over i, running `body`."""
    return ("int main() {\n  int i = 0;\n  int s = 0;\n" + decls
            + f"  while (i < {_LONG}) {{\n    {body}\n    i++;\n  }}\n"
            + after + '  printf("%d", s);\n}\n')


# Each fails 2,000 iterations in, in the tier.
@pytest.mark.parametrize("src,stdin,error", [
    (_counting("s = s + i;\n    if (i == 2000) {\n      s = s + u;\n    }",
               "  int u;\n"), "",
     "uninitialized-read at main/loop0/body/if0/then: u"),
    (_counting("if (i == 2000) {\n      s = u < w;\n    }", "  int u, w;\n"),
     "", "uninitialized-read at main/loop0/body/if0/then: u"),
    (_counting("if (i == 2000) {\n      s = 9223372036854775808;\n    }"),
     "", "integer-overflow at main/loop0/body/if0/then"),
    (_counting("x = x + 1;", "  int x = 9223372036854775807 - 2000;\n"), "",
     "integer-overflow at main/loop0/body"),
    (_counting("x++;", "  int x = 9223372036854775807 - 2000;\n"), "",
     "integer-overflow at main/loop0/body"),
    (_counting('scanf("%d", &s);'), " ".join(["7"] * 2000),
     "scanf-exhausted at main/loop0/body"),
    (_counting('scanf("%d", &s);'), " ".join(["7"] * 2000 + ["x", "7"]),
     "scanf-exhausted at main/loop0/body: bad input token 'x'"),
    (_counting('scanf("%d", &s);'),
     " ".join(["7"] * 2000 + ["9223372036854775808"]),
     "integer-overflow at main/loop0/body"),
], ids=["unset", "unset-compare", "literal-overflow", "overflow",
        "overflow-incr", "exhausted", "bad-token", "token-overflow"])
def test_error_in_the_tier_is_the_exact_one(compiled, src, stdin, error):
    log = _tiered_equals_untiered(compiled, parse(src), [TestCase(stdin, "")])
    assert log.errors == [error]


def test_loop_iteration_cap_in_the_tier(compiled, monkeypatch):
    monkeypatch.setattr(tracer, "MAX_LOOP_ITERS", 2000)
    log = _tiered_equals_untiered(compiled, parse(_counting("s = s + i;")),
                                  [TestCase("", "")])
    assert log.errors == ["step-limit at main/loop0/body: loop iterations"]


# Near the limit the tier hands the execution back, and the closures stop
# at the exact node: at each of 16 budgets in a row, which stop at every
# node of an iteration, and at the last two.
def test_step_limit_in_the_tier_is_the_exact_one(compiled):
    tree = parse(_counting('scanf("%d", &x);\n    if (x > s) {\n'
                           "      s = x;\n    }\n"
                           "    if (x % 2 == 0) {\n      x = 0;\n    }",
                           "  int x;\n"))
    tests = [TestCase(" ".join(map(str, range(_LONG))), str(_LONG - 1))]
    total = fewest_steps(tree, tests)
    stops = set()
    for max_steps in (*range(total // 2, total // 2 + 16), total - 1, total):
        log = _tiered_equals_untiered(compiled, tree, tests, max_steps)
        assert len(log.errors) == (max_steps < total)
        assert all(e.startswith("step-limit at ") for e in log.errors)
        stops.update(log.errors)
    assert stops == {"step-limit at main/loop0/body",
                     "step-limit at main/loop0/body/if0/then"}


def _spy_hand_backs(monkeypatch):
    """The iterations at which each tier compiled from now on hands its
    loop's execution back to the closure, in order."""
    backs = []
    hot_loop = tracer._hot_loop

    def spy(*plan):
        tier = hot_loop(*plan)

        def run(st, v, iters):
            try:
                return tier(st, v, iters)
            except tracer._HandBack as back:
                backs.append(back.args[0])
                raise
        return run
    monkeypatch.setattr(tracer, "_hot_loop", spy)
    return backs


# Near the limit the tier's one guard at the head of an iteration hands
# the execution back, and the closures stop at the exact node: at each of
# 40 budgets in a row, over more than two iterations, so at every node of
# an iteration through either arm of its if/else.
def test_step_limit_sweep_through_an_if_else(compiled, monkeypatch):
    tree = parse(_counting('scanf("%d", &x);\n    if (x > 0) {\n'
                           "      s = s + x;\n    } else {\n"
                           "      s = s - 1;\n    }", "  int x;\n"))
    tests = [TestCase(" ".join(["1", "-1"] * (_LONG // 2)), "0")]
    total = fewest_steps(tree, tests)
    backs = _spy_hand_backs(monkeypatch)
    stops = set()
    for max_steps in range(total // 2, total // 2 + 40):
        log = _tiered_equals_untiered(compiled, tree, tests, max_steps)
        assert len(log.errors) == 1
        stops.update(log.errors)
    assert stops == {"step-limit at main/loop0/body",
                     "step-limit at main/loop0/body/if0/then",
                     "step-limit at main/loop0/body/if0/else"}
    assert len(backs) == 2 * 40  # once a budget, recorded and not
    assert all(tracer.HOT_ITERS < n < _LONG for n in backs)


# The head's guard covers the arm with no call of an if/else whose other
# arm calls: at each of 24 budgets in a row up to and past the `scanf`
# that finds stdin empty, the run stops where the closures alone stop, at
# the step limit or at the exhausted `scanf`.
def test_step_limit_sweep_where_one_arm_calls(compiled, monkeypatch):
    tree = parse(_counting('if (i < 0) {\n      printf("%d", i);\n'
                           '    } else {\n      scanf("%d", &y);\n    }',
                           "  int y;\n"))
    tests = [TestCase(" ".join(["7"] * 2000), "")]
    total = fewest_steps(tree, tests)  # where the 2001st scanf stops
    backs = _spy_hand_backs(monkeypatch)
    stops = set()
    for max_steps in range(total - 22, total + 2):
        log = _tiered_equals_untiered(compiled, tree, tests, max_steps)
        assert len(log.errors) == 1
        stops.update(log.errors)
    assert stops == {"step-limit at main/loop0/body",
                     "step-limit at main/loop0/body/if0/else",
                     "scanf-exhausted at main/loop0/body/if0/else"}
    assert backs and all(tracer.HOT_ITERS < n <= 2000 for n in backs)


# A loop of exactly MAX_LOOP_ITERS iterations passes when the tier hands
# it back a few iterations short of its end, here because an arm never
# taken counts in the steps its guard allows for: the closure counts on
# from the iterations the tier ran.
def test_hand_back_near_the_iteration_cap(compiled, monkeypatch):
    tree = parse(_counting("s = s + i;\n    if (i < 0) {\n"
                           + "      s = s + 1;\n" * 8 + "    }"))
    tests = [TestCase("", "")]
    total = fewest_steps(tree, tests)
    monkeypatch.setattr(tracer, "MAX_LOOP_ITERS", _LONG)
    backs = _spy_hand_backs(monkeypatch)
    log = _tiered_equals_untiered(compiled, tree, tests, total)
    assert log.errors == []
    assert len(backs) == 2 and all(_LONG - 4 < n < _LONG for n in backs)


# The tier leaves the most recently entered point in the state, where an
# error after the loop reads it: here the last iteration's then-point,
# which no iteration before the tier entered.
def test_error_after_a_tiered_loop_names_its_last_point(compiled):
    src = _counting("if (i == 2999) {\n      s = s + 1;\n    }",
                    after="  s = s / (s - s);\n")
    log = _tiered_equals_untiered(compiled, parse(src), [TestCase("", "")])
    assert log.errors == ["div-by-zero at main/loop0/body/if0/then"]


# With the iteration cap at HOT_ITERS, the tier runs no iteration: it hands
# the execution back at once, and the closure's next test meets the cap.
def test_loop_iteration_cap_at_the_tier_entry(compiled, monkeypatch):
    monkeypatch.setattr(tracer, "MAX_LOOP_ITERS", tracer.HOT_ITERS)
    backs = _spy_hand_backs(monkeypatch)
    log = _tiered_equals_untiered(compiled, parse(_counting("s = s + i;")),
                                  [TestCase("", "")])
    assert log.errors == ["step-limit at main/loop0/body: loop iterations"]
    assert backs == [tracer.HOT_ITERS] * 2


# A tiered loop body that calls a function whose own loop tiers, that
# stores into an array, and that returns from inside the loop of a function
# other than main: the tier writes its locals back before each call and
# the return, and reloads them after.
_CALLEE_TIERS = """\
int g(int k) {
  int j = 0;
  while (j < k) {
    j++;
  }
  return j;
}

int main() {
  int i = 0;
  int s = 0;
  int t;
  while (i < 3000) {
    t = g(2);
    if (i > 2997) {
      s = s + g(1500);
    }
    s = s + i + t;
    i++;
  }
  printf("%d", s);
}
"""
_RETURN_IN_LOOP = """\
int f(int n) {
  int i = 0;
  int s = 0;
  while (1) {
    s = s + i;
    if (i == n) {
      return s;
    }
    i++;
  }
}

int main() {
  int n;
  scanf("%d", &n);
  printf("%d", f(n));
}
"""


@pytest.mark.parametrize("src,stdin,tiered,snaps", [
    (_CALLEE_TIERS, "", ["main/loop0/body", "g/loop0/body"],
     {"g/exit": [{"k": 2, "j": 2}] * 2999 + [{"k": 1500, "j": 1500},
                                             {"k": 2, "j": 2},
                                             {"k": 1500, "j": 1500}]}),
    (_counting("a[i % 2] = s;\n    s = s + a[0];\n    s = s - a[1];",
               "  int a[2];\n  a[0] = 0;\n  a[1] = 0;\n"), "",
     ["main/loop0/body"], {}),
    (_RETURN_IN_LOOP, "3000", ["f/loop0/body"],
     {"f/exit": [{"n": 3000, "i": 3000, "s": 3000 * 3001 // 2}]}),
], ids=["callee-tiers", "array-store", "return-in-loop"])
def test_tiered_body_with_calls_is_exact(compiled, src, stdin, tiered,
                                         snaps):
    log = _tiered_equals_untiered(compiled, parse(src),
                                  [TestCase(stdin, "")])
    assert log.errors == []
    for pid in tiered:
        assert len(log.points[pid]) > tracer.HOT_ITERS
    for pid, expected in snaps.items():
        assert log.snapshots()[pid] == expected


# closest-stream's hostile infinite loop on sum1n's tests: the loop runs on
# in its tier until its guard hands the last iterations back to the
# closures, which stop it. The suite compiles one program and keeps the
# snapshots of its tiered iterations.
def test_fast_run_past_the_limit_stops_soon_in_the_tier(compiled,
                                                        monkeypatch):
    tree = parse('int main() {\n  int n;\n  scanf("%d", &n);\n'
                 "  while (1) {\n    n = n + 0;\n  }\n"
                 '  printf("%d", n);\n}\n')
    tests, max_steps = sum_suite(), 20_000
    programs = []
    program = tracer._Program
    monkeypatch.setattr(tracer, "_Program",
                        lambda *args: programs.append(args) or program(*args))
    log, verdicts = run_suite(tree, tests, max_steps, record=True)
    assert len(programs) == len(compiled) == 1
    assert verdicts == ["error"] * 3
    assert log.errors == ["step-limit at main/loop0/body"] * 3
    assert len(log.points["main/loop0/body"]) > 3 * 3 * tracer.HOT_ITERS
    assert log.to_json() == untiered_suite(tree, tests, max_steps)[0].to_json()


# Stores that convert, and compares of an int with a double, in the tier:
# 2**53 + 1 compared with the double 2**53 is equal, as in C.
def test_conversions_in_the_tier_are_exact(compiled):
    src = _counting("d = i * 0.5;\n    s = d;\n    d = s;\n"
                    "    if (big == top) {\n      s = s + 1;\n    }\n"
                    "    if (d < big) {\n      s = s - 1;\n    }",
                    "  double d;\n  int big = 9007199254740993;\n"
                    "  double top = 9007199254740992.0;\n")
    log = _tiered_equals_untiered(compiled, parse(src), [TestCase("", "1499")])
    assert log.errors == []
    assert log.snapshots()["main/loop0/body/if0/then"][-1]["s"] == 1499


# The generated source reuses a slot's value within an iteration, from a
# checked read or a store, until a call, or a join whose paths disagree;
# it snapshots a point inline, as one value, a tuple or a None. Each
# program below runs past HOT_ITERS through one such case. In "hidden",
# the body's `s` hides main's and is set only past i == 1500, so the
# then-point's snapshots lack `s` until then.
_NO_SCALAR_AND_ONE = """\
int main() {
  int a[1];
  a[0] = 0;
  while (a[0] < 3000) {
    a[0] = a[0] + 1;
  }
  int i = 0;
  while (i < 3000) {
    i++;
  }
  printf("%d", i);
}
"""


_HIDDEN_THEN = [{"i": i} for i in range(1001, 1501)] + [
    {"i": i, "s": i} for i in range(1501, _LONG)]


@pytest.mark.parametrize("src,points,snaps", [
    (_counting("int s = i;\n    if (s > 10) {\n      s = s - 1;\n    }"),
     {"main/loop0/body/if0/then": ["i", "s"]}, {}),
    (_counting("int s;\n    if (i > 1500) {\n      s = i;\n    }\n"
               "    if (i > 1000) {\n      s = 1;\n    }"),
     {"main/loop0/body/if1/then": ["i", "s"]},
     {"main/loop0/body/if1/then": _HIDDEN_THEN}),
    (_NO_SCALAR_AND_ONE, {"main/loop0/body": [], "main/loop1/body": ["i"]},
     {}),
    (_counting("if (i < 1500) {\n      s = s + i;\n    } else {\n"
               "      t = i;\n    }\n    s = s + t;\n"
               "    if (i > 10) {\n      t = t + 1;\n    }\n    s = s - t;",
               "  int t = 0;\n"), {}, {}),
    (_counting("j = 0;\n    while (j < 2) {\n      s = s + 1;\n      j++;\n"
               "    }\n    s = s + j;", "  int j;\n"), {}, {}),
    (_counting("d = i * 0.5;\n    s = d;\n    s = s + 1;\n    d = s;\n"
               "    if (d < s + 0.5) {\n      s = s - 1;\n    }",
               "  double d;\n"), {}, {}),
    (_counting("t = s;\n    t++;\n    s = t - s;", "  int t;\n"), {}, {}),
], ids=["shadowed", "hidden", "no-scalar-and-one", "join", "after-call",
        "converting-store", "store-then-incr"])
def test_generated_source_is_exact(compiled, src, points, snaps):
    log = _tiered_equals_untiered(compiled, parse(src), [TestCase("", "")])
    assert log.errors == []
    for pid, names in points.items():
        assert log.points[pid].names == names
        assert len(log.points[pid]) > tracer.HOT_ITERS
    for pid, expected in snaps.items():
        assert log.snapshots()[pid] == expected


# Every point folds at the first back-edge or call past fold_at, so at each
# fold the rows of all points together are at most 2 * FOLD_STEPS plus the
# steps of one iteration of the innermost loop: not when the loop runs
# again after a tier left its buffer full, nor when its tier calls an
# execution of itself that tiers and folds, leaving the caller's copy of
# fold_at behind. A point's chunk holds up to FOLD_STEPS rows over its
# loop's steps an iteration: 16,384 for the tight loop's 2.
_RERUN = """\
int main() {
  int r = 0;
  int n = 5000;
  while (r < 3) {
    int i = 0;
    while (i < n) {
      i++;
    }
    if (r == 1) {
      n = 3;
    }
    r++;
  }
}
"""
_SELF_CALL = """\
int f(int n) {
  int i = 0;
  int s = 0;
  while (i < 5119 + 3900 * n) {
    if (i == 5121) {
      if (n > 0) {
        s = s + f(n - 1);
      }
    }
    s = s + 1;
    i++;
  }
  return s;
}

int main() {
  printf("%d", f(3));
}
"""


_TIGHT = """\
int main() {
  int i = 40000;
  while (i) i--;
}
"""


def _spy_folds(monkeypatch):
    """The rows of each `PointSummary.fold` call from now on, in order."""
    chunks = []
    fold = PointSummary.fold

    def spy(summary, flat):
        chunks.append(len(flat) // (len(summary.names) or 1))
        fold(summary, flat)
    monkeypatch.setattr(PointSummary, "fold", spy)
    return chunks


def _rows_per_fold(log, chunks):
    """The rows of all points together at each fold, mid-run or final: a
    fold folds every point once, in the log's order."""
    n = len(log.points)
    assert len(chunks) % n == 0
    return [sum(chunks[i:i + n]) for i in range(0, len(chunks), n)]


@pytest.mark.parametrize("src,pid,rows,iteration,most", [
    (_RERUN, "main/loop0/body/loop0/body", 10_003, 4, 8192),
    (_SELF_CALL, "f/loop0/body", 4 * 5119 + 6 * 3900, 16, 8192),
    (_TIGHT, "main/loop0/body", 40_000, 2, 16_384),
], ids=["rerun", "self-call", "tight"])
def test_tiered_buffers_stay_bounded(compiled, monkeypatch, src, pid, rows,
                                     iteration, most):
    tree, tests = parse(src), [TestCase("", "")]
    _tiered_equals_untiered(compiled, tree, tests)
    chunks = _spy_folds(monkeypatch)
    log, _ = run_suite(tree, tests)
    assert len(log.points[pid]) == rows
    folds = _rows_per_fold(log, chunks)
    assert len(folds) > 1
    assert max(folds) <= 2 * tracer.FOLD_STEPS + iteration
    assert max(chunks) <= most
    assert sum(chunks) == sum(len(p) for p in log.points.values())


# The tier's inline add overflows in the last iteration, with the steps the
# tier took not yet stored in the test's state.
_OVERFLOW_AT_END = """\
int main() {
  int n;
  scanf("%d", &n);
  int i = 0;
  int s = 0;
  while (i <= n) {
    if (i == n) {
      s = 9223372036854775807 + i;
    }
    s = s + i;
    i++;
  }
  printf("%d", s);
}
"""


@pytest.mark.parametrize("src,verdict,iteration", [
    (LEFT_SRC, "pass", 8), (_OVERFLOW_AT_END, "error", 12),
], ids=["pass", "error"])
def test_short_tests_fold_as_the_suite_goes(monkeypatch, src, verdict,
                                             iteration):
    """The count to the next fold carries from test to test, so a suite of
    tests each shorter than FOLD_STEPS steps folds as it goes, not only at
    its end. Each loop runs in its tier from its first back-edge."""
    tree = rename(parse(src))[0]
    monkeypatch.setattr(tracer, "HOT_ITERS", 1)
    chunks = _spy_folds(monkeypatch)
    log, verdicts = run_suite(tree, sum_suite((2500,) * 30))
    assert verdicts == [verdict] * 30
    folds = _rows_per_fold(log, chunks)
    assert len(folds) > 2
    assert max(folds) <= 2 * tracer.FOLD_STEPS + iteration
    assert sum(folds) == sum(len(p) for p in log.points.values())


# f's loop tiers, then calls f from the tier; the callee's loop tiers in the
# function already compiled. With `10 / n`, the innermost call fails.
_RECURSE_IN_LOOP = """\
int f(int n) {
  int i = 0;
  int s = 0;
  while (i < 1500) {
    if (i == 1200) {
      if (n > 0) {
        s = s + f(n - 1);
      }
    }
    s = s + 1;
    i++;
  }
  return s + 10 / DIVISOR;
}

int main() {
  int n;
  scanf("%d", &n);
  printf("%d", f(n));
}
"""


@pytest.mark.parametrize("divisor,error", [
    ("(n + 1)", None), ("n", "div-by-zero at f/loop0/body")])
def test_recursive_call_from_the_tier(compiled, divisor, error):
    tree = parse(_RECURSE_IN_LOOP.replace("DIVISOR", divisor))
    tests = [TestCase("3", "6020")]
    log = _tiered_equals_untiered(compiled, tree, tests)
    assert len(compiled) == 2  # once in each of the two programs run
    assert log.errors == ([error] if error else [])
    assert len(log.samples["f/entry"]) == 4
    if error is None:
        total = fewest_steps(tree, tests)
        for max_steps in (total // 2, total - 1):
            _tiered_equals_untiered(compiled, tree, tests, max_steps)


# Where Python's stack runs out depends on how deep the caller is, so calls
# are charged their frames and capped short of it: a suite gives the same
# verdicts and log from every caller depth down to where the tight case of
# test_call_depth_cap_is_the_limit enters `run_suite`. f recurses under
# four additions (five frames a call), or from a loop that tiers (seven,
# one of them the tier's); the first n of each is the last that passes.
_NESTED_ADDITIONS = ("int f(int n) {\n  if (n == 0) {\n    return 0;\n  }\n"
                     "  return 1 + (1 + (1 + (1 + f(n - 1))));\n}\n\n"
                     'int main() {\n  int n;\n  scanf("%d", &n);\n'
                     '  printf("%d", f(n));\n}\n')
_SHORT_RECURSE_IN_LOOP = (_RECURSE_IN_LOOP.replace("1500", "2")
                          .replace("1200", "1").replace("DIVISOR", "(n + 1)"))


def _in_loop(n):
    return (_in_loop(n - 1) if n > 0 else 0) + 2 + 10 // (n + 1)


@pytest.mark.parametrize("src,ns,out,point", [
    (_NESTED_ADDITIONS, (88, 89, 150, 180, 200, 220), lambda n: 4 * n,
     "f/entry"),
    (_SHORT_RECURSE_IN_LOOP, (63, 64), _in_loop,
     "f/loop0/body/if0/then/if0/then"),
], ids=["nested-additions", "in-a-tiered-loop"])
def test_call_depth_does_not_depend_on_the_caller(compiled, monkeypatch, src,
                                                  ns, out, point):
    monkeypatch.setattr(tracer, "HOT_ITERS", 1)  # a loop tiers at once
    tree = parse(src)
    tests = [TestCase(f"{n}\n", str(out(n))) for n in ns]

    def run():
        log, verdicts = run_suite(tree, tests, record=True)
        return (verdicts, log.errors, log.outputs,
                {pid: p.flat for pid, p in log.points.items()})
    expected = run()
    assert expected[:2] == (["pass"] + ["error"] * (len(ns) - 1),
                            [f"step-limit at {point}: call depth"]
                            * (len(ns) - 1))
    assert bool(compiled) == ("while" in src)
    # Two frames more than the tight case's: it enters `run_suite` through
    # a lambda and `execute`.
    for frames in range(_tight_frames() + 3):
        assert _nested(frames, run) == expected, frames


# Programs whose calls sit in random contexts: under operators, in
# arguments, indexes and conditions, in statements, blocks, `if`s and
# loops, up to three of each around a call; h's loop, and any around a
# call, tiers at its first back-edge.
_CALL_EXPRESSIONS = ("1 + ({})", "({}) * 2", "-({})", "!({})", "({}) < 3",
                     "0 || ({})", "({}) && 1", "a[({}) % 2]", "h({})",
                     "({}) / 1")
_CALL_STATEMENTS = ("s = {};", "a[{}] = s;", 'printf("%d ", {});', "h({});",
                    "if ({}) {{\n  s = s + 1;\n}}",
                    "for (j = {}; j < 2; j++) {{\n  s = s + 1;\n}}",
                    "while (j < {}) {{\n  j++;\n}}",
                    'scanf("%d", &a[{}]);', "return {};")
_CALL_BLOCKS = ("if (s >= 0) {{\n{}\n}}", "{{\n{}\n}}",
                "if (s < 0) {{\n}} else {{\n{}\n}}",
                "for (i{d} = 0; i{d} < 3; i{d}++) {{\n{}\n}}",
                "while (k{d} < 2) {{\n  k{d}++;\n{}\n}}")
_CALL_DECLS = ("  int s = 0;\n  int j = 0;\n  int a[2];\n  a[0] = 0;\n"
               "  a[1] = 1;\n" + "".join(f"  int i{d};\n  int k{d} = 0;\n"
                                        for d in range(3)))


def _call_program(seed):
    rng = random.Random(seed)

    def body(callee, param):
        call = f"{callee}({param})"
        for _ in range(rng.randint(0, 3)):
            call = rng.choice(_CALL_EXPRESSIONS).format(call)
        stmt = rng.choice(_CALL_STATEMENTS).format(call)
        for d in range(rng.randint(0, 3)):
            stmt = rng.choice(_CALL_BLOCKS).format(stmt, d=d)
        return _CALL_DECLS + stmt + "\n  return s;\n"
    return ("int h(int k) {\n  int t = k;\n  while (t > 1) {\n"
            "    t = t - 1;\n  }\n  return t;\n}\n\n"
            "int g(int n) {\n" + body("h", "n") + "}\n\n"
            'int main() {\n  int n;\n  scanf("%d", &n);\n'
            + body("g", "n") + "}\n")


# Each call site is charged at least the Python frames between its
# caller's call closure and its own, read at the callee's entry, and no
# frame of a function's body, helpers and the tier's compile included,
# sits more than a few below its room.
def test_call_charges_cover_the_frames_used(monkeypatch):
    call_code = tracer._Compiler.call.__code__.co_consts
    call_code = next(c for c in call_code if getattr(c, "co_name", "")
                     == "call")
    run_code = tracer._Program.run.__code__
    entered = {}  # id of an entered call closure's frame -> st.frames
    sites = []  # (frames used, frames charged) per call
    snapshot = tracer._snapshot

    def body_of(frame):
        """The frames from `frame` up to the call closure whose body it is
        in (one that has entered its callee: a call evaluating its
        arguments is still in its caller's body), and that closure, or
        `_Program.run`'s frame."""
        below = 0
        while not (frame.f_code is run_code or frame.f_code is call_code
                   and "room" in frame.f_locals):
            below, frame = below + 1, frame.f_back
        return below, frame

    def spy(pid, *parts):
        snap = snapshot(pid, *parts)
        if not pid.endswith("/entry"):
            return snap

        def entry(st, v):
            callee = sys._getframe(1)
            used, caller = body_of(callee.f_back)
            sites.append((used + 1, st.frames - entered.get(id(caller), 0)))
            entered[id(callee)] = st.frames
            snap(st, v)
        return entry
    monkeypatch.setattr(tracer, "_snapshot", spy)
    beyond = []  # frames below a body's room, past its call closure

    def profile(frame, event, _):
        if event == "call" and frame.f_code is not run_code:
            below, body = body_of(frame)
            if body.f_code is call_code:
                beyond.append(below - body.f_locals["room"])
    test = TestCase("3 " + " ".join(["4", "0", "1"] * 9), "")
    monkeypatch.setattr(tracer, "FOLD_STEPS", 1)  # fold at every check
    for hot_iters in (1, tracer.HOT_ITERS):
        monkeypatch.setattr(tracer, "HOT_ITERS", hot_iters)
        for seed in range(100):
            program = _Program(parse(_call_program(seed)), 2000, TraceLog())
            sys.setprofile(profile)
            try:
                program.run(test)
            finally:
                sys.setprofile(None)
    assert len(sites) > 400
    assert all(used <= charged for used, charged in sites), sites
    # Well inside the 20 frames that MAX_CALL_DEPTH's comment leaves them.
    assert max(beyond) <= 10, max(beyond)


# Names that are Python's own words or the generated function's, and an
# expression and `if`s nested just under the parser's MAX_DEPTH: no name
# reaches the generated source as text, and no nesting either (the `if`s
# take one indentation level each of Python's 100).
_HOSTILE_NAMES = """\
int UNSET(int lambda) {
  int None = 0;
  int st = 0;
  int v;
  while (st < lambda) {
    scanf("%d", &v);
    if (v > None) {
      None = v;
    }
    st++;
  }
  return None;
}

int main() {
  int lambda;
  scanf("%d", &lambda);
  printf("%d", UNSET(lambda));
}
"""


def _deep_expression(depth):
    return _counting("s = " + "".join(f"1 {'+-*'[d % 3]} ("
                                      for d in range(depth))
                     + "i" + ")" * depth + ";")


def _deep_ifs(depth):
    return _counting("".join(f"if (i > {d}) " for d in range(depth))
                     + 'scanf("%d", &s);')


def test_hostile_nesting_is_the_deepest_the_parser_takes():
    for deepest in (_deep_expression(94), _deep_ifs(47)):
        parse(deepest)
    for deeper in (_deep_expression(95), _deep_ifs(48)):
        with pytest.raises(CSyntaxError, match="nesting too deep"):
            parse(deeper)


@pytest.mark.parametrize("src,stdin", [
    (_HOSTILE_NAMES, f"{_LONG} " + " ".join(map(str, range(_LONG)))),
    (_deep_expression(94), ""),
    (_deep_ifs(47), " ".join(["1"] * _LONG)),
], ids=["names", "deep-expression", "deep-ifs"])
def test_hostile_loop_in_the_tier(compiled, tmp_path, capsys, src, stdin):
    tree = parse(src)
    tests = [TestCase(stdin, "")]
    log = _tiered_equals_untiered(compiled, tree, tests)
    assert log.errors == []
    program = tmp_path / "hostile.c"
    program.write_text(src)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t0.in").write_text(stdin + "\n")
    (tmp_path / "tests" / "t0.out").write_text("\n")
    before = len(compiled)
    assert cli.main(["trace", str(program), "--tests",
                     str(tmp_path / "tests"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(compiled) > before
    exact_log, exact_verdicts = untiered_suite(_renamed(src), tests)
    assert (payload["trace"], payload["verdicts"]) == (exact_log.to_json(),
                                                       exact_verdicts)


# Neither the compiled function nor its namespace holds the compiler, the
# function table or the tables the tier is generated from, so a program
# that tiered is freed by reference counts: also one whose tier stores into
# an array and calls an `if`'s test and a printf, and one whose tier calls
# a nested loop that tiered first. Each input comes with its count of
# loops that tier.
_NO_CYCLE_INPUTS = [
    (_counting("a[i % 2] = a[i % 2] + i;\n    if (i % 1000 == 999) {\n"
               '      printf("%d ", a[0] - a[1]);\n    }',
               "  int a[2];\n  a[0] = 0;\n  a[1] = 0;\n"), 1),
    (_counting("j = 0;\n    while (j < n) {\n      j++;\n    }\n    n = 0;",
               "  int j;\n  int n = 1100;\n"), 2),
]


def test_tiered_program_holds_no_reference_cycle(compiled):
    tree = parse(_counting("s = s + i;"))
    gc.collect()
    gc.disable()
    try:
        run_suite(tree, [TestCase("", "")])
        assert compiled
        assert gc.collect() == 0
        for src, tiers in _NO_CYCLE_INPUTS:
            before = len(compiled)
            run_suite(parse(src), [TestCase("", "")])
            assert len(compiled) == before + tiers
            assert gc.collect() == 0
    finally:
        gc.enable()
