"""Tree-walking interpreter and trace-collection tests."""

import inspect
import json
import sys
import tracemalloc

import pytest

from invclust.errors import UnresolvedIdentifier
from invclust.invariants import detect
from invclust.parser import parse
from invclust.renamer import rename
from invclust.tracer import (MAX_CALL_DEPTH, Limits, TestCase, TraceLog,
                             _Program, execute, normalize_output, run_suite)

from conftest import (LEFT_SRC, RIGHT_SRC, SNAPSHOT_EDGE_PROGRAMS,
                      exact_suite, fewest_steps, sum_suite)


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


def test_infinite_loop_hits_step_limit():
    tree = parse("int main() {\n  while (1) {\n  }\n}\n")
    limits = Limits(max_loop_iters=1000)
    log, stdout, verdict = execute(tree, TestCase("", ""), limits)
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


# None: as deep as leaves 30 frames above the two a call at the cap takes
# per call, so one frame more per call overflows Python's stack first.
@pytest.mark.parametrize("caller_frames",
                         [0, 200, pytest.param(None, id="tight")])
def test_call_depth_cap_is_the_limit(caller_frames):
    tree = parse(_RECURSE_N)
    if caller_frames is None:
        caller_frames = (sys.getrecursionlimit() - len(inspect.stack(0))
                         - 2 * MAX_CALL_DEPTH - 30)

    def run(depth, limits=None):
        return execute(tree, _recurse_test(depth), limits)

    log, _, verdict = _nested(caller_frames, lambda: run(MAX_CALL_DEPTH))
    assert verdict == "pass"
    log, _, verdict = _nested(caller_frames,
                              lambda: run(MAX_CALL_DEPTH + 1))
    assert verdict == "error"
    assert log.errors == ["step-limit at f/entry: call depth"]
    assert len(log.samples["f/entry"]) == MAX_CALL_DEPTH - 1
    # One step short, the run is replayed exact; it recurses to the cap as
    # the fused run did, and stops at the last step, the outer `+ 1`.
    total = fewest_steps(tree, [_recurse_test(MAX_CALL_DEPTH)])
    log, _, verdict = _nested(
        caller_frames,
        lambda: run(MAX_CALL_DEPTH, Limits(max_steps=total - 1)))
    assert verdict == "error"
    assert log.errors == ["step-limit at f/exit"]
    assert len(log.samples["f/entry"]) == MAX_CALL_DEPTH - 1


# Where Python's stack runs out depends on the frames a call's arguments
# take, fewer when fused; at every caller depth the fused run defers to the
# exact one, which reports it.
def test_python_stack_overflow_is_reported_by_the_exact_run():
    expr = "1 + (" * 40 + "f(n + 1)" + ")" * 40
    tree = parse("int f(int n) {\n  return " + expr + ";\n}\n\n"
                 "int main() {\n  f(0);\n}\n")
    tests = [TestCase("", "")]
    for frames in range(45):
        log, verdicts = _nested(
            frames, lambda: run_suite(tree, tests, record=True))
        exact_log, exact_verdicts = _nested(
            frames, lambda: exact_suite(tree, tests))
        assert log.errors == ["step-limit at f/entry: call depth"]
        assert (log.to_json(), verdicts) == (exact_log.to_json(),
                                             exact_verdicts), frames


# Every closure of the loop and of f is fused, so only the checks at the
# loop's back-edge and at each call stop the fast run once its count has
# passed the limit: the work it throws away stays near max_steps.
@pytest.mark.parametrize("src,pid", [
    ("int main() {\n  int i = 0;\n  int n = 1000000000;\n"
     "  while (i < n) {\n    i = i + 1;\n  }\n}\n", "main/loop0/body"),
    ("void f(int n) {\n  if (n > 0) {\n    f(n - 1);\n    f(n - 1);\n"
     "  }\n}\n\nint main() {\n  f(16);\n}\n", "f/entry"),
])
def test_fast_run_past_the_limit_stops_soon(src, pid):
    log = TraceLog()
    program = _Program(parse(src), Limits(max_steps=1000), log)
    assert program.run(TestCase("", "")) is None
    point = log.points[pid]
    point.summary.fold(point.flat)
    assert 100 <= len(point) <= 1000


def test_python_stack_overflow_below_the_cap_is_call_depth_error():
    # Each call sits under 40 additions, so Python's stack runs out long
    # before MAX_CALL_DEPTH calls.
    expr = "1 + (" * 40 + "f(n + 1)" + ")" * 40
    tree = parse("int f(int n) {\n  return " + expr + ";\n}\n\n"
                 "int main() {\n  f(0);\n}\n")
    log, _, verdict = execute(tree, TestCase("", ""))
    assert verdict == "error"
    assert log.errors == ["step-limit at f/entry: call depth"]
    assert len(log.samples["f/entry"]) < MAX_CALL_DEPTH - 1


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
    ("int a[2];\n  int b = a + 1;", 4),
    ("int a[2];\n  int b = 1 < a;", 5),
    ("int a[2];\n  int b = 0;\n  b = 2 * a;", 7),
    ('int a[2];\n  printf("%d", a - 1);', 4),
])
def test_misuse_counts_its_steps_before_failing(body, steps):
    tree = parse("int main() {\n  " + body + "\n}\n")
    log, _, _ = execute(tree, TestCase("", ""), Limits(max_steps=steps - 1))
    assert log.errors == ["step-limit at main/entry"]
    log, _, _ = execute(tree, TestCase("", ""), Limits(max_steps=steps))
    assert [e.split(":")[0] for e in log.errors] == ["type-error at main/entry"]


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


def _printed(expr, limits=None):
    tree = parse('int main() {\n  printf("%d", ' + expr + ");\n}\n")
    return execute(tree, TestCase("", ""), limits)


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
    log, _, _ = _printed(expr, Limits(max_steps=2))
    assert log.errors == ["step-limit at main/entry"]
    log, stdout, _ = _printed(expr, Limits(max_steps=3))
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


def test_shadowed_name_reads_the_inner_value_once_set():
    snaps = _recorded_edge_program("shadow").snapshots()
    assert snaps["main/loop0/body/if0/then"] == [{"a": 1, "i": 2},
                                                 {"a": 1, "i": 3}]
    assert snaps["main/loop0/body/block1"] == [
        {"a": 1, "i": 0}, {"a": 1, "i": 1}, {"a": 20, "i": 2},
        {"a": 30, "i": 3}]


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
    assert detect(log, min_samples=1).point_kinds == kinds


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
