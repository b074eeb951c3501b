"""Tree-walking interpreter and trace-collection tests."""

import pytest

from invclust.parser import parse
from invclust.renamer import rename
from invclust.tracer import (Limits, TestCase, execute, normalize_output,
                             run_suite)

from conftest import LEFT_SRC, RIGHT_SRC, sum_suite


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
    snaps = log.samples[_loop_body_point(log)]
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


def test_single_test_suite_equals_execute():
    tree = _renamed(LEFT_SRC)
    test = TestCase("4\n", "10")
    log1, stdout, verdict = execute(tree, test)
    log2, verdicts = run_suite(tree, [test])
    assert verdicts == [verdict] == ["pass"]
    assert log1.to_json() == log2.to_json()


def test_suite_snapshot_counts():
    log, verdicts = run_suite(_renamed(LEFT_SRC), sum_suite((1, 2, 5)))
    assert verdicts == ["pass"] * 3
    assert len(log.samples[_loop_body_point(log)]) == 1 + 2 + 5


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
    a, _ = run_suite(_renamed(RIGHT_SRC), sum_suite())
    b, _ = run_suite(_renamed(RIGHT_SRC), sum_suite())
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
