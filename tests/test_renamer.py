"""Canonical variable renaming tests."""

import pytest

from invclust.errors import UnresolvedIdentifier
from invclust.parser import parse
from invclust.renamer import alpha_equivalent, rename
from invclust.tracer import run_suite
from invclust.unparse import unparse

from conftest import LEFT_SRC, RIGHT_SRC, gen_program, gen_suite, sum_suite


def test_left_program_mapping():
    _, rmap = rename(parse(LEFT_SRC))
    assert rmap.mapping() == {"sum": "int0", "n": "int1", "i": "int2"}


def test_right_program_mapping():
    _, rmap = rename(parse(RIGHT_SRC))
    assert rmap.mapping() == {"s": "int0", "n": "int1", "j": "int2"}


def test_double_first_assigned_becomes_float0():
    src = ("int main() {\n  double x;\n  int k;\n  x = 1.5;\n  k = 2;\n}\n")
    renamed, rmap = rename(parse(src))
    assert rmap.mapping() == {"x": "float0", "k": "int0"}
    assert "float0 = 1.5;" in unparse(renamed)


def test_counter_order_follows_first_binding_not_declaration():
    src = ("int main() {\n  int a;\n  int b;\n  b = 1;\n  a = 2;\n}\n")
    _, rmap = rename(parse(src))
    assert rmap.mapping() == {"b": "int0", "a": "int1"}


def test_never_assigned_variables_come_last():
    src = ("int main() {\n  int ghost;\n  int u;\n  u = 3;\n}\n")
    _, rmap = rename(parse(src))
    assert rmap.mapping() == {"u": "int0", "ghost": "int1"}


def test_scanf_target_counts_as_binding():
    src = ('int main() {\n  int a;\n  int b;\n  scanf("%d", &a);\n'
           "  b = a;\n}\n")
    _, rmap = rename(parse(src))
    assert rmap.mapping() == {"a": "int0", "b": "int1"}


def test_alpha_equivalent_uniform_rename():
    src = "int main() {\n  int x;\n  x = 1;\n}\n"
    other = src.replace("x", "y")
    assert alpha_equivalent(parse(src), parse(other))


def test_alpha_equivalent_reflexive():
    assert alpha_equivalent(parse(LEFT_SRC), parse(LEFT_SRC))


def test_motivating_pair_not_alpha_equivalent():
    assert not alpha_equivalent(parse(LEFT_SRC), parse(RIGHT_SRC))


def test_rename_idempotent():
    renamed, _ = rename(parse(LEFT_SRC))
    twice, _ = rename(renamed)
    assert unparse(twice) == unparse(renamed)


def test_unresolved_identifier():
    with pytest.raises(UnresolvedIdentifier):
        rename(parse("int main() {\n  x = 1;\n}\n"))


def test_shadowing_gets_fresh_counter():
    src = ("int main() {\n  int x = 1;\n  if (x > 0) {\n"
           "    int x = 2;\n    x = 3;\n  }\n}\n")
    tree = parse(src)
    renamed, rmap = rename(tree)
    names = [e[2] for e in rmap.entries]
    assert names == ["int0", "int1"]
    assert "int1 = 2;" in unparse(renamed)
    assert tree == parse(src)  # the input is left as it was


def test_alpha_invariance_randomized():
    for seed in range(30):
        s1, _ = gen_program(seed, names=["a", "b", "c", "d", "e"])
        s2, _ = gen_program(seed, names=["zz", "q", "val", "w", "top"])
        r1, m1 = rename(parse(s1))
        r2, m2 = rename(parse(s2))
        assert unparse(r1) == unparse(r2), f"seed {seed}"
        assert [e[2] for e in m1.entries] == [e[2] for e in m2.entries]


def test_semantic_preservation():
    log_orig, v_orig = run_suite(parse(LEFT_SRC), sum_suite(), record=True)
    renamed, rmap = rename(parse(LEFT_SRC))
    log_ren, v_ren = run_suite(renamed, sum_suite(), record=True)
    assert v_orig == v_ren == ["pass"] * 3
    mapping = rmap.mapping()
    renamed_snaps = log_ren.snapshots()
    for pid, snaps in log_orig.snapshots().items():
        translated = [{mapping[k]: v for k, v in s.items()} for s in snaps]
        assert translated == renamed_snaps[pid]


def test_semantic_preservation_randomized():
    for seed in range(15):
        src, n_in = gen_program(seed)
        tests = gen_suite(seed, n_in)
        _, before = run_suite(parse(src), tests)
        renamed, _ = rename(parse(src))
        _, after = run_suite(renamed, tests)
        assert before == after, f"seed {seed}"
