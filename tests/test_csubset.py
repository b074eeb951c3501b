"""Lexer, parser, and unparser tests for the supported C subset."""

import random

import pytest

from invclust.errors import CSyntaxError, UnsupportedFeature
from invclust.nodes import Kind, Node, structurally_equal, walk
from invclust.parser import parse
from invclust.unparse import unparse

from conftest import LEFT_SRC, RIGHT_SRC, gen_program


def _find(tree, kind):
    return [n for n in walk(tree.root) if n.kind == kind]


def test_decl_shape():
    tree = parse("int main() {\n  int i;\n}\n")
    decls = _find(tree, Kind.DECL)
    assert len(decls) == 1
    assert decls[0].identifier == "i"
    assert decls[0].type_name == "int"


def test_empty_file_is_syntax_error():
    with pytest.raises(CSyntaxError) as exc:
        parse("")
    assert exc.value.line == 1


def test_left_program_golden_shape():
    tree = parse(LEFT_SRC)
    whiles = _find(tree, Kind.WHILE)
    assert len(whiles) == 1
    body = whiles[0].children[1]
    assert body.kind == Kind.BLOCK
    kinds = [c.kind for c in body.children]
    assert kinds == [Kind.UNARY_OP, Kind.ASSIGN]
    assert body.children[0].literal == "++"


def test_unparse_single_decl():
    node = Node(Kind.DECL, identifier="i", type_name="int")
    assert unparse(node) == "int i;\n"


def test_unparse_fixed_point():
    once = unparse(parse(RIGHT_SRC))
    assert unparse(parse(once)) == once


def test_for_layout_golden():
    src = ("int main() {\n  int i;\n  int n = 4;\n"
           "  for (i = 0; i < n; i++) {\n    n = n - 1;\n  }\n}\n")
    out = unparse(parse(src))
    assert "for (i = 0; i < n; i++) {" in out


def test_round_trip_stability_randomized():
    for seed in range(40):
        src, _ = gen_program(seed)
        t1 = parse(src)
        t2 = parse(unparse(t1))
        assert structurally_equal(t1.root, t2.root), f"seed {seed}"


def test_parse_determinism():
    t1, t2 = parse(LEFT_SRC), parse(LEFT_SRC)
    assert structurally_equal(t1.root, t2.root)
    assert unparse(t1) == unparse(t2)


@pytest.mark.parametrize("src,construct", [
    ("int main() { int *p; }", "pointer"),
    ("struct S { int a; };", "struct"),
    ("int main() { switch (1) { } }", "switch"),
    ("#include <stdio.h>\nint main() { }", "preprocessor"),
    ("int main() { do { } while (1); }", "do"),
    ("int main() { goto end; end: ; }", "goto"),
])
def test_unsupported_constructs(src, construct):
    with pytest.raises(UnsupportedFeature) as exc:
        parse(src)
    assert construct in str(exc.value)


def test_syntax_error_position_inside_input():
    src = "int main() {\n  int x = ;\n}\n"
    with pytest.raises(CSyntaxError) as exc:
        parse(src)
    assert 1 <= exc.value.line <= 3
    assert exc.value.col >= 1


@pytest.mark.parametrize("expr", ["(" * 2000 + "1" + ")" * 2000,
                                  "- " * 500 + "1", "1" + " + 1" * 500],
                         ids=["parens", "unary", "sum"])
def test_deep_nesting_is_syntax_error(expr):
    with pytest.raises(CSyntaxError) as exc:
        parse('int main() {\n  printf("%d", ' + expr + ");\n}\n")
    assert exc.value.message == "nesting too deep"
    assert exc.value.line == 2


def test_scanf_printf_dedicated_nodes():
    tree = parse('int main() {\n  int x;\n  scanf("%d", &x);\n'
                 '  printf("%d\\n", x);\n}\n')
    assert len(_find(tree, Kind.SCANF)) == 1
    assert len(_find(tree, Kind.PRINTF)) == 1
    assert not _find(tree, Kind.CALL)


def test_array_decl_and_index():
    tree = parse("int main() {\n  int a[5];\n  a[0] = 1;\n}\n")
    arr = _find(tree, Kind.ARRAY_DECL)
    assert len(arr) == 1 and arr[0].literal == 5
    assert len(_find(tree, Kind.ARRAY_INDEX)) == 1


def test_for_children_roles():
    tree = parse(LEFT_SRC.replace("while (i < n)", "while (i < n)"))
    fors = _find(parse(RIGHT_SRC), Kind.FOR)
    assert len(fors) == 1
    init, cond, step, body = fors[0].children
    assert init.kind == Kind.ASSIGN
    assert cond.kind == Kind.BINARY_OP
    assert step.kind == Kind.UNARY_OP
    assert body.kind == Kind.BLOCK
    assert tree is not None


def test_random_sources_never_crash_lexer():
    rng = random.Random(1234)
    for _ in range(50):
        junk = "".join(rng.choice("intm(){};=+<> \n09ab") for _ in range(40))
        try:
            parse(junk)
        except (CSyntaxError, UnsupportedFeature):
            pass
