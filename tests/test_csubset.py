"""Lexer, parser, and unparser tests for the supported C subset."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from invclust.errors import CSyntaxError, SourceTooLarge, UnsupportedFeature
from invclust.lexer import MAX_SOURCE_CHARS, lex
from invclust.nodes import Kind, Node, structurally_equal, walk
from invclust.parser import MAX_DEPTH, parse
from invclust.unparse import unparse

from conftest import LEFT_SRC, RIGHT_SRC, gen_program


def _find(tree, kind):
    return [n for n in walk(tree) if n.kind == kind]


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
        assert structurally_equal(t1, t2), f"seed {seed}"


def test_parse_determinism():
    t1, t2 = parse(LEFT_SRC), parse(LEFT_SRC)
    assert structurally_equal(t1, t2)
    assert unparse(t1) == unparse(t2)


@pytest.mark.parametrize("src,construct", [
    ("int main() { int *p; }", "pointer"),
    ("struct S { int a; };", "struct"),
    ("int main() { switch (1) { } }", "switch"),
    ("#include <stdio.h>\nint main() { }", "preprocessor"),
    ("int main() { do { } while (1); }", "do"),
    ("int main() { goto end; end: ; }", "goto"),
    ("int main() { int a[2]; a[0][1] = 1; }", "multi-dimensional array"),
    ('int main() { int a[2]; scanf("%d", &a[0][1]); }',
     "multi-dimensional array"),
    ('int main() { printf("a\\1b"); }', "escape sequence '\\1'"),
    ('int main() { printf("a\\01b"); }', "escape sequence '\\01'"),
])
def test_unsupported_constructs(src, construct):
    with pytest.raises(UnsupportedFeature) as exc:
        parse(src)
    assert construct in str(exc.value)


_MISSING_VALUE = "int main() {\n  int x = ;\n}\n"
_EXPECTED_EXPRESSION = "expected expression, found ';'"


# Each case edits one spot of _MISSING_VALUE; the column is 1-based and
# counts a tab as one character, and \n, \r\n and a lone \r each end a line.
@pytest.mark.parametrize("src,line,col,message", [
    (_MISSING_VALUE, 2, 11, _EXPECTED_EXPRESSION),
    (_MISSING_VALUE.replace("= ;", "= /* one\n  two */ ;"), 3, 10,
     _EXPECTED_EXPRESSION),
    (_MISSING_VALUE.replace("  int", "\tint"), 2, 10, _EXPECTED_EXPRESSION),
    (_MISSING_VALUE.replace("{\n", "{\r\n"), 2, 11, _EXPECTED_EXPRESSION),
    (_MISSING_VALUE.replace("\n", "\r"), 2, 11, _EXPECTED_EXPRESSION),
    (_MISSING_VALUE.replace("= ;", "= /* one\r\r  two */ ;"), 4, 10,
     _EXPECTED_EXPRESSION),
    ('int main() { printf("a\rb"); }', 1, 21,
     "unterminated string literal"),
    ("int main() { // x", 1, 18, "unterminated block"),
], ids=["plain", "after-block-comment", "after-tab", "after-crlf",
        "cr-only", "after-cr-only-block-comment", "string-cut-by-cr",
        "eof-after-line-comment"])
def test_syntax_error_position_inside_input(src, line, col, message):
    with pytest.raises(CSyntaxError) as exc:
        parse(src)
    assert (exc.value.line, exc.value.col, exc.value.message) == (
        line, col, message)


@pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_line_ends_parse_like_newlines(end):
    src = "int main() {\n  // note\n  int x = 1;\n}\n"
    assert unparse(parse(src.replace("\n", end))) == unparse(parse(src))


@pytest.mark.parametrize("expr", ["(" * 2000 + "1" + ")" * 2000,
                                  "- " * 500 + "1", "1" + " + 1" * 500],
                         ids=["parens", "unary", "sum"])
def test_deep_nesting_is_syntax_error(expr):
    with pytest.raises(CSyntaxError) as exc:
        parse('int main() {\n  printf("%d", ' + expr + ");\n}\n")
    assert exc.value.message == "nesting too deep"
    assert exc.value.line == 2


def _nested(frames, fn):
    return fn() if frames == 0 else _nested(frames - 1, fn)


def _verdict(src):
    try:
        parse(src)
        return "ok"
    except CSyntaxError as e:
        return (e.line, e.col, e.message)


@pytest.mark.parametrize("caller_frames", [0, 200])
def test_nesting_limit_is_fixed(caller_frames):
    # The function body is one level and the printf argument another, so
    # MAX_DEPTH - 2 parentheses fit and one more is rejected at the first
    # token inside the innermost parenthesis, whatever the caller's depth.
    prefix = '  printf("%d", '

    def src(k):
        return "int main() {\n" + prefix + "(" * k + "1" + ")" * k + ");\n}\n"

    below = _nested(caller_frames, lambda: _verdict(src(MAX_DEPTH - 2)))
    above = _nested(caller_frames, lambda: _verdict(src(MAX_DEPTH - 1)))
    assert below == "ok"
    assert above == (2, len(prefix) + MAX_DEPTH, "nesting too deep")


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


@pytest.mark.parametrize("stmt,diagnostic", [
    ('printf("%s", x);',
     "line 4: unsupported construct: printf conversion '%s'"),
    ('printf("%ld", x);',
     "line 4: unsupported construct: printf conversion '%l'"),
    ('printf("x = %");',
     "line 4: unsupported construct: printf conversion '%'"),
    ('scanf("%x", &x);',
     "line 4: unsupported construct: scanf conversion '%x'"),
    ('scanf("n=%d", &x);',
     "line 4: unsupported construct: literal text in scanf format"),
    ('printf("%d %d", x);',
     "4:3: printf format has 2 conversions but 1 arguments"),
    ('scanf("%d%lf", &x);',
     "4:3: scanf format has 2 conversions but 1 targets"),
])
def test_format_diagnostics(stmt, diagnostic):
    src = "int main() {\n  int x;\n  int a[2];\n  " + stmt + "\n}\n"
    with pytest.raises((CSyntaxError, UnsupportedFeature)) as exc:
        parse(src)
    assert str(exc.value) == diagnostic


def _literal(text):
    tree = parse("int main() {\n  double x = " + text + ";\n}\n")
    return _find(tree, Kind.LITERAL)[0].literal


def test_leading_zero_makes_an_integer_octal():
    assert [_literal(t) for t in ("010", "007", "0", "00", "10")] == \
        [8, 7, 0, 0, 10]
    assert [_literal(t) for t in ("012.5", "09.5", "012e1")] == \
        [12.5, 9.5, 120.0]
    for bad in ("08", "0179"):
        with pytest.raises(CSyntaxError) as exc:
            _literal(bad)
        assert exc.value.message == f"invalid digit in octal constant '{bad}'"


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff11"])
def test_numbers_take_ascii_digits_only(digit):
    # C's digits are 0-9; '²' (superscript two), '٣' (Arabic-Indic three)
    # and '１' (fullwidth one) are other characters, after a number or not.
    for stmt, col in ((f"x = 1{digit};", 8), (f"x = {digit};", 7),
                      (f"x = 1.{digit};", 9), (f"x = 1e{digit};", 7)):
        with pytest.raises(CSyntaxError) as exc:
            parse("int main() {\n  int x;\n  " + stmt + "\n}\n")
        assert str(exc.value) == (f"3:{col}: malformed number '1e'"
                                  if "e" in stmt else
                                  f"3:{col}: unexpected character {digit!r}")


def test_identifiers_keep_unicode_digits():
    tree = parse("int main() {\n  int x\u00b2 = 1;\n}\n")
    assert _find(tree, Kind.DECL)[0].identifier == "x\u00b2"


def test_nested_unary_minus_round_trips():
    # Well past MAX_DEPTH / 2: each minus is one parser nesting level, and
    # the unparsed text must not add a level per minus.
    tree = parse("int main() {\n  int x = 1;\n  x = " + "- " * 60
                 + "x;\n}\n")
    text = unparse(tree)
    assert "x = " + "- " * 59 + "-x;" in text
    assert structurally_equal(parse(text), tree)


def test_zero_escape_before_a_non_octal_character_is_nul():
    tree = parse('int main() {\n  printf("a\\0b\\08");\n}\n')
    assert _find(tree, Kind.PRINTF)[0].literal == "a\0b\08"


def test_infinite_float_literal_round_trips():
    tree = parse("int main() {\n  double x = 1e999;\n}\n")
    text = unparse(tree)
    assert "double x = 1e999;" in text
    assert structurally_equal(parse(text), tree)


# Statement shapes whose holes take fragments of the subset's surface:
# string delimiters, format directives, escapes, brackets, and numbers
# with leading zeros or exponents.
_TEMPLATES = ["x = {};", "d = {};", "a[{}] = x;", 'printf("{}", x);',
              'scanf("{}", &x);', 'printf("%lf %d", {}, x);',
              "if ({}) {{\n  x++;\n}}", "while (x < {}) x = x + 1;", "{}"]
_FRAGMENTS = ["x", "d", "1", "0", "7", "010", "08", "1e999", "2.5e-3", "1e-3",
              " ", "+", "-", "*", "/", "(", ")", "[", "]", '"', "%", "%d",
              "%lf", "%%", "\\", "\\n", "!", "<", "==", "&"]
_STATEMENT = st.builds(str.format, st.sampled_from(_TEMPLATES),
                       st.lists(st.sampled_from(_FRAGMENTS),
                                max_size=8).map("".join))


@settings(max_examples=500, deadline=None)
@given(st.lists(_STATEMENT, min_size=1, max_size=4).map("\n".join))
def test_parse_rejects_or_round_trips(body):
    src = ("int f(int n) {\n  return n;\n}\n\nint main() {\n  int x;\n"
           "  int a[3];\n  double d;\n" + body + "\n}\n")
    try:
        tree = parse(src)
    except (CSyntaxError, UnsupportedFeature):
        return
    assert structurally_equal(parse(unparse(tree)), tree)


def test_source_size_is_checked_before_scanning():
    """A source of MAX_SOURCE_CHARS characters lexes; a longer one is
    rejected by its size alone, before a character of it is scanned."""
    at_limit = LEFT_SRC + "/*" + " " * (MAX_SOURCE_CHARS - len(LEFT_SRC) - 5) \
        + "*/\n"
    assert len(at_limit) == MAX_SOURCE_CHARS
    assert structurally_equal(parse(at_limit), parse(LEFT_SRC))
    for text in (at_limit + " ", "@" * (MAX_SOURCE_CHARS + 1)):
        with pytest.raises(SourceTooLarge) as e:
            lex(text)
        assert str(e.value) == (f"source too large: {MAX_SOURCE_CHARS + 1} "
                                f"characters (limit {MAX_SOURCE_CHARS})")
