"""Layout and names move no result: a property over generated programs.

Each transform of a generated program (its line ends, its comments, blank
lines and tabs, a consistent renaming of its variables) must give the
original's `analyze` documents and verdicts, analyzed alone and through a
memo that saw the original first, and the original's vector row in
`run_pipeline`. Rewriting each `for` loop as the `while` loop it stands
for must give the original's invariant document and verdicts; its AAST
document differs by design. Each transform asserts that it changed the
text, so the property cannot hold vacuously.
"""

import re

from hypothesis import assume, given, settings, strategies as st

from invclust.corpus import analyze, run_pipeline
from invclust.nodes import Assignment, Corpus, SourceProgram

from conftest import gen_program, gen_suite

_STRING = re.compile(r'("[^"]*")')
# Names gen_program never declares.
_FRESH = ["x", "y", "z", "k", "m", "u", "sum", "idx", "total", "t9"]
# A loop as gen_program emits it: `for (c = 0; c < b; c++) {`, its body
# indented further, and its `}` at the loop's own indent.
_FOR = re.compile(r"^( *)for \((\w+) = 0; (\2 < \d+); \2\+\+\) \{\n"
                  r"((?:\1  .*\n)*?)\1\}\n", re.M)


def _relaid(src, rnd):
    """src under a comment, each line's indent as tabs, with blank lines
    and comments at random."""
    lines = ["/* relaid */"]
    for line in src.splitlines():
        code = line.lstrip(" ")
        lines += [""] * rnd.randint(0, 1)
        lines.append("\t" * ((len(line) - len(code)) // 2) + code
                     + rnd.choice(["", " // note", "\t/* { } */"]))
    return "\n".join(lines) + "\n"


def _as_while(src):
    """src with each `for (c = 0; c < b; c++) { body }` of gen_program
    rewritten as `c = 0; while (c < b) { body c++; }`."""
    return _FOR.sub(lambda m: f"{m[1]}{m[2]} = 0;\n{m[1]}while ({m[3]}) {{\n"
                    f"{m[4]}{m[1]}  {m[2]}++;\n{m[1]}}}\n", src)


def _renamed(src, rnd):
    """src with each declared variable renamed to a fresh name, string
    literals left as they are."""
    names = re.findall(r"\bint (\w+) =", src)
    fresh = dict(zip(names, rnd.sample(_FRESH, len(names))))
    word = re.compile(r"\b(" + "|".join(names) + r")\b")
    return "".join(part if k % 2 else word.sub(lambda m: fresh[m[1]], part)
                   for k, part in enumerate(_STRING.split(src)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.randoms(use_true_random=False))
def test_layout_and_names_move_no_result(seed, rnd):
    src, n_inputs = gen_program(seed)
    tests = gen_suite(seed, n_inputs)
    moved = {"crlf": src.replace("\n", "\r\n"),
             "cr": src.replace("\n", "\r"),
             "relaid": _relaid(src, rnd),
             "renamed": _renamed(src, rnd)}
    memo = {}
    base = analyze(SourceProgram("p", "", src), tests, memo=memo)
    for name, text in moved.items():
        assert text != src, name
        for m in (None, memo):
            got = analyze(SourceProgram("p", "", text), tests, memo=m)
            assert (got.docs, got.verdicts) == (base.docs, base.verdicts), (
                name, m is memo)
    # Each version is an assignment of its own, so none shares a memo.
    versions = {"original": src, **moved}
    corpus = Corpus({label: Assignment(label, [SourceProgram(
        label, label, text)], tests) for label, text in versions.items()})
    arts = run_pipeline(corpus, k=1, subset="all")
    assert arts.clustered_ids == sorted(versions)
    row = arts.programs["original"].vector.values
    assert all(arts.programs[label].vector.values == row
               for label in moved)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_for_as_while_moves_no_invariant(seed):
    src, n_inputs = gen_program(seed)
    assume("for (" in src)
    tests = gen_suite(seed, n_inputs)
    text = _as_while(src)
    assert text != src and "for (" not in text
    base = analyze(SourceProgram("p", "", src), tests)
    got = analyze(SourceProgram("p", "", text), tests)
    assert (got.docs.inv_text, got.inv_by_point, got.verdicts) == (
        base.docs.inv_text, base.inv_by_point, base.verdicts)
