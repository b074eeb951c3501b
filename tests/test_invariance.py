"""Layout and names move no result: a property over generated programs.

Each transform of a generated program (its line ends, its comments, blank
lines and tabs, a consistent renaming of its variables) must give the
original's `analyze` documents and verdicts, analyzed alone and through a
memo that saw the original first, and the original's vector row in
`run_pipeline`. Each transform asserts that it changed the text, so the
property cannot hold vacuously.
"""

import re

from hypothesis import given, settings, strategies as st

from invclust.corpus import analyze, run_pipeline
from invclust.nodes import Assignment, Corpus, SourceProgram

from conftest import gen_program, gen_suite

_STRING = re.compile(r'("[^"]*")')
# Names gen_program never declares.
_FRESH = ["x", "y", "z", "k", "m", "u", "sum", "idx", "total", "t9"]


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
