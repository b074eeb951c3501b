"""Synthetic corpus generator: semantically equivalent variants of small
assignments, produced by meaning-preserving mutations (variable renaming,
while<->for conversion, loop-direction reversal, reordering of independent
declarations, commuting of + and *)."""

import random

from .nodes import SourceProgram
from .tracer import TestCase

# The two motivating programs: same sum, different loop style and data flow.
PAIR_WHILE = """\
int main() {
  int n, sum = 0, i;
  scanf("%d", &n);
  i = 0;
  while (i < n) {
    i++;
    sum = sum + i;
  }
  printf("%d", sum);
}
"""

PAIR_FOR = """\
int main() {
  int j, n, s = 0;
  scanf("%d", &n);
  for (j = n; j >= 0; j--)
  {
    s = j + s;
  }
  printf("%d", s);
}
"""

_NAME_POOLS = [
    ("n", "sum", "i"),
    ("m", "s", "j"),
    ("num", "total", "k"),
    ("x", "acc", "idx"),
    ("count", "res", "t"),
    ("nn", "out", "p"),
    ("len", "val", "q"),
    ("limit", "r", "w"),
    ("bound", "agg", "c"),
    ("size", "ans", "u"),
]


def _decls(rng, decls, tags):
    order = list(range(len(decls)))
    if rng.random() < 0.6:
        rng.shuffle(order)
        if order != sorted(order):
            tags.add("decl-shuffle")
    return "".join(f"  {decls[i]}\n" for i in order)


def _acc_expr(rng, lhs, op, rhs, tags):
    if op in ("+", "*") and rng.random() < 0.5:
        tags.add("commute")
        return f"{rhs} {op} {lhs}"
    return f"{lhs} {op} {rhs}"


def _loop(rng, tags, header_up, header_down, body_lines):
    """Pick a loop shape. header_up/down are (init, cond, step) triples."""
    style = rng.choice(["while-up", "for-up", "for-down", "while-down"])
    if style in ("for-up", "for-down"):
        tags.add("loop-conversion")
    if style in ("for-down", "while-down"):
        tags.add("loop-reversal")
    init, cond, step = header_up if style.endswith("up") else header_down
    body = "".join(f"    {line}\n" for line in body_lines)
    if style.startswith("for"):
        return f"  for ({init}; {cond}; {step}) {{\n{body}  }}\n"
    return (f"  {init};\n  while ({cond}) {{\n{body}    {step};\n  }}\n")


def _gen_sum(rng):
    tags = set()
    n, acc, i = rng.choice(_NAME_POOLS)
    tags.add("rename")
    decls = [f"int {n};", f"int {acc} = 0;", f"int {i};"]
    expr = _acc_expr(rng, acc, "+", i, tags)
    text = (
        "int main() {\n"
        + _decls(rng, decls, tags)
        + f'  scanf("%d", &{n});\n'
        + _loop(rng, tags,
                (f"{i} = 1", f"{i} <= {n}", f"{i}++"),
                (f"{i} = {n}", f"{i} > 0", f"{i}--"),
                [f"{acc} = {expr};"])
        + f'  printf("%d", {acc});\n'
        + "}\n"
    )
    return text, tags


def _gen_factorial(rng):
    tags = set()
    n, acc, i = rng.choice(_NAME_POOLS)
    tags.add("rename")
    fname = rng.choice(("fact", "factorial", "product"))
    arg = "b" if n != "b" else "bb"
    decls = [f"int {acc} = 1;", f"int {i};"]
    expr = _acc_expr(rng, acc, "*", i, tags)
    text = (
        f"int {fname}(int {arg}) {{\n"
        + _decls(rng, decls, tags)
        + _loop(rng, tags,
                (f"{i} = 1", f"{i} <= {arg}", f"{i}++"),
                (f"{i} = {arg}", f"{i} > 1", f"{i}--"),
                [f"{acc} = {expr};"])
        + f"  return {acc};\n"
        + "}\n\n"
        + "int main() {\n"
        + f"  int {n};\n"
        + f'  scanf("%d", &{n});\n'
        + f'  printf("%d", {fname}({n}));\n'
        + "}\n"
    )
    return text, tags


def _gen_maxseq(rng):
    tags = set()
    n, best, i = rng.choice(_NAME_POOLS)
    v = "v" if i != "v" else "vv"
    tags.add("rename")
    decls = [f"int {n};", f"int {best};", f"int {i};", f"int {v};"]
    text = (
        "int main() {\n"
        + _decls(rng, decls, tags)
        + f'  scanf("%d", &{n});\n'
        + f'  scanf("%d", &{best});\n'
        + _loop(rng, tags,
                (f"{i} = 1", f"{i} < {n}", f"{i}++"),
                (f"{i} = {n} - 1", f"{i} > 0", f"{i}--"),
                [f'scanf("%d", &{v});',
                 f"if ({v} > {best}) {{",
                 f"  {best} = {v};",
                 "}"])
        + f'  printf("%d", {best});\n'
        + "}\n"
    )
    return text, tags


ASSIGNMENTS = [
    ("sum1n", _gen_sum,
     [TestCase(str(x), str(x * (x + 1) // 2)) for x in (1, 2, 5, 8)]),
    ("factorial", _gen_factorial,
     [TestCase(str(x), {1: "1", 3: "6", 5: "120", 7: "5040"}[x])
      for x in (1, 3, 5, 7)]),
    ("maxseq", _gen_maxseq,
     [TestCase("3\n7 2 9", "9"), TestCase("1\n4", "4"),
      TestCase("5\n1 2 3 2 1", "3"), TestCase("4\n-3 -8 -1 -9", "-1")]),
]


def generate_synthetic_corpus(seed, assignments, variants_per):
    """Returns a Corpus of `assignments` tasks with `variants_per`
    semantically equivalent variants each. Variant metadata (mutation tags)
    is attached as `tags` on each SourceProgram."""
    from .corpus import Assignment, Corpus

    if assignments < 2 or variants_per < 2:
        raise ValueError("need at least 2 assignments and 2 variants each")
    if assignments > len(ASSIGNMENTS):
        raise ValueError(f"at most {len(ASSIGNMENTS)} assignments available")
    rng = random.Random(seed)
    corpus = Corpus()
    for label, gen, tests in ASSIGNMENTS[:assignments]:
        seen = set()
        programs = []
        if label == "sum1n":
            for idx, text in enumerate((PAIR_WHILE, PAIR_FOR)):
                prog = SourceProgram(id=f"{label}/v{idx:02d}", label=label, text=text)
                prog.tags = {"motivating-pair"}
                programs.append(prog)
                seen.add(text)
        attempts = 0
        while len(programs) < variants_per:
            attempts += 1
            if attempts > 1000:
                raise RuntimeError(f"could not generate enough distinct "
                                   f"variants for {label}")
            text, tags = gen(rng)
            if text in seen:
                continue
            seen.add(text)
            prog = SourceProgram(id=f"{label}/v{len(programs):02d}",
                                 label=label, text=text)
            prog.tags = tags
            programs.append(prog)
        corpus.assignments[label] = Assignment(label=label, programs=programs,
                                               tests=list(tests))
    return corpus


def write_corpus(corpus, root):
    """Materialize a corpus in the on-disk layout the ingest step reads."""
    import os

    for label, asn in corpus.assignments.items():
        pdir = os.path.join(root, label)
        os.makedirs(pdir, exist_ok=True)
        for prog in asn.programs:
            stem = prog.id.split("/", 1)[1]
            with open(os.path.join(pdir, f"{stem}.c"), "w") as f:
                f.write(prog.text)
        tdir = os.path.join(root, "tests", label)
        os.makedirs(tdir, exist_ok=True)
        for i, test in enumerate(asn.tests):
            with open(os.path.join(tdir, f"t{i}.in"), "w") as f:
                f.write(test.stdin_text + "\n")
            with open(os.path.join(tdir, f"t{i}.out"), "w") as f:
                f.write(test.expected_stdout + "\n")
