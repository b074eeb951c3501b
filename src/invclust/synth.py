"""Synthetic corpus generator: semantically equivalent variants of small
assignments.

Each assignment is one Shape, a row of data: the program text with holes
for three variable names, the declarations and the loop, the loop's up and
down headers and its body, the accumulating operator and the helper
function's names. `_variant` fills the holes with meaning-preserving
choices: a pool of variable names (renaming), a helper name, the operands
of + or * commuted, the declarations shuffled, and one of four loops
(`while` or `for`, counting up or down: loop conversion and reversal).
"""

import random
from dataclasses import dataclass

from .errors import TooFewVariants
from .nodes import Assignment, Corpus, SourceProgram
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

# (n, acc, i): the input bound, the accumulator and the loop counter. No
# pool holds `b` or `v`, which the shapes use as fixed names.
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

_LOOP_STYLES = ["while-up", "for-up", "for-down", "while-down"]


@dataclass(frozen=True)
class Shape:
    """One assignment. In `text`, `decls`, the loop headers and `body`,
    $n, $acc, $i and $f stand for the names drawn, and in `text`, $decls
    and $loop for the declarations and the loop; $expr in `body` is
    `$acc op $i`, commuted at random when `op` is set. `fixed` texts lead
    the assignment's programs, before any variant."""

    label: str
    tests: tuple
    text: str
    decls: tuple
    up: tuple    # (init, cond, step)
    down: tuple
    body: tuple
    op: str | None = None
    functions: tuple = ()
    fixed: tuple = ()


ASSIGNMENTS = [
    Shape(
        label="sum1n",
        tests=tuple(TestCase(str(x), str(x * (x + 1) // 2))
                    for x in (1, 2, 5, 8)),
        text=('int main() {\n$decls  scanf("%d", &$n);\n'
              '$loop  printf("%d", $acc);\n}\n'),
        decls=("int $n;", "int $acc = 0;", "int $i;"),
        up=("$i = 1", "$i <= $n", "$i++"),
        down=("$i = $n", "$i > 0", "$i--"),
        body=("$acc = $expr;",),
        op="+",
        fixed=(PAIR_WHILE, PAIR_FOR)),
    Shape(
        label="factorial",
        tests=tuple(TestCase(str(x), out)
                    for x, out in ((1, "1"), (3, "6"), (5, "120"),
                                   (7, "5040"))),
        text=("int $f(int b) {\n$decls$loop  return $acc;\n}\n\n"
              'int main() {\n  int $n;\n  scanf("%d", &$n);\n'
              '  printf("%d", $f($n));\n}\n'),
        decls=("int $acc = 1;", "int $i;"),
        up=("$i = 1", "$i <= b", "$i++"),
        down=("$i = b", "$i > 1", "$i--"),
        body=("$acc = $expr;",),
        op="*",
        functions=("fact", "factorial", "product")),
    Shape(
        label="maxseq",
        tests=(TestCase("3\n7 2 9", "9"), TestCase("1\n4", "4"),
               TestCase("5\n1 2 3 2 1", "3"),
               TestCase("4\n-3 -8 -1 -9", "-1")),
        text=('int main() {\n$decls  scanf("%d", &$n);\n'
              '  scanf("%d", &$acc);\n$loop  printf("%d", $acc);\n}\n'),
        decls=("int $n;", "int $acc;", "int $i;", "int v;"),
        up=("$i = 1", "$i < $n", "$i++"),
        down=("$i = $n - 1", "$i > 0", "$i--"),
        body=('scanf("%d", &v);', "if (v > $acc) {", "  $acc = v;", "}")),
]


def _variant(rng, shape):
    """One program of `shape`. It draws from rng in a fixed order (name
    pool, helper name, commute, shuffle, loop style), so a seed gives the
    same corpus however the text is built."""
    n, acc, i = rng.choice(_NAME_POOLS)
    f = rng.choice(shape.functions) if shape.functions else ""
    expr = f"$acc {shape.op} $i"
    if shape.op and rng.random() < 0.5:
        expr = f"$i {shape.op} $acc"
    decls = list(shape.decls)
    if rng.random() < 0.6:
        rng.shuffle(decls)
    style = rng.choice(_LOOP_STYLES)
    init, cond, step = shape.up if style.endswith("up") else shape.down
    body = "".join(f"    {line}\n" for line in shape.body)
    if style.startswith("for"):
        loop = f"  for ({init}; {cond}; {step}) {{\n{body}  }}\n"
    else:
        loop = f"  {init};\n  while ({cond}) {{\n{body}    {step};\n  }}\n"
    text = (shape.text.replace("$decls", "".join(f"  {d}\n" for d in decls))
            .replace("$loop", loop).replace("$expr", expr))
    return (text.replace("$acc", acc).replace("$n", n).replace("$i", i)
            .replace("$f", f))


def generate_synthetic_corpus(seed, assignments, variants_per):
    """A Corpus of the first `assignments` shapes with `variants_per`
    distinct programs each: the shape's fixed texts, then variants.
    Raises TooFewVariants if 1000 draws give an assignment fewer."""
    if assignments < 2 or variants_per < 2:
        raise ValueError("need at least 2 assignments and 2 variants each")
    if assignments > len(ASSIGNMENTS):
        raise ValueError(f"at most {len(ASSIGNMENTS)} assignments available")
    rng = random.Random(seed)
    corpus = Corpus()
    for shape in ASSIGNMENTS[:assignments]:
        texts = dict.fromkeys(shape.fixed)  # an ordered set
        for _ in range(1000):
            if len(texts) >= variants_per:
                break
            texts.setdefault(_variant(rng, shape))
        if len(texts) < variants_per:
            raise TooFewVariants(shape.label, len(texts), variants_per)
        label = shape.label
        corpus.assignments[label] = Assignment(
            label=label, tests=list(shape.tests), programs=[
                SourceProgram(id=f"{label}/v{i:02d}", label=label, text=text)
                for i, text in enumerate(texts)])
    return corpus
