"""Daikon-style likely-invariant detection over trace logs.

Template family: per-variable constants, tightest observed bounds, signs;
per-pair equality, strict/non-strict order, and constant difference.
"One of {...}" value-set facts are deliberately never produced.

Implication suppression (exhaustive; anything else that holds is emitted):
  * x == c suppresses x's bounds and signs;
  * x == y suppresses x <= y, y <= x, x < y, y < x, and the c == 0
    constant-difference;
  * a strict sign (x > 0 or x < 0) suppresses its weak form.

Every template is a fold over a point's snapshots, so a `PointSummary`
takes them a chunk at a time and keeps only what the templates need: the
count, the variables set in every snapshot, each one's first value, min,
max and whether it held a nan or a zero (its signs follow from these),
and each pair's order flags and first-row difference. That is Daikon's
incremental falsification (Perkins & Ernst, FSE 2004): the tracer's
memory stays bounded however long a program runs, and a fold of the
whole trace as one chunk is the batch result. A snapshot's values
are ints, floats and UNSET; a long chunk's all-int columns are folded as
int64 arrays, by their extremes.
"""

from array import array
from dataclasses import dataclass, field
from itertools import chain, combinations, repeat
from operator import eq, ge, gt, is_, le, lt, ne, sub

import numpy as np

from .nodes import fmt_literal

CONST_DIFF_LIMIT = 100
# The fewest snapshots a point needs for its invariants to be reported.
MIN_SAMPLES = 2

# The fewest rows a chunk needs for its int columns to be folded as arrays.
_ARRAY_ROWS = 64
# Below this magnitude, x - y of two int64 values cannot wrap.
_WIDE = 2**62

# A snapshot's value for a variable that is out of scope or not set yet.
UNSET = object()


@dataclass
class InvariantSet:
    by_point: dict = field(default_factory=dict)  # point id -> sorted strings

    def as_dict(self):
        return {p: self.by_point[p] for p in sorted(self.by_point)}


class _Column:
    """One variable's state over the snapshots folded so far: its first
    value, whether every value equals it with the same type, min, max,
    whether any value was a nan, and whether every value is != 0. While
    `const` holds, lo, hi and nonzero stand for first alone. Its signs
    follow from lo and hi unless it held a nan."""

    __slots__ = ("first", "const", "lo", "hi", "nan", "nonzero")

    def __init__(self, first):
        self.first = self.lo = self.hi = first
        self.nan = False
        self.const = self.nonzero = True


class _Pair:
    """The state of a pair x < y (by name) over the snapshots folded so
    far: whether every row has x == y, x < y, x <= y, x > y and x >= y.
    `diff` holds while both are ints and x - y is the first row's
    difference `d`, and only while that difference could be emitted."""

    __slots__ = ("eq", "lt", "le", "gt", "ge", "d", "diff")

    def __init__(self, fx, fy):
        self.eq = self.lt = self.le = self.gt = self.ge = True
        ints = isinstance(fx, int) and isinstance(fy, int)
        self.d = fx - fy if ints else None
        self.diff = ints and self.d != 0 and abs(self.d) <= CONST_DIFF_LIMIT


class PointSummary:
    """The templates' state over the snapshots of one point, folded a
    chunk at a time. `names` is the point's schema: a chunk is one flat
    list, row after row, of a value per name: an int, a float, or UNSET
    for a variable the snapshot lacks, and such a variable takes part in
    no template. With no names, a chunk holds a None per snapshot, which
    is only counted.

    Folding in chunks of any size gives what one chunk of every snapshot
    gives: every flag is a conjunction over rows, and min and max are left
    folds started from the carried value, exactly as `min` and `max` run
    over the whole column, so a nan lands where they put it. operator.eq
    has no identity shortcut, so a nan is never equal to itself, as with
    ==.

    In a chunk of at least _ARRAY_ROWS rows, a column that converts to
    int64 holds only ints, which are totally ordered, so its templates
    follow from the array's min and max, and a pair's from those of x - y
    (unless a value reaches _WIDE and x - y could wrap). Columns with a
    float or UNSET, and shorter chunks, are folded value by value: nan and
    -0.0 make min and max depend on order, and a short chunk costs less
    so than converted."""

    def __init__(self, names):
        self.names = names
        self.count = 0
        self.columns = {}  # variable set in every snapshot -> _Column
        self.pairs = {}    # (x, y) of such variables, x < y -> _Pair

    def fold(self, flat):
        if not flat:
            return
        w = len(self.names)
        n = len(flat) // (w or 1)
        columns = self.columns
        cols = {x: flat[i::w] for i, x in enumerate(self.names)
                if not self.count or x in columns}
        ints = {}  # variable -> its column as int64, if it is all ints
        if n >= _ARRAY_ROWS:
            for x, vals in cols.items():
                try:
                    ints[x] = np.frombuffer(array("q", vals), np.int64)
                except (TypeError, OverflowError):  # a float, UNSET, > int64
                    pass
        if not self.count:
            for x in sorted(cols):
                if x in ints or UNSET not in cols[x]:
                    columns[x] = _Column(cols[x][0])
            self.pairs = {(x, y): _Pair(columns[x].first, columns[y].first)
                          for x, y in combinations(columns, 2)}
        else:
            dead = [x for x in columns if x not in ints and UNSET in cols[x]]
            for x in dead:
                del columns[x]
            if dead:
                self.pairs = {(x, y): p for (x, y), p in self.pairs.items()
                              if x in columns and y in columns}
        self.count += n
        narrow = set()  # int columns whose differences cannot wrap
        for x, c in columns.items():
            a = ints.get(x)
            if a is not None:
                lo, hi = int(a.min()), int(a.max())
                if -_WIDE < lo and hi < _WIDE:
                    narrow.add(x)
                if c.const:
                    first = c.first
                    if lo == first == hi and type(first) is int:
                        continue
                    c.const = False  # first stands for every value so far
                    c.nonzero = first != 0
                c.lo, c.hi = min(c.lo, lo), max(c.hi, hi)
                c.nonzero = c.nonzero and (lo > 0 or hi < 0 or bool(a.all()))
                continue
            vals = cols[x]
            if c.const:
                first = c.first
                if all(map(eq, vals, repeat(first))) and \
                        all(map(is_, map(type, vals), repeat(type(first)))):
                    continue
                c.const = False
                vals = (first, *vals)  # stands for every value folded so far
            c.lo = min(chain((c.lo,), vals))
            c.hi = max(chain((c.hi,), vals))
            c.nan = c.nan or any(map(ne, vals, vals))  # only nan != nan
            if c.nonzero:
                c.nonzero = all(map(ne, vals, repeat(0)))
        for (x, y), p in self.pairs.items():
            if x in narrow and y in narrow:
                d = ints[x] - ints[y]
                lo, hi = int(d.min()), int(d.max())
                p.diff = p.diff and lo == p.d == hi
                p.eq = p.eq and lo == 0 == hi
                p.lt, p.le = p.lt and hi < 0, p.le and hi <= 0
                p.gt, p.ge = p.gt and lo > 0, p.ge and lo >= 0
                continue
            xs, ys = cols[x], cols[y]
            if p.diff:
                p.diff = all(map(eq, map(sub, xs, ys), repeat(p.d))) and \
                    all(map(isinstance, chain(xs, ys), repeat(int)))
            if p.eq:
                p.eq = all(map(eq, xs, ys))
                if p.eq:  # so x <= y and x >= y hold
                    p.lt = p.gt = False
                    continue
            # Some row has x != y. If every row has x <= y, that row has
            # x < y and rules out x >= y; a < b implies a <= b, so a flag
            # and its strict form fold together.
            if p.le:
                p.lt = p.lt and all(map(lt, xs, ys))
                p.le = p.lt or all(map(le, xs, ys))
                if p.le:
                    p.gt = p.ge = False
                    continue
            if p.ge:
                p.gt = p.gt and all(map(gt, xs, ys))
                p.ge = p.gt or all(map(ge, xs, ys))

    def invariants(self):
        """Every template instance that holds on all snapshots folded,
        after implication suppression, sorted."""
        out = set()
        for x, c in self.columns.items():
            if c.const:
                out.add(f"{x} == {fmt_literal(c.first)}")
                continue
            if not c.nan:  # no bound or sign holds for a nan
                out.add(f"{x} >= {fmt_literal(c.lo)}")
                out.add(f"{x} <= {fmt_literal(c.hi)}")
                if c.lo > 0:
                    out.add(f"{x} > 0")
                elif c.lo >= 0:
                    out.add(f"{x} >= 0")
                if c.hi < 0:
                    out.add(f"{x} < 0")
                elif c.hi <= 0:
                    out.add(f"{x} <= 0")
            if c.nonzero:
                out.add(f"{x} != 0")
        for (x, y), p in self.pairs.items():
            if p.eq:
                out.add(f"{x} == {y}")
                continue
            if p.lt:
                out.update((f"{x} < {y}", f"{x} <= {y}"))
            elif p.le:
                out.add(f"{x} <= {y}")
            elif p.gt:
                out.update((f"{y} < {x}", f"{y} <= {x}"))
            elif p.ge:
                out.add(f"{y} <= {x}")
            if p.diff:
                out.add(f"{x} == {y} + {p.d}")
        return sorted(out)


def detect(log):
    """Every template instance holding on all snapshots of each point with
    at least MIN_SAMPLES snapshots, after implication suppression."""
    return InvariantSet({pid: point.summary.invariants()
                         for pid, point in log.samples.items()
                         if len(point) >= MIN_SAMPLES})


def flatten(by_point):
    """The invariant document of {point id: invariants}: point ids and
    their invariants, sorted-point order, one per line."""
    lines = []
    for pid in sorted(by_point):
        lines.append(pid)
        lines.extend(by_point[pid])
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
