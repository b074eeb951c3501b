"""Daikon-style likely-invariant detection over trace logs.

Template family: per-variable constants, tightest observed bounds, signs;
per-pair equality, strict/non-strict order, and constant difference.
"One of {...}" value-set facts are deliberately never produced.

Implication suppression (exhaustive; anything else that holds is emitted):
  * x == c suppresses x's bounds and signs;
  * x == y suppresses x <= y, y <= x, x < y, y < x, and the c == 0
    constant-difference;
  * a strict sign (x > 0 or x < 0) suppresses its weak form.
"""

from dataclasses import dataclass, field
from itertools import combinations, repeat
from operator import eq, ge, gt, is_, itemgetter, le, lt, ne, sub

from .errors import UnmappedPoint
from .nodes import fmt_literal

CONST_DIFF_LIMIT = 100


@dataclass
class InvariantSet:
    by_point: dict = field(default_factory=dict)     # point id -> sorted strings
    point_kinds: dict = field(default_factory=dict)  # point id -> kind

    def as_dict(self):
        return {p: self.by_point[p] for p in sorted(self.by_point)}


def _point_invariants(snaps):
    """Each variable's column is built once; every template is one pass of
    an operator over columns (operator.eq has no identity shortcut, so a
    nan is never equal to itself, as with ==)."""
    variables = sorted(set(snaps[0]).intersection(*snaps)) if snaps else []
    columns = {x: list(map(itemgetter(x), snaps)) for x in variables}
    ints = {x: all(map(isinstance, vals, repeat(int)))
            for x, vals in columns.items()}
    out = set()
    for x, vals in columns.items():
        first = vals[0]
        zeros = repeat(0)
        if all(map(eq, vals, repeat(first))) and \
                all(map(is_, map(type, vals), repeat(type(first)))):
            out.add(f"{x} == {fmt_literal(first)}")
            continue
        out.add(f"{x} >= {fmt_literal(min(vals))}")
        out.add(f"{x} <= {fmt_literal(max(vals))}")
        if all(map(gt, vals, zeros)):
            out.add(f"{x} > 0")
        elif all(map(ge, vals, zeros)):
            out.add(f"{x} >= 0")
        if all(map(lt, vals, zeros)):
            out.add(f"{x} < 0")
        elif all(map(le, vals, zeros)):
            out.add(f"{x} <= 0")
        if all(map(ne, vals, zeros)):
            out.add(f"{x} != 0")
    for x, y in combinations(variables, 2):  # x < y lexicographically
        xs, ys = columns[x], columns[y]
        if all(map(eq, xs, ys)):
            out.add(f"{x} == {y}")
            continue
        # a < b implies a <= b and rules out a >= b; a <= b on every pair
        # that is not all-equal rules out a >= b on every pair.
        if all(map(lt, xs, ys)):
            out.update((f"{x} < {y}", f"{x} <= {y}"))
        elif all(map(le, xs, ys)):
            out.add(f"{x} <= {y}")
        elif all(map(gt, xs, ys)):
            out.update((f"{y} < {x}", f"{y} <= {x}"))
        elif all(map(ge, xs, ys)):
            out.add(f"{y} <= {x}")
        if ints[x] and ints[y]:
            d = xs[0] - ys[0]
            if d != 0 and abs(d) <= CONST_DIFF_LIMIT and \
                    all(map(eq, map(sub, xs, ys), repeat(d))):
                out.add(f"{x} == {y} + {d}")
    return sorted(out)


def detect(log, min_samples=2):
    """Every template instance holding on all snapshots of each point with
    at least min_samples snapshots, after implication suppression."""
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    result = InvariantSet()
    for pid, snaps in log.samples.items():
        if len(snaps) < min_samples:
            continue
        result.by_point[pid] = _point_invariants(snaps)
        result.point_kinds[pid] = log.point_kinds.get(pid, "")
    return result


def flatten(inv_set):
    """Point ids and their invariants, sorted-point order, one per line."""
    lines = []
    for pid in sorted(inv_set.by_point):
        lines.append(pid)
        lines.extend(inv_set.by_point[pid])
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def match_points(a, b):
    """Pairs the two sets' points by kind and sorted-id order within each
    kind. Raises UnmappedPoint when the shapes disagree."""
    def by_kind(s):
        groups = {}
        for pid in sorted(s.by_point):
            groups.setdefault(s.point_kinds.get(pid, ""), []).append(pid)
        return groups

    ga, gb = by_kind(a), by_kind(b)
    if set(ga) != set(gb) or any(len(ga[k]) != len(gb[k]) for k in ga):
        raise UnmappedPoint(f"point shapes differ: {ga} vs {gb}")
    mapping = {}
    for kind in ga:
        for pa, pb in zip(ga[kind], gb[kind]):
            mapping[pa] = pb
    return mapping


def invariants_equal_modulo_rename(a, b, point_map):
    """True iff mapped points carry identical sorted invariant lists."""
    if set(point_map) != set(a.by_point) or \
            set(point_map.values()) != set(b.by_point):
        raise UnmappedPoint("point map does not cover both invariant sets")
    return all(a.by_point[pa] == b.by_point[pb] for pa, pb in point_map.items())
