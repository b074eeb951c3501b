"""Invariant detection, suppression, and canonical-string tests."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from invclust import tracer
from invclust.invariants import (_ARRAY_ROWS, MIN_SAMPLES, UNSET, PointSummary,
                                 detect, flatten)
from invclust.parser import parse
from invclust.renamer import rename
from invclust.tracer import INT_MAX, INT_MIN, TestCase, run_suite

from conftest import (LEFT_SRC, RIGHT_SRC, SNAPSHOT_EDGE_PROGRAMS,
                      gen_program, gen_suite, inv_holds, log_from_snapshots,
                      oracle_point_invariants, sum_suite)

def _detect_src(src, tests):
    renamed, _ = rename(parse(src))
    log, verdicts = run_suite(renamed, tests)
    assert "error" not in verdicts
    return detect(log), log


def _loop_body(inv_set, log):
    pts = [p for p, k in log.point_kinds.items() if k == "loop-body"]
    assert len(pts) == 1
    return inv_set.by_point[pts[0]]


def test_motivating_left_loop_body_contains_canonical_four():
    inv, log = _detect_src(LEFT_SRC, sum_suite())
    body = set(_loop_body(inv, log))
    assert {"int1 > 0", "int0 >= 0", "int2 >= 0", "int2 <= int1"} <= body


def test_motivating_right_loop_body_contains_canonical_four():
    inv, log = _detect_src(RIGHT_SRC, sum_suite())
    body = set(_loop_body(inv, log))
    assert {"int1 > 0", "int0 >= 0", "int2 >= 0", "int2 <= int1"} <= body


def test_constant_suppresses_bounds_and_signs():
    log = log_from_snapshots({"p": [{"x": 7}, {"x": 7}]})
    strings = detect(log).by_point["p"]
    assert strings == ["x == 7"]


def test_var_lt_and_const_diff():
    log = log_from_snapshots({"p": [{"x": 1, "y": 2}, {"x": 2, "y": 3}]})
    strings = detect(log).by_point["p"]
    assert "x < y" in strings
    assert "x == y + -1" in strings


def test_var_eq_suppresses_order_and_zero_diff():
    log = log_from_snapshots({"p": [{"x": 3, "y": 3}, {"x": 5, "y": 5}]})
    strings = detect(log).by_point["p"]
    assert "x == y" in strings
    assert "x <= y" not in strings and "y <= x" not in strings
    assert "x == y + 0" not in strings


def test_strict_sign_suppresses_weak():
    log = log_from_snapshots({"p": [{"x": 1}, {"x": 2}]})
    strings = detect(log).by_point["p"]
    assert "x > 0" in strings and "x >= 0" not in strings
    log = log_from_snapshots({"p": [{"x": 0}, {"x": 2}]})
    strings = detect(log).by_point["p"]
    assert "x >= 0" in strings and "x > 0" not in strings


def test_no_one_of_invariants():
    log = log_from_snapshots({"p": [{"x": 1}, {"x": 9}, {"x": 4}]})
    assert not any("one" in s.lower() or "{" in s
                   for s in detect(log).by_point["p"])


def test_min_samples_gate():
    log = log_from_snapshots({"one": [{"x": 7}],
                              "enough": [{"x": 7}] * MIN_SAMPLES})
    assert detect(log).by_point == {"enough": ["x == 7"]}


def test_float_constant_shortest_roundtrip():
    log = log_from_snapshots({"p": [{"x": 2.5}, {"x": 2.5}]})
    assert detect(log).by_point["p"] == ["x == 2.5"]


def test_const_diff_only_for_ints_and_bounded():
    log = log_from_snapshots({"p": [{"x": 0.5, "y": 1.5},
                                    {"x": 2.5, "y": 3.5}]})
    assert not any("+" in s for s in detect(log).by_point["p"])
    log = log_from_snapshots({"p": [{"x": 500, "y": 0}, {"x": 505, "y": 5}]})
    assert not any("+" in s for s in detect(log).by_point["p"])


def test_flatten_empty():
    log = log_from_snapshots({})
    assert flatten(detect(log).by_point) == ""


def test_flatten_golden():
    log = log_from_snapshots(
        {"main/loop0/body": [{"int1": 1}, {"int1": 2}]})
    inv = detect(log)
    inv.by_point["main/loop0/body"] = ["int1 > 0"]
    assert flatten(inv.by_point) == "main/loop0/body\nint1 > 0\n"


def test_flatten_order_independent():
    a = log_from_snapshots({"p2": [{"x": 1}, {"x": 2}],
                            "p1": [{"y": 3}, {"y": 4}]})
    b = log_from_snapshots({"p1": [{"y": 3}, {"y": 4}],
                            "p2": [{"x": 1}, {"x": 2}]})
    assert flatten(detect(a).by_point) == flatten(detect(b).by_point)


@pytest.mark.xfail(
    strict=True,
    reason="the two loop styles observe different tightest bounds at "
           "loop-body entry (e.g. the down-counting loop includes the "
           "iteration where the counter is 0 and the sum is complete), so "
           "the full template sets differ; only the four canonical strings "
           "are common — see the criterion-1 analysis in the project notes")
def test_motivating_pair_full_sets_identical():
    left, _ = _detect_src(LEFT_SRC, sum_suite())
    right, _ = _detect_src(RIGHT_SRC, sum_suite())
    assert left.by_point == right.by_point


def test_soundness_randomized():
    for seed in range(25):
        src, n_in = gen_program(seed)
        renamed, _ = rename(parse(src))
        log, _ = run_suite(renamed, gen_suite(seed, n_in), record=True)
        inv = detect(log)
        snapshots = log.snapshots()
        for pid, strings in inv.by_point.items():
            for s in strings:
                for snap in snapshots[pid]:
                    assert inv_holds(s, snap), (seed, pid, s, snap)


def test_maximality_against_oracle_randomized():
    for seed in range(25):
        src, n_in = gen_program(seed)
        renamed, _ = rename(parse(src))
        log, _ = run_suite(renamed, gen_suite(seed, n_in), record=True)
        inv = detect(log)
        for pid, snaps in log.snapshots().items():
            if len(snaps) < 2:
                assert pid not in inv.by_point
                continue
            assert inv.by_point[pid] == oracle_point_invariants(snaps), \
                (seed, pid)


def test_monotonicity_randomized():
    for seed in range(15):
        src, n_in = gen_program(seed)
        renamed, _ = rename(parse(src))
        small = gen_suite(seed, n_in, cases=2)
        big = small + gen_suite(seed + 1, n_in, cases=2)
        log_small, _ = run_suite(renamed, small, record=True)
        log_big, _ = run_suite(renamed, big)
        inv_big = detect(log_big)
        small_snaps = log_small.snapshots()
        for pid, strings in inv_big.by_point.items():
            for s in strings:
                for snap in small_snaps.get(pid, []):
                    assert inv_holds(s, snap), (seed, pid, s)


def test_rename_invariance_of_detection():
    for seed in range(10):
        s1, n_in = gen_program(seed, names=["a", "b", "c", "d", "e"])
        s2, _ = gen_program(seed, names=["zz", "q", "val", "w", "top"])
        tests = gen_suite(seed, n_in)
        r1, _ = rename(parse(s1))
        r2, _ = rename(parse(s2))
        log1, _ = run_suite(r1, tests)
        log2, _ = run_suite(r2, tests)
        assert (flatten(detect(log1).by_point)
                == flatten(detect(log2).by_point)), f"seed {seed}"


# --- folding snapshots in chunks ---

_nan, _inf = math.nan, math.inf
# Columns where a fold could go wrong: nan and -0.0 make min and max depend
# on the order of the values, a constant or an int-only column can break in
# a later chunk, and a variable can go unset after it was set.
EDGE_COLUMNS = {
    "nan-first": [{"x": _nan, "y": 1}, {"x": 1.0, "y": 2}, {"x": 0, "y": 3},
                  {"x": -1, "y": 4}],
    "nan-later": [{"x": 2, "y": _nan}, {"x": 1, "y": 0.5},
                  {"x": _nan, "y": -1.0}, {"x": 0, "y": _nan},
                  {"x": 3, "y": 4}],
    "zeros": [{"x": 0, "y": -0.0}, {"x": -0.0, "y": 0.0}, {"x": 0.0, "y": 0},
              {"x": 0, "y": -0.0}, {"x": -0.0, "y": -0.0}],
    "inf": [{"x": _inf, "y": -_inf, "z": 1}, {"x": 1e308, "y": -_inf, "z": 2},
            {"x": _inf, "y": 0, "z": 3}, {"x": _inf, "y": -_inf, "z": 4}],
    "int-then-float": [{"x": 1, "y": 3}, {"x": 2, "y": 4}, {"x": 3, "y": 5},
                       {"x": 4.0, "y": 6}, {"x": 5, "y": 7}],
    "constant-breaks-late": [{"x": 5, "y": 5, "z": -0.0, "w": 0}] * 4
                            + [{"x": 5.0, "y": 6, "z": 0.0, "w": 3}],
    "unset-late": [{"x": 1, "y": 2}, {"x": 2, "y": 3}, {"x": 3},
                   {"x": 4, "y": 5}, {"x": 6, "y": 7}],
}


def _splits(n):
    """Every way to cut n rows into consecutive chunks, as cut positions."""
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            yield (0, *cuts, n)


@pytest.mark.parametrize("pid", sorted(EDGE_COLUMNS))
def test_fold_of_every_split_matches_one_chunk(pid):
    point = log_from_snapshots({pid: EDGE_COLUMNS[pid]}).points[pid]
    whole = point.summary.invariants()
    w = len(point.names)
    for cuts in _splits(len(point)):
        summary = PointSummary(point.names)
        for start, end in zip(cuts, cuts[1:]):
            summary.fold(point.flat[start * w:end * w])
        assert summary.count == len(point)
        assert summary.invariants() == whole, cuts


@pytest.mark.parametrize("pid", sorted(EDGE_COLUMNS))
def test_edge_columns_match_the_oracle(pid):
    snaps = EDGE_COLUMNS[pid]
    inv = detect(log_from_snapshots({pid: snaps}))
    assert inv.by_point[pid] == oracle_point_invariants(snaps)


def _assert_fold_by_one_matches_whole_run(monkeypatch, tree, tests):
    """Folding at every loop back-edge and call gives the verdicts, errors
    and invariants that folding the recorded run as one chunk gives, over
    the same snapshot counts."""
    whole, verdicts = run_suite(tree, tests, record=True)
    with monkeypatch.context() as m:
        m.setattr(tracer, "FOLD_STEPS", 1)  # fold at every check
        by_one, verdicts_by_one = run_suite(tree, tests)
    assert (by_one.errors, verdicts_by_one) == (whole.errors, verdicts)
    assert {p: len(t) for p, t in by_one.samples.items()} == \
        {p: len(t) for p, t in whole.samples.items()}
    assert all(not t.flat for t in by_one.points.values())
    assert detect(by_one).as_dict() == detect(whole).as_dict()
    return whole


@pytest.mark.parametrize("name", sorted(SNAPSHOT_EDGE_PROGRAMS))
def test_fold_in_chunks_of_one_matches_whole_run(monkeypatch, name):
    tests = [TestCase(f"{n}\n", "") for n in (0, 1, 2, 3)]
    whole = _assert_fold_by_one_matches_whole_run(
        monkeypatch, parse(SNAPSHOT_EDGE_PROGRAMS[name]), tests)
    inv = detect(whole)
    for pid, snaps in whole.snapshots().items():
        assert inv.by_point[pid] == oracle_point_invariants(snaps), pid


def test_fold_in_chunks_of_one_matches_whole_run_randomized(monkeypatch):
    for seed in range(25):
        src, n_in = gen_program(seed)
        renamed, _ = rename(parse(src))
        _assert_fold_by_one_matches_whole_run(monkeypatch, renamed,
                                              gen_suite(seed, n_in))


# With HOT_ITERS at 1 or 2, each loop runs on in its tier from its first or
# second back-edge, so the tier's back-edge folds too.
@pytest.mark.parametrize("hot_iters", [1, 2])
def test_fold_at_every_check_through_the_tier(monkeypatch, hot_iters):
    monkeypatch.setattr(tracer, "HOT_ITERS", hot_iters)
    tiered = []
    hot_loop = tracer._hot_loop
    monkeypatch.setattr(tracer, "_hot_loop",
                        lambda *plan: tiered.append(plan) or hot_loop(*plan))
    suites = [(rename(parse(src))[0], gen_suite(seed, n_in))
              for seed, (src, n_in) in enumerate(map(gen_program, range(40)))]
    edge_tests = [TestCase(f"{n}\n", "") for n in (0, 1, 2, 3)]
    suites += [(parse(src), edge_tests)
               for src in SNAPSHOT_EDGE_PROGRAMS.values()]
    for tree, tests in suites:
        _assert_fold_by_one_matches_whole_run(monkeypatch, tree, tests)
    assert len(tiered) > len(suites)


# --- int columns folded as arrays ---

_EDGE_INTS = [0, 1, -1, 2**62 - 1, 2**62, -2**62, -2**62 - 1, INT_MIN,
              INT_MIN + 1, INT_MAX - 1, INT_MAX]
_INTS = st.one_of(st.integers(-3, 3), st.sampled_from(_EDGE_INTS))
# One nan object, repeated: the oracle and the fold alike must find it
# equal to no value, itself included.
_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -2.5, math.inf, -math.inf,
                           math.nan])


@st.composite
def _chunked_columns(draw):
    """Columns of up to three chunks' worth of rows, mostly ints (constant,
    drawn, or an earlier column plus a constant), with a few values
    replaced by any value, the first row's most often, and the cut
    positions of a split into chunks, after the first row most often."""
    n = draw(st.integers(2, 3 * _ARRAY_ROWS))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["const", "ints", "shift"]))
        if kind == "const":
            col = [draw(_INTS)] * n
        elif kind == "shift" and cols:
            c = draw(st.integers(-3, 3))
            col = [x + c if type(x) is int else x
                   for x in draw(st.sampled_from(cols))]
        else:
            col = draw(st.lists(_INTS, min_size=n, max_size=n))
        for i in draw(st.lists(st.one_of(st.just(0), st.integers(0, n - 1)),
                               max_size=2)):
            same = float(col[i]) if type(col[i]) is int else col[i]
            col[i] = draw(st.one_of(_INTS, _FLOATS, st.just(UNSET),
                                    st.just(same)))
        cols.append(col)
    cuts = draw(st.lists(st.one_of(st.just(1), st.integers(1, n - 1)),
                         max_size=3))
    return cols, (0, *sorted(set(cuts)), n)


@settings(max_examples=150, deadline=None)
@given(_chunked_columns())
def test_fold_of_any_split_matches_the_oracle(case):
    cols, cuts = case
    names = [f"v{i}" for i in range(len(cols))]
    rows = list(zip(*cols))
    summary = PointSummary(names)
    for start, end in zip(cuts, cuts[1:]):
        summary.fold([x for row in rows[start:end] for x in row])
    snaps = [{name: x for name, x in zip(names, row) if x is not UNSET}
             for row in rows]
    assert summary.count == len(rows)
    assert summary.invariants() == oracle_point_invariants(snaps)


@pytest.mark.parametrize("split", [False, True])
def test_int64_wrap_emits_no_constant_difference(split):
    # INT_MAX - INT_MIN wraps to -1 in int64, the first row's difference.
    rows = [(0, 1)] + [(INT_MAX, INT_MIN)] * _ARRAY_ROWS
    flat = [x for row in rows for x in row]
    summary = PointSummary(["x", "y"])
    for chunk in (flat[:2], flat[2:]) if split else (flat,):
        summary.fold(chunk)
    assert "x == y + -1" not in summary.invariants()
    assert summary.invariants() == \
        oracle_point_invariants([{"x": x, "y": y} for x, y in rows])


def test_float_constant_is_broken_by_equal_ints():
    # Every later value equals the constant 1.0, but as an int.
    summary = PointSummary(["x"])
    summary.fold([1.0])
    summary.fold([1] * _ARRAY_ROWS)
    assert summary.invariants() == \
        oracle_point_invariants([{"x": 1.0}] + [{"x": 1}] * _ARRAY_ROWS)


def test_unrecorded_fold_of_three_chunks_matches_the_oracle(monkeypatch):
    """The loop body of the sum to 10,000 folds in at least three chunks,
    each folded as arrays, and gives what the oracle gives over the
    recorded snapshots."""
    tree = rename(parse(LEFT_SRC))[0]
    tests = sum_suite((10_000,))
    recorded, _ = run_suite(tree, tests, record=True)
    chunks = []  # (summary, rows) per fold
    fold = PointSummary.fold

    def spy(summary, flat):
        chunks.append((summary, len(flat) // (len(summary.names) or 1)))
        fold(summary, flat)
    monkeypatch.setattr(PointSummary, "fold", spy)
    log, verdicts = run_suite(tree, tests)
    assert verdicts == ["pass"]
    body = [p for p, k in log.point_kinds.items() if k == "loop-body"]
    assert len(body) == 1
    summary = log.points[body[0]].summary
    assert len([n for s, n in chunks
                if s is summary and n >= _ARRAY_ROWS]) >= 3
    inv = {pid: p.summary.invariants() for pid, p in log.samples.items()}
    for pid, snaps in recorded.snapshots().items():
        assert inv[pid] == oracle_point_invariants(snaps), pid
