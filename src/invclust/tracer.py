"""Tracer: runs a program on its tests and records variable snapshots at
scope entries. Replaces an external invariant-detector front end.

Each function body is compiled once per `run_suite` call into nested Python
closures; every test then runs them against a fresh `_State`. C scoping in
this subset is lexical and has no jumps, so the compiler decides once what
the tree fixes: each reference's slot in a per-call list and whether its
variable is an array and an int (a name is in scope from its declarator on,
its own initializer included, as in C and the renamer), and each snapshot's
layout and point id. A name with no declaration raises
`UnresolvedIdentifier` at compile time, reached by a test or not; an array
used as a scalar, or a scalar indexed, compiles to a closure that counts
the node's steps and fails with `type-error`. No closure tests a binding's
kind at run time.

Points are named by structure, never by source line, so layout moves no
id: `<fn>/entry` and `<fn>/exit`, and for each scope-opening statement the
segment `<kind><i>`, where `i` is its ordinal among the scope-opening
statements of its own statement list and the kind is `if`, `loop` (`while`
and `for` alike) or `block`; an `if` has `then` and `else` points below it
and a loop a `body` point, as in `main/loop0/body/if1/then`. A point's kind
is read off the last segment of its id.

Snapshots: every point has exactly one snapshot closure, and its schema is
the names of the scalar variables visible there, outer scopes first: as in
C, an inner declaration (an array too) hides the outer one of its name,
which keeps its position. A renamed tree declares no name twice. The exit
closure is compiled after the function body with the whole top scope, and
every `return` and the fall-off share it; at an early return a name
declared later reads `UNSET`. A snapshot is the schema's values, `UNSET`
for a variable not set yet (an inner one too); no dict or tuple is kept.
Each point buffers its snapshots as one flat list, row after row; a
point with no scalar in scope buffers a None per snapshot. Unrecorded,
the first loop back-edge or call that finds the step count at `fold_at`
folds every point's buffer into its `PointSummary` (`_fold`) and sets
the next fold FOLD_STEPS steps on. A run takes no more snapshots than
about its steps, and any unbounded repetition passes a back-edge or a
call, so the rows all points buffer together stay under about
2 * FOLD_STEPS plus one loop-free stretch of the program, and a trace
takes memory in proportion to its points, not to its length. The count
to the next fold carries from one test to the next, and a test that
stops on an error folds at once. A recorded trace (`record=True`, for
`invclust trace --json`, `execute` and tests that read snapshots) folds
only at the end, keeps every value and each test's stdout as well, and
regroups the values into rows when they are read.

Step accounting: one step per statement executed and one per expression
node evaluated, in evaluation order; past `max_steps` (MAX_STEPS unless a
caller gives one) the run stops with `step-limit` at the most recently
entered point, as it does past MAX_LOOP_ITERS iterations of one loop
execution. A closure counts the steps of a node and of the ancestors whose
evaluation starts with it in one addition, and checks the limit as soon as
it has counted them, so closures stop exactly where the limit is passed. A
literal is read from a slot of its own, as a variable that is never UNSET.
A store into a scalar is made inline by its statement's closure (by one
reader per target for `scanf`), and a loop's closure takes its body's
snapshot. The tier (below) stops where the closures would, so each test
runs once. Call depth is counted in Python frames (see MAX_CALL_DEPTH), so
where a run stops does not depend on how deep in Python's stack its caller
is.

Hot loops: an execution of a loop that reaches HOT_ITERS iterations runs on
in a function generated as Python source for that loop and compiled once
per `_Program` (`_hot_loop`). The source is read off the loop's tree and
what the compiler recorded of it by node (`_Program.tables`); compiling a
program builds nothing else for the tier. The function holds the loop's
leaf operations, scalar stores, scalar `scanf`s, `++`/`--` and `if`s
inline, and calls the closure of any other statement. The scalars it
touches live in Python locals, written back to the slots before a call or
an exit and reloaded after a call. It checks a scalar declared before the
loop for UNSET once, at entry, before it writes anything, and hands the
execution back (`_HandBack`) if one is UNSET, since nothing in the loop
can unset it again; a scalar declared in the loop it checks at its first
read in an iteration, which no call can undo. An int's overflow trap
after `++` and after `+` an int literal tests INT_MAX only, and after `--`
and `-` an int literal INT_MIN only. It counts the steps of each run of
inline statements at the run's start, ahead of their work. One compare
at the head of each iteration stands for the fold check and for the step
limit of every run up to the iteration's first call, or up to the join of
an `if` one of whose arms calls: near max_steps the function hands the rest
of the execution back to the loop's closure (`_HandBack`), which runs it
exactly, as it does after MAX_LOOP_ITERS iterations. A run past those
checks the limit itself and calls the closures of its statements instead
where it would pass it (`_overrun`). A snapshot appends each of its locals,
or a None, to the point's buffer with no getter. Every object the source
uses is bound as a default argument, so it loads as a local. A suite whose
loops stop short of HOT_ITERS compiles no source.

Semantics choices: 64-bit signed ints with trapped overflow, trapped
uninitialized reads, truncating division, an int compared with a double
converted to double first, %d prints decimal after the conversion an int
store makes (so an out-of-range double traps), %f/%lf print with 6 decimal
places.
"""

import json
import math
import operator
from dataclasses import dataclass, field
from itertools import repeat

from .errors import TraceRuntimeError, UnresolvedIdentifier
from .invariants import UNSET, PointSummary
from .nodes import Kind, Node
from .parser import PRINTF_CONVERSION, SCANF_CONVERSION

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

# Calls (main included) that may be active at once, each made as in
# `return f(n - 1) + 1;` at two Python frames. The cap, _MAX_FRAMES, is on
# frames (see `_Compiler.call`): what 225 such calls from main's
# `printf("%d", f(n))` take, f's room included. Of the 480 frames a caller
# may leave the tracer, it leaves under 20 for what no charge covers:
# helpers, the tier's side exit and `_hot_loop`'s compile where a loop
# first tiers, about as deep as the loop's room (the parser's MAX_DEPTH
# bounds it). A deeper caller's RecursionError reads as the same error.
MAX_CALL_DEPTH = 225
_MAX_FRAMES = 2 * MAX_CALL_DEPTH + 5

# Steps between folds of the points' buffers into their summaries.
FOLD_STEPS = 32_768

# Iterations after which a loop runs the rest of its current execution in
# Python source generated and compiled for it (see `_hot_loop`). That costs
# about 0.35-0.55 ms once per suite. An iteration of sum1n's loop took
# 0.96-0.99 us in the closures and 0.18-0.19 us tiered (Python 3.11, 2
# vCPUs), so one execution breaks even some 450-700 iterations past the
# threshold, and every later one reuses the compiled source.
HOT_ITERS = 256

# The steps a test may take unless the caller gives max_steps, and the
# iterations one execution of a loop may run, read when the loop compiles.
MAX_STEPS = 10_000_000
MAX_LOOP_ITERS = 1_000_000

# A point's kind by the last segment of its id; any other is a plain block.
_POINT_KINDS = {"entry": "function-entry", "exit": "function-exit",
                "body": "loop-body", "then": "then-block",
                "else": "else-block"}


@dataclass
class TestCase:
    __test__ = False  # keep pytest from collecting this as a test class

    stdin_text: str
    expected_stdout: str


class PointTrace:
    """The snapshots of one point: its schema `names` and their `summary`.
    After the run, `flat` holds every snapshot's values, row after row,
    when the trace was recorded, and nothing otherwise."""

    __slots__ = ("names", "flat", "summary")

    def __init__(self, names):
        self.names = list(names)
        self.flat = []
        self.summary = PointSummary(self.names)

    def __len__(self):
        return self.summary.count

    def snapshots(self):
        """Each recorded snapshot as a dict of its set variables."""
        names = self.names
        rows = zip(*[iter(self.flat)] * len(names)) if names else \
            repeat((), len(self))
        return [{name: x for name, x in zip(names, row) if x is not UNSET}
                for row in rows]


@dataclass
class TraceLog:
    record: bool = False  # keep every snapshot, not only the summaries
    points: dict = field(default_factory=dict)   # point id -> PointTrace
    outputs: list = field(default_factory=list)  # stdout per test, if recorded
    errors: list = field(default_factory=list)   # diagnostics per test

    @property
    def samples(self):
        """Point id -> PointTrace, for every point the run reached."""
        return {pid: p for pid, p in self.points.items() if len(p)}

    @property
    def point_kinds(self):
        return {pid: _POINT_KINDS.get(pid.rpartition("/")[2], "plain-block")
                for pid in self.samples}

    def snapshots(self):
        """Point id -> its snapshots as dicts, in run order."""
        if not self.record:
            raise ValueError("snapshots are kept only by a recorded trace")
        return {pid: p.snapshots() for pid, p in self.samples.items()}

    def to_json(self):
        return json.dumps(
            {
                "samples": self.snapshots(),
                "point_kinds": self.point_kinds,
                "outputs": self.outputs,
                "errors": self.errors,
            },
            sort_keys=True,
        )


_COMPARE = {"<": operator.lt, ">": operator.gt, "<=": operator.le,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_INLINED = {**_COMPARE, **_ARITH}  # the operators the tier emits inline
# What each printf directive of PRINTF_CONVERSION prints.
_PRINTF = {"%": "%", "d": lambda st, x: str(_convert(st, x, True)),
           "f": lambda st, x: f"{float(x):.6f}"}
_PRINTF["lf"] = _PRINTF["f"]
# The id segment of each scope-opening statement kind.
_SCOPE_SEGMENT = {Kind.IF: "if", Kind.WHILE: "loop", Kind.FOR: "loop",
                  Kind.BLOCK: "block"}


class _State:
    """What one test changes, and the compiled functions, the tables the
    tier reads (`_Program.tables`) and the points' traces: call closures
    look callees up here and loop closures the tables, so no closure holds
    a table that holds it and a compiled program is freed without the
    cyclic collector."""

    __slots__ = ("functions", "tables", "points", "steps", "fold_at",
                 "frames", "point", "stdin", "out")

    def __init__(self, functions, tables, points, stdin_text, fold_at):
        self.functions = functions
        self.tables = tables
        self.points = points
        self.steps = 0
        self.fold_at = fold_at  # the step count of the next `_fold`
        self.frames = 0  # the frames charged to the active calls
        self.point = "start"   # most recently entered point, for diagnostics
        self.stdin = iter(stdin_text.split())  # the tokens not read yet
        self.out = []


def _convert(st, value, is_int):
    if is_int:
        if isinstance(value, float):
            try:
                value = int(value)  # trunc toward zero
            except (OverflowError, ValueError):  # inf, nan
                raise TraceRuntimeError("integer-overflow", st.point) from None
        if not INT_MIN <= value <= INT_MAX:
            raise TraceRuntimeError("integer-overflow", st.point)
        return value
    return float(value)


def _unset(point, name):
    """The error of reading `name` before it is set, at `point`."""
    return TraceRuntimeError("uninitialized-read", point, name)


def _bad_token(point, token):
    """The error of a token that is not a number of the conversion's."""
    return TraceRuntimeError("scanf-exhausted", point,
                             f"bad input token {token!r}")


def _snapshot(pid, getter, push, _flat, _layout):
    """The closure recording point pid, from `_Compiler.point`'s parts."""
    def snap(st, v):
        st.point = pid
        push(getter(v))
    return snap


def _fold(st):
    """Folds every point's buffer into its summary, and sets the next fold
    FOLD_STEPS steps on; loop back-edges and calls run it at `fold_at`."""
    for point in st.points:
        point.summary.fold(point.flat)
        point.flat.clear()
    st.fold_at = st.steps + FOLD_STEPS


def _a_frame_below(compile_):
    """A `_Compiler` method whose closure runs a frame below the closure
    that calls it: it compiles a frame deeper, which the room takes in."""
    def below(self, *args):
        self.nest += 1
        self.room = max(self.room, self.nest)
        closure = compile_(self, *args)
        self.nest -= 1
        return closure
    return below


def _checked_index(st, name, arr, idx):
    if isinstance(idx, float):
        raise TraceRuntimeError("type-error", st.point, "non-integer index")
    if not 0 <= idx < len(arr):
        raise TraceRuntimeError("array-out-of-bounds", st.point,
                                f"{name}[{idx}]")
    return idx


class _Compiler:
    """Turns a translation unit into closures. Statement closures take
    (state, slots) and return None, or when a `return` ran, its value
    (UNSET for a bare `return;`); expression closures take (state, slots)
    and return the value, never None. `pre` is the number of steps owed
    by the enclosing nodes whose evaluation begins with this node. `nest`
    is the frames from its function's call closure to the closure being
    compiled, one more in a loop for its tier, and the function's `room`
    the most it reaches."""

    def __init__(self, root, max_steps, log):
        self.max_steps = max_steps
        self.points = log.points
        # By id() of a node, what `_hot_loop` reads of a loop's tree: each
        # statement's and condition's closure, each declaration's and
        # reference's binding, and each block's point parts.
        self.closures, self.bound, self.blocks = {}, {}, {}
        self.functions = {fn.identifier: self.function(fn)
                          for fn in root.children}

    # --- scopes: name -> slot, resolved at compile time ---

    def declare(self, node, is_array):
        """A fresh slot for each declaration, so a slot's binding is fixed
        even where a name is declared twice in one scope. A scope maps a
        name to its binding, (slot, is_array, is_int)."""
        binding = (len(self.frame), is_array, node.type_name == "int")
        self.scopes[-1][node.identifier] = self.bound[id(node)] = binding
        self.frame.append(UNSET)
        return binding[0]

    def resolve(self, node):
        """(slot, is_array, is_int) of the variable a reference names."""
        for scope in reversed(self.scopes):
            binding = scope.get(node.identifier)
            if binding is not None:
                self.bound[id(node)] = binding
                return binding
        raise UnresolvedIdentifier(node.identifier, node.line)

    def misuse(self, count, detail):
        """The closure, with a statement's, an expression's or a store's
        arguments, of a reference whose binding is the wrong kind: it counts
        the node's `count` steps as the node would, then fails."""
        max_steps = self.max_steps

        def misuse(st, *_):
            st.steps += count
            if st.steps > max_steps:
                raise TraceRuntimeError("step-limit", st.point)
            raise TraceRuntimeError("type-error", st.point, detail)
        return misuse

    def point(self, pid, scopes):
        """(pid, getter, push, flat, layout): a snapshot of point pid is
        `push(getter(v))`, its scalar variables' values (one value, a tuple,
        or a None for none), into the buffer `flat`. The layout, each
        variable's (name, slot), is its schema and is for the tier: as in
        C, each name's innermost declaration in `scopes`, at the name's
        first position, outer scopes first; arrays, which hide names too,
        are then left out."""
        assert pid not in self.points, f"point {pid} compiled twice"
        visible = {}
        for scope in scopes:
            visible.update(scope)
        layout = [(name, slot) for name, (slot, is_array, _)
                  in visible.items() if not is_array]
        point = self.points[pid] = PointTrace(name for name, _ in layout)
        getter = (operator.itemgetter(*(slot for _, slot in layout))
                  if layout else lambda v: None)
        flat = point.flat
        return (pid, getter, flat.append if len(layout) < 2 else flat.extend,
                flat, layout)

    # --- functions and calls ---

    def function(self, fn):
        self.scopes = [{}]
        self.frame = []  # the slots each call starts with
        self.consts = {}  # repr of a literal -> its slot
        self.nest = self.room = 0
        name = fn.identifier
        params = [(self.declare(p, False), p.type_name == "int")
                  for p in fn.children if p.kind == Kind.PARAM]
        entry = _snapshot(*self.point(f"{name}/entry", self.scopes))
        body = self.stmts(fn.children[-1].children, name)
        exit_ = _snapshot(*self.point(f"{name}/exit", self.scopes))
        returns = None if fn.type_name == "void" else fn.type_name == "int"
        return self.frame, params, body, entry, exit_, returns, self.room

    def call(self, node, pre):
        """A call, charged the frames from its caller's call closure to its
        own; with pre=None, the call of main, which counts no step."""
        name = node.identifier
        max_steps = self.max_steps
        frames = 1 if pre is None else self.nest
        args = []
        if pre is not None:
            self.nest += 1  # the arguments run in a list comprehension
            args = [self.expr(a, pre + 1 if i == 0 else 0)
                    for i, a in enumerate(node.children)]
            self.nest -= 1
        count = 0 if args or pre is None else pre + 1

        def call(st, v):
            st.steps += count
            values = [a(st, v) for a in args]
            if st.steps > max_steps:  # for a call with no arguments
                raise TraceRuntimeError("step-limit", st.point)
            frame, params, body, entry, exit_, returns, room = \
                st.functions[name]
            st.frames += frames
            if st.frames + room > _MAX_FRAMES:
                raise TraceRuntimeError("step-limit", st.point, "call depth")
            if st.steps >= st.fold_at:
                _fold(st)
            w = frame.copy()
            for (slot, is_int), x in zip(params, values):
                w[slot] = _convert(st, x, is_int)
            entry(st, w)
            for s in body:
                ret = s(st, w)
                if ret is not None:
                    break
            else:
                ret = UNSET
            exit_(st, w)
            st.frames -= frames
            if ret is UNSET:
                return 0  # void call used as an expression
            if returns is not None:
                ret = _convert(st, ret, returns)
            return ret
        return call

    # --- statements ---

    def stmts(self, nodes, path):
        """Closures for the statement list at `path`; its scope-opening
        statements are named `<path>/<kind><i>`, i counting them."""
        out = []
        opened = 0
        for node in nodes:
            pid = None
            if node.kind in _SCOPE_SEGMENT:
                pid = f"{path}/{_SCOPE_SEGMENT[node.kind]}{opened}"
                opened += 1
            closure = self.closures[id(node)] = self.stmt(node, pid)
            out.append(closure)
        return tuple(out)

    def block(self, node, pid):
        """A fresh scope: the snapshot closure of the block's entry point
        and its statements; the point's parts go to `blocks`."""
        self.scopes.append({})
        point = self.blocks[id(node)] = self.point(pid, self.scopes)
        body = self.stmts(node.children, pid)
        self.scopes.pop()
        return _snapshot(*point), body

    @_a_frame_below
    def stmt(self, node, pid, pre=0):
        """A statement's closure; pid names a scope-opening statement."""
        k = node.kind
        max_steps = self.max_steps
        if k == Kind.DECL and node.children:
            slot = self.declare(node, False)
            return self.put(slot, node.type_name == "int", node.children[0],
                            pre + 1)
        if k == Kind.ASSIGN:
            target, expr_node = node.children
            leaf = self.leaf(target)  # the target first, as in the renamer
            if leaf:
                return self.put(leaf[0], leaf[2], expr_node, pre + 1)
            expr = self.expr(expr_node, pre + 1)
            store = self.store(target)

            def assign(st, v):
                store(st, v, expr(st, v))
            return assign
        if k == Kind.CALL:
            call = self.expr(node, pre + 1)

            def call_stmt(st, v):
                call(st, v)
            return call_stmt
        if k == Kind.RETURN:
            if node.children:  # the value's closure returns it, so it
                return self.value(node.children[0], pre + 1)  # is the stmt's
            count = pre + 1

            def ret(st, v):
                st.steps += count
                if st.steps > max_steps:
                    raise TraceRuntimeError("step-limit", st.point)
                return UNSET
            return ret
        if k == Kind.PRINTF:
            return self.printf(node, pre)
        if k == Kind.IF:
            return self.if_stmt(node, pid, pre)
        if k in (Kind.WHILE, Kind.FOR):
            return self.loop(node, pid, pre)
        count = pre + 1
        if k == Kind.BLOCK:
            snap, body = self.block(node, pid)

            def block(st, v):
                st.steps += count
                if st.steps > max_steps:
                    raise TraceRuntimeError("step-limit", st.point)
                snap(st, v)
                for s in body:
                    r = s(st, v)
                    if r is not None:
                        return r
            return block
        if k == Kind.SCANF:
            return self.scanf(node, count)
        if k == Kind.UNARY_OP:  # ++/-- statement
            name = node.children[0].identifier
            slot, is_array, is_int = self.resolve(node.children[0])
            if is_array:
                return self.misuse(count, f"array '{name}' used as scalar")
            delta = 1 if node.literal == "++" else -1

            def incr(st, v):
                st.steps += count
                if st.steps > max_steps:
                    raise TraceRuntimeError("step-limit", st.point)
                x = v[slot]
                if x is UNSET:
                    raise _unset(st.point, name)
                x += delta
                if is_int and not INT_MIN <= x <= INT_MAX:
                    raise TraceRuntimeError("integer-overflow", st.point)
                v[slot] = x
            return incr
        if k not in (Kind.DECL, Kind.ARRAY_DECL):
            raise ValueError(f"unexpected statement node: {k}")
        size = node.literal if k == Kind.ARRAY_DECL else None
        slot = self.declare(node, size is not None)

        def declare(st, v):
            st.steps += count
            if st.steps > max_steps:
                raise TraceRuntimeError("step-limit", st.point)
            v[slot] = UNSET if size is None else [UNSET] * size
        return declare

    def if_stmt(self, node, pid, pre):
        cond_node = node.children[0]
        cond = self.closures[id(cond_node)] = self.expr(cond_node, pre + 1)
        then_snap, then_body = self.block(node.children[1], f"{pid}/then")
        else_snap, else_body = None, ()
        if len(node.children) == 3:
            else_snap, else_body = self.block(node.children[2], f"{pid}/else")

        def if_(st, v):
            if cond(st, v):
                then_snap(st, v)
                body = then_body
            elif else_snap is not None:
                else_snap(st, v)
                body = else_body
            else:
                return None
            for s in body:
                r = s(st, v)
                if r is not None:
                    return r
        return if_

    def loop(self, node, pid, pre):
        """while (cond) body, or for (init; cond; step) body; an empty init
        or step is an empty block. The closure takes the body's snapshot;
        an execution that reaches `HOT_ITERS` iterations runs on in
        `_hot_loop`'s function, compiled once per program, which runs the
        rest or hands it back (`_HandBack`) for the closure to finish."""
        owed = pre + 1  # the loop statement's step, and its ancestors'
        init = step = None
        if node.kind == Kind.WHILE:
            cond_node, body_node = node.children
        else:
            init_node, cond_node, step_node, body_node = node.children
            if init_node.kind != Kind.BLOCK:
                init = self.stmt(init_node, None, owed)
                owed = 0
        self.nest += 1  # the tier's frame, whether or not the loop tiers
        if node.kind == Kind.FOR and step_node.kind != Kind.BLOCK:
            step = self.closures[id(step_node)] = self.stmt(step_node, None)
        cond = self.closures[id(cond_node)] = self.expr(cond_node)
        pid += "/body"
        _, body = self.block(body_node, pid)
        self.nest -= 1
        _, getter, push, _, _ = self.blocks[id(body_node)]
        max_iters, max_steps = MAX_LOOP_ITERS, self.max_steps
        hot = HOT_ITERS
        tier = None

        def loop(st, v):
            nonlocal tier
            if init is not None:
                init(st, v)
            iters = 0
            st.steps += owed  # checked with the cond's first steps
            while cond(st, v):
                iters += 1
                if iters > max_iters:
                    raise TraceRuntimeError("step-limit", pid,
                                            "loop iterations")
                st.point = pid
                push(getter(v))
                for s in body:
                    r = s(st, v)
                    if r is not None:
                        return r
                if step is not None:
                    step(st, v)
                if iters == hot:
                    if tier is None:
                        tier = _hot_loop(node, st.tables, max_iters, max_steps)
                    try:
                        return tier(st, v, iters)
                    except _HandBack as back:
                        iters, = back.args
                if st.steps >= st.fold_at:
                    _fold(st)
            return None
        return loop

    def put(self, slot, is_int, value, pre):
        """The statement closure storing `value` into a scalar slot inline."""
        expr = self.expr(value, pre)

        def assign(st, v):
            x = expr(st, v)
            if not (is_int and x.__class__ is int
                    and INT_MIN <= x <= INT_MAX):
                x = _convert(st, x, is_int)
            v[slot] = x
        return assign

    @_a_frame_below
    def store(self, target):
        """Closure storing a value into an array element; a scalar is
        stored inline by its statement, so a variable here is an array."""
        if target.kind == Kind.IDENT_REF:
            return self.misuse(
                0, f"array '{target.identifier}' used as scalar")
        base, idx_node = target.children
        name = base.identifier
        slot, is_array, is_int = self.resolve(base)
        idx = self.expr(idx_node)
        if not is_array:
            return self.misuse(0, f"'{name}' is not an array")

        def put_element(st, v, x):
            arr = v[slot]
            i = _checked_index(st, name, arr, idx(st, v))
            arr[i] = _convert(st, x, is_int)
        return put_element

    def scanf(self, node, count):
        """A reader per target; a one-target scanf is just its reader."""
        convs = [int if m[1] == "d" else float
                 for m in SCANF_CONVERSION.finditer(node.literal)]
        if len(convs) == 1:
            return self.reader(convs[0], node.children[0], count)
        self.nest += 1  # each reader runs a frame below the statement's
        readers = [self.reader(conv, target, 0)
                   for conv, target in zip(convs, node.children)]
        self.nest -= 1
        max_steps = self.max_steps

        def scanf(st, v):
            st.steps += count
            if st.steps > max_steps:
                raise TraceRuntimeError("step-limit", st.point)
            for read in readers:
                read(st, v)
        return scanf

    def reader(self, conv, target, count):
        """The closure that counts `count` steps, if any, reads the next
        token as `conv` and stores it into `target`: inline into a scalar,
        else through `store`, which evaluates an index after the token."""
        leaf = self.leaf(target)
        put = None if leaf else self.store(target)
        slot, _, is_int = leaf or (None,) * 3
        max_steps = self.max_steps

        def read(st, v):
            st.steps += count
            if st.steps > max_steps:
                raise TraceRuntimeError("step-limit", st.point)
            token = next(st.stdin, None)
            if token is None:
                raise TraceRuntimeError("scanf-exhausted", st.point)
            try:
                x = conv(token)
            except ValueError:
                raise _bad_token(st.point, token) from None
            if put is not None:
                return put(st, v, x)
            if not (is_int and x.__class__ is int
                    and INT_MIN <= x <= INT_MAX):
                x = _convert(st, x, is_int)
            v[slot] = x
        return read

    def printf(self, node, pre):
        # Literal text, and a conversion function per argument: split
        # puts each directive at an odd index.
        pieces = [_PRINTF[p] if i % 2 else p for i, p in
                  enumerate(PRINTF_CONVERSION.split(node.literal))]
        self.nest += 1  # the arguments run in a list comprehension
        args = [self.expr(a, pre + 1 if i == 0 else 0)
                for i, a in enumerate(node.children)]
        self.nest -= 1
        count = 0 if args else pre + 1
        max_steps = self.max_steps

        def printf(st, v):
            st.steps += count
            if st.steps > max_steps:
                raise TraceRuntimeError("step-limit", st.point)
            values = iter([a(st, v) for a in args])
            st.out.append("".join(
                p if p.__class__ is str else p(st, next(values))
                for p in pieces))
        return printf

    # --- expressions ---

    def value(self, node, pre=0):
        k = node.kind
        count = pre + 1
        max_steps = self.max_steps
        if k == Kind.UNARY_OP:
            child = self.expr(node.children[0], count)
            if node.literal == "!":
                def not_(st, v):
                    return 0 if child(st, v) else 1
                return not_
            if node.literal != "-":
                raise ValueError(f"unexpected unary operator {node.literal!r}")

            def neg(st, v):
                x = -child(st, v)
                if x.__class__ is int and not INT_MIN <= x <= INT_MAX:
                    raise TraceRuntimeError("integer-overflow", st.point)
                return x
            return neg
        if k == Kind.BINARY_OP:
            return self.binary(node, count)
        if k == Kind.CALL:
            return self.call(node, pre)
        if k in (Kind.LITERAL, Kind.IDENT_REF):
            leaf = self.leaf(node)
            if leaf is None:
                return self.misuse(
                    count, f"array '{node.identifier}' used as scalar")
            slot, name, _ = leaf

            def ref(st, v):
                st.steps += count
                if st.steps > max_steps:
                    raise TraceRuntimeError("step-limit", st.point)
                x = v[slot]
                if x is UNSET:
                    raise _unset(st.point, name)
                return x
            return ref
        if k == Kind.ARRAY_INDEX:
            base, idx_node = node.children
            name = base.identifier
            slot, is_array, _ = self.resolve(base)
            idx = self.expr(idx_node)
            if not is_array:
                return self.misuse(count, f"'{name}' is not an array")

            def element(st, v):
                st.steps += count
                if st.steps > max_steps:
                    raise TraceRuntimeError("step-limit", st.point)
                arr = v[slot]
                i = _checked_index(st, name, arr, idx(st, v))
                x = arr[i]
                if x is UNSET:
                    raise _unset(st.point, f"{name}[{i}]")
                return x
            return element

        raise ValueError(f"unexpected expression node: {k}")

    expr = _a_frame_below(value)  # `value`: one at its caller's frame

    def leaf(self, node):
        """(slot, name, is_int) of a literal or a scalar variable, else
        None. Each literal has a slot that holds it from the start of each
        call, so it reads as a variable that is never UNSET."""
        if node.kind == Kind.LITERAL:
            key = repr(node.literal)  # tells 1 from 1.0, 0.0 from -0.0
            if key not in self.consts:
                self.consts[key] = len(self.frame)
                self.frame.append(node.literal)
            return self.consts[key], None, node.literal.__class__ is int
        if node.kind == Kind.IDENT_REF:
            slot, is_array, is_int = self.resolve(node)
            if not is_array:
                return slot, node.identifier, is_int
        return None

    def binary(self, node, count):
        op = node.literal
        left = self.expr(node.children[0], count)
        right = self.expr(node.children[1])
        if op == "&&":
            def and_(st, v):
                if not left(st, v):
                    return 0
                return 1 if right(st, v) else 0
            return and_
        if op == "||":
            def or_(st, v):
                if left(st, v):
                    return 1
                return 1 if right(st, v) else 0
            return or_
        if op in _COMPARE:
            compare = _COMPARE[op]

            def cmp(st, v):
                a = left(st, v)
                b = right(st, v)
                if a.__class__ is not b.__class__:  # C converts the int
                    a, b = float(a), float(b)
                return 1 if compare(a, b) else 0
            return cmp
        if op in _ARITH:
            arith = _ARITH[op]

            def arithmetic(st, v):
                r = arith(left(st, v), right(st, v))
                if r.__class__ is int and not INT_MIN <= r <= INT_MAX:
                    raise TraceRuntimeError("integer-overflow", st.point)
                return r
            return arithmetic
        if op not in ("/", "%"):
            raise ValueError(f"unexpected operator {op!r}")

        def divide(st, v):
            a = left(st, v)
            b = right(st, v)
            both_int = isinstance(a, int) and isinstance(b, int)
            if op == "%" and not both_int:
                raise TraceRuntimeError("type-error", st.point,
                                        "'%' on non-integers")
            if b == 0:
                raise TraceRuntimeError("div-by-zero", st.point)
            if not both_int:
                return (a + 0.0) / b
            q = abs(a) // abs(b)  # C truncates toward zero
            if (a < 0) != (b < 0):
                q = -q
            r = q if op == "/" else a - q * b
            if not INT_MIN <= r <= INT_MAX:
                raise TraceRuntimeError("integer-overflow", st.point)
            return r
        return divide


class _HandBack(Exception):
    """Raised by a loop's tier with the iterations run, to leave the rest
    of the execution to the loop's closure, which runs it exactly: at a
    back-edge near max_steps and after max_iters iterations, and at entry
    where a scalar declared before the loop is UNSET."""


def _hot_loop(node, tables, max_iters, max_steps):
    """The function (st, v, iters) that runs an execution of the loop
    `node` on from its back-edge after `iters` iterations, generated from
    the loop's tree and the compiler's `tables` (see `_Source`).

    Each iteration's head makes one compare, `steps > bound`. Past
    `fold_at - 1` it runs `_fold`, as the loop closure does at the
    back-edge, against a copy of `st.fold_at` loaded at entry and after
    each fold (a fold in a call leaves the copy low, which brings the next
    fold forward). Past `limit`, max_steps less the most steps that a
    path counts under the guard (`_Source.reach`), it hands the execution
    back; so does the back-edge of iteration max_iters, after which the
    closure's next test meets the iteration cap, and the entry, before
    anything is written, if a scalar declared before the loop that an
    iteration reads unchecked is UNSET (`_Source.guard`)."""
    if node.kind == Kind.WHILE:
        cond, body = node.children
        stmts = body.children
    else:
        _, cond, step, body = node.children
        stmts = body.children + ([step] if step.kind != Kind.BLOCK else [])
    # A loop's condition and step declare nothing, so its body holds every
    # declaration made in the loop.
    src = _Source(tables, max_steps, _declared(body, tables[1]))
    src.emit(1, "steps, stdin, fold_at, point = "
                "st.steps, st.stdin, st.fold_at, st.point")
    src.later(1, src.reload)
    src.later(1, src.guard)
    src.emit(1, "bound = min(limit, fold_at - 1)")
    src.emit(1, f"for iters in range(iters + 1, {max_iters + 1}):")
    src.emit(2, "if steps > bound:")
    src.emit(3, "if steps > limit:")
    src.emit(4, "iters -= 1")
    src.emit(4, "break")
    src.emit(3, "st.steps = steps")
    src.emit(3, "_fold(st)")
    src.emit(3, "fold_at = st.fold_at")
    src.emit(3, "bound = min(limit, fold_at - 1)")
    src.emit(2, f"if not {src.test(2, cond, src.closures[id(cond)])}:")
    src.leave(3)
    src.snapshot(2, src.blocks[id(body)])
    for stmt in stmts:
        src.stmt(2, stmt)
    src.uncover()
    src.later(1, src.writeback)
    src.emit(1, "st.steps, st.point = steps, point")
    src.emit(1, "raise _HandBack(iters)")
    lines = src.code()
    src.ns["limit"] = max_steps - src.reach
    defaults = ", ".join(f"{k}={k}" for k in src.ns)
    code = "\n".join([f"def hot_loop(st, v, iters, *, {defaults}):", *lines])
    exec(compile(code, "<hot loop>", "exec"), src.ns)
    return src.ns.pop("hot_loop")  # so the namespace holds no cycle


def _declared(root, bound):
    """The slots of the scalars declared in the tree `root`."""
    slots, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node.kind == Kind.DECL:
            slots.add(bound[id(node)][0])
        stack += node.children
    return slots


def _overrun(st, v, steps, point, closures):
    """The tier's side exit from a run of inline statements that the
    head's guard does not cover and that would pass max_steps: their
    closures count exactly, so one stops the test."""
    st.steps, st.point = steps, point
    for closure in closures:
        closure(st, v)
    raise AssertionError("a run past max_steps ran to its end")


def _assign(targets, values):
    """The line assigning each value to its target; none for none."""
    return [f"{', '.join(targets)} = {', '.join(values)}"] if targets else []


class _Source:
    """The lines and namespace of a hot loop's function, read off the
    loop's tree and the compiler's tables (`closures`, `bound`, `blocks`);
    which nodes are emitted inline, not called, `inlines` alone decides.
    Every object the lines use (a name, a point id, a literal, a closure)
    is a namespace entry `_k<i>`, bound as a keyword-only default so that
    it loads as a local; the lines hold only those keys, slots, locals and
    temporaries `x<i>`, one statement per C node.

    A scalar slot that the loop reads, stores or snapshots inline lives in
    the local `s<slot>`. The locals of the slots stored inline go back to
    `v` before a call, `_overrun` or an exit, and all are reloaded after a
    call; `steps`, the function's count, and `point`, the most recently
    entered point, which an error names, go to `st` and back at the same
    places. A line that depends on the whole loop (the slots, a run's
    count) is placed with `later`.

    A run of inline statements counts its steps at its start. Up to the
    first call on its path a run is covered by the head's guard, which
    `reach` sizes: the most steps a path counts from the head up to a
    call, the back-edge, or the join of an `if` one of whose arms calls,
    past which no path is covered. A covered run stays open across the
    loop's exit test (the exit takes back what was counted past it) and
    across an `if` with no call, whose arms count their own runs. A run
    that is not covered has its own guard (`_overrun`).

    A slot is inner when a declaration in the loop made it, and outer
    otherwise. Nothing in the loop makes an outer slot UNSET again: a
    store writes a value, a call runs in a copy of its function's frame,
    and each declaration has a slot of its own. So an outer slot is
    checked once, at entry (`guard`), before anything is written: one that
    is UNSET hands the whole execution back to the closures. An inner slot
    is checked at its read. `known` holds the slots that a check or a
    store set earlier in the iteration; a later read of one makes no
    check, and a read of an outer one joins the entry's guard only if it
    is not known. It starts empty at the head and holds across a call: a
    declaration runs before any read of its slot in an iteration, and one
    inside a called statement is in scope only there. Past an `if` it
    keeps what all paths agree on."""

    def __init__(self, tables, max_steps, inner):
        self.closures, self.bound, self.blocks = tables
        self.inner = inner  # the slots declared in the loop
        self.guarded = set()  # the outer slots the entry checks
        self.max_steps = max_steps
        self.lines = []  # each a line, or (indent, render) from `later`
        self.ns = {"UNSET": UNSET, "TraceRuntimeError": TraceRuntimeError,
                   "_unset": _unset, "_convert": _convert,
                   "_bad_token": _bad_token, "_overrun": _overrun,
                   "_fold": _fold, "_HandBack": _HandBack}
        self.temps = 0
        self.slots = set()  # the slots that have a local
        self.stored = set()  # the slots stored into inline
        self.run = None  # [steps, closures] of the open run
        self.known = set()
        self.path = 0  # steps counted on this path since the head
        self.covered = True  # no call on this path since the head
        self.reach = 0  # the most steps a covered path counts

    def key(self, obj):
        key = f"_k{len(self.ns)}"
        self.ns[key] = obj
        return key

    def temp(self):
        self.temps += 1
        return f"x{self.temps}"

    def emit(self, ind, line):
        self.lines.append("    " * ind + line)

    def later(self, ind, render):
        """A place for the lines that `render()` gives at the end."""
        self.lines.append((ind, render))

    def code(self):
        """The lines, each place from `later` rendered, which drops the
        renderers and so the cycles through them."""
        out = []
        for line in self.lines:
            if isinstance(line, str):
                out.append(line)
            else:
                ind, render = line
                out += ["    " * ind + text for text in render()]
        self.lines = out
        return out

    def fresh(self, ind, value, into=None):
        """A new temporary, or `into`, holding `value`."""
        x = into or self.temp()
        self.emit(ind, f"{x} = {value}")
        return x

    def writeback(self):
        return _assign([f"v[{s}]" for s in sorted(self.stored)],
                       [f"s{s}" for s in sorted(self.stored)])

    def reload(self):
        return _assign([f"s{s}" for s in sorted(self.slots)],
                       [f"v[{s}]" for s in sorted(self.slots)])

    def guard(self):
        """The entry's line handing the execution back if an outer slot
        that some read takes unchecked is UNSET; none for none."""
        if not self.guarded:
            return []
        unset = " or ".join(f"s{s} is UNSET" for s in sorted(self.guarded))
        return [f"if {unset}: raise _HandBack(iters)"]

    def count(self, ind, steps, closure=None):
        """Adds `steps` to the open run, or opens one at `ind`; a
        statement's first count gives its closure, for `_overrun`."""
        if self.run is None:
            run = self.run = [0, []]
            guarded = not self.covered

            def render():
                steps, closures = run
                if not guarded:
                    return [f"steps += {steps}"]
                return [f"if steps > {self.max_steps - steps}:",
                        *("    " + line for line in self.writeback()),
                        f"    _overrun(st, v, steps, point, "
                        f"{self.key(tuple(closures))})",
                        f"steps += {steps}"]
            self.later(ind, render)
        self.run[0] += steps
        self.path += steps
        if closure is not None:
            self.run[1].append(closure)

    def uncover(self):
        """Ends here what the head's guard covers on this path."""
        if self.covered:
            self.reach = max(self.reach, self.path)
            self.covered = False

    def leave(self, ind):
        """The exit where the loop's test fails."""
        run = self.run
        counted = run[0] if run else 0

        def render():
            past = run[0] - counted if run else 0
            return [*self.writeback(),
                    f"st.steps, st.point = steps - {past}, point",
                    "return None"]
        self.later(ind, render)

    def call(self, ind, closure):
        """The temporary holding what `closure(st, v)` returns."""
        self.run = None
        self.uncover()
        self.later(ind, self.writeback)
        self.emit(ind, "st.steps, st.point = steps, point")
        x = self.fresh(ind, f"{self.key(closure)}(st, v)")
        self.emit(ind, "steps, point = st.steps, st.point")
        self.later(ind, self.reload)
        return x

    def trap(self, ind, x, side=None):
        """The overflow check of an int: of both bounds, or of the one
        that a value `+` or `-` a non-negative amount can pass."""
        test = {"+": f"{x} > {INT_MAX}", "-": f"{x} < {INT_MIN}",
                None: f"not {INT_MIN} <= {x} <= {INT_MAX}"}[side]
        self.emit(ind, f"if {test}: "
                       "raise TraceRuntimeError('integer-overflow', point)")

    def convert(self, ind, x, is_int, into):
        """`into` holding `_convert`'s value of x, which may fail at
        `st.point`."""
        self.emit(ind, "st.point = point")
        return self.fresh(ind, f"_convert(st, {x}, {is_int})", into)

    def read(self, ind, slot, name):
        """The local holding a scalar slot's value, checked set: here if
        the slot is inner, at entry if it is outer."""
        self.slots.add(slot)
        if slot not in self.known:
            self.known.add(slot)
            if slot not in self.inner:
                self.guarded.add(slot)
            else:
                self.emit(ind, f"if s{slot} is UNSET: "
                               f"raise _unset(point, {self.key(name)})")
        return f"s{slot}"

    def store(self, ind, slot, x):
        self.slots.add(slot)
        self.stored.add(slot)
        self.known.add(slot)
        if x != f"s{slot}":
            self.emit(ind, f"s{slot} = {x}")

    def inlines(self, node):
        """Whether a node is emitted inline rather than called: an `if`; a
        store of an inline expression into a scalar, a `++`/`--` of one and
        a one-target scanf into one; a literal, a scalar variable, and
        `+ - *` or a compare on two inline expressions."""
        k, children = node.kind, node.children
        if k in (Kind.LITERAL, Kind.IF):
            return True
        if k == Kind.IDENT_REF:
            return not self.bound[id(node)][1]
        if k == Kind.BINARY_OP:
            return node.literal in _INLINED and all(map(self.inlines,
                                                        children))
        if k == Kind.UNARY_OP:
            return node.literal in ("++", "--") and self.inlines(children[0])
        return ((k in (Kind.DECL, Kind.SCANF) and len(children) == 1
                 or k == Kind.ASSIGN) and all(map(self.inlines, children)))

    def expr(self, ind, node, into=None):
        """(operand, is_int, in_range) of an inline expression: a local, a
        temporary or a key, whether it is an int, and whether an int is in
        range. An operation's value goes into `into` if given."""
        self.count(ind, 1)
        if node.kind == Kind.LITERAL:
            x = node.literal
            is_int = x.__class__ is int
            return self.key(x), is_int, not is_int or INT_MIN <= x <= INT_MAX
        if node.kind == Kind.IDENT_REF:
            slot, _, is_int = self.bound[id(node)]
            return self.read(ind, slot, node.identifier), is_int, True
        if node.literal in _COMPARE:
            return (self.fresh(ind, f"1 if {self.compare(ind, node)} else 0",
                               into), True, True)
        a, a_int, a_in = self.expr(ind, node.children[0])
        b, b_int, _ = self.expr(ind, node.children[1])
        x = self.fresh(ind, f"{a} {node.literal} {b}", into)
        if a_int and b_int:
            # A literal is never negative and any other int is in range, so
            # an int plus a literal can only pass INT_MAX, and an int in
            # range minus one only INT_MIN.
            literal = [c.kind == Kind.LITERAL for c in node.children]
            side = None
            if node.literal == "+" and any(literal):
                side = "+"
            elif node.literal == "-" and literal[1] and a_in:
                side = "-"
            self.trap(ind, x, side)
        return x, a_int and b_int, True

    def compare(self, ind, node):
        """The Python test of an inline compare; an int compared with a
        double is converted to double, as in C."""
        a, a_int, _ = self.expr(ind, node.children[0])
        b, b_int, _ = self.expr(ind, node.children[1])
        if a_int != b_int:
            a, b = f"float({a})", f"float({b})"
        return f"{a} {node.literal} {b}"

    def test(self, ind, node, closure, steps=0):
        """The Python test of a condition: inline, or a call of its own
        closure; an inline one counts `steps` too, as `closure` does."""
        if not self.inlines(node):
            return self.call(ind, self.closures[id(node)])
        self.count(ind, steps, closure)
        if node.kind != Kind.BINARY_OP or node.literal not in _COMPARE:
            return self.expr(ind, node)[0]
        self.count(ind, 1)
        return self.compare(ind, node)

    def snapshot(self, ind, point):
        """A point's snapshot, added to its buffer: each of its values, or
        a None for a point with no scalar, by `append`."""
        pid, _, _, flat, layout = point
        self.emit(ind, f"point = {self.key(pid)}")
        self.slots.update(slot for _, slot in layout)
        values = [f"s{slot}" for _, slot in layout] or ["None"]
        flat = self.key(flat)
        for x in values:
            self.emit(ind, f"{flat}.append({x})")

    def stmt(self, ind, node):
        """A statement of the loop, inline or as a call of its closure; a
        statement counts one step, its closure given for `_overrun`."""
        closure = self.closures[id(node)]
        k = node.kind
        if not self.inlines(node):
            x = self.call(ind, closure)
            self.emit(ind, f"if {x} is not None: return {x}")
            return
        if k == Kind.IF:
            return self.if_stmt(ind, node, closure)
        target = node if k == Kind.DECL else node.children[0]
        slot, _, is_int = self.bound[id(target)]
        self.count(ind, 1, closure)
        local = f"s{slot}"
        if k == Kind.UNARY_OP:
            x = self.read(ind, slot, target.identifier)
            x = self.fresh(ind, f"{x} {node.literal[0]} 1", local)
            if is_int:  # the slot holds an int in range
                self.trap(ind, x, node.literal[0])
        elif k == Kind.SCANF:
            m = SCANF_CONVERSION.search(node.literal)  # its one conversion
            conv = int if m[1] == "d" else float
            token = self.temp()
            x = local if (conv is int) == is_int else self.temp()
            self.emit(ind, f"{token} = next(stdin, None)")
            self.emit(ind, f"if {token} is None: raise TraceRuntimeError("
                           "'scanf-exhausted', point)")
            self.emit(ind, f"try: {x} = {conv.__name__}({token})")
            self.emit(ind, "except ValueError: "
                           f"raise _bad_token(point, {token}) from None")
            if conv is int and is_int:
                self.trap(ind, x)
            elif x != local:
                x = self.convert(ind, x, is_int, local)
        else:  # a store, the value the last child
            x, x_int, in_range = self.expr(ind, node.children[-1], local)
            if x_int != is_int or not in_range:
                x = self.convert(ind, x, is_int, local)
        self.store(ind, slot, x)

    def if_stmt(self, ind, node, closure):
        """An `if` and its arms; a test that is a call counts the `if`'s
        step itself."""
        cond, *arms = node.children
        branches = [(f"if {self.test(ind, cond, closure, 1)}:", arms[0])]
        if len(arms) == 2:
            branches.append(("else:", arms[1]))
        run = self.run  # stays open past the `if` if no arm calls
        before, path, covered = self.known, self.path, self.covered
        ends = [] if len(arms) == 2 else [(before, path, covered)]
        for line, arm in branches:
            self.emit(ind, line)
            self.run, self.known = None, set(before)
            self.path, self.covered = path, covered
            self.snapshot(ind + 1, self.blocks[id(arm)])
            for sub in arm.children:
                self.stmt(ind + 1, sub)
            ends.append((self.known, self.path, self.covered))
        knowns, paths, covereds = zip(*ends)
        self.known = set.intersection(*knowns)
        self.path = max(paths)
        for end, covered in zip(paths, covereds):
            if covered:  # its unguarded runs, even if a sibling calls
                self.reach = max(self.reach, end)
        self.covered = all(covereds)
        self.run = run if self.covered else None


def normalize_output(s):
    lines = [line.rstrip() for line in s.split("\n")]
    return "\n".join(lines).rstrip("\n")


class _Program:
    """A translation unit compiled for one step limit, recording into one
    log."""

    def __init__(self, tree, max_steps, log):
        compiler = _Compiler(tree, MAX_STEPS if max_steps is None
                             else max_steps, log)
        self.log = log
        self.functions = compiler.functions
        self.tables = compiler.closures, compiler.bound, compiler.blocks
        self.points = list(log.points.values())
        # The steps left to the next fold, carried from test to test.
        self.fold_in = math.inf if log.record else FOLD_STEPS
        self.main = None
        if "main" in compiler.functions:
            self.main = compiler.call(Node(Kind.CALL, identifier="main"), None)

    def run(self, test):
        """Run one test, adding its snapshots and any error to the log, and
        its output too when the log records. Returns the verdict."""
        log = self.log
        st = _State(self.functions, self.tables, self.points,
                    test.stdin_text, self.fold_in)
        verdict = "error"
        try:
            try:
                if self.main is None:
                    raise TraceRuntimeError("uninitialized-read", "start",
                                            "no 'main' function")
                self.main(st, None)
            except RecursionError:  # for a caller deep in Python's stack
                raise TraceRuntimeError("step-limit", st.point,
                                        "call depth") from None
            ok = (normalize_output("".join(st.out))
                  == normalize_output(test.expected_stdout))
            verdict = "pass" if ok else "fail"
        except TraceRuntimeError as e:
            log.errors.append(str(e))
            if not log.record:  # a tier raises without syncing st.steps
                _fold(st)
        self.fold_in = st.fold_at - st.steps
        if log.record:
            log.outputs.append("".join(st.out))
        return verdict


def execute(tree, test, max_steps=None):
    """Run one test, recorded. Returns (TraceLog, stdout, verdict)."""
    log, (verdict,) = run_suite(tree, [test], max_steps, record=True)
    return log, log.outputs[0], verdict


def run_suite(tree, tests, max_steps=None, record=False,
              stop_on_error=False):
    """Run every test, each within max_steps (None: MAX_STEPS); returns
    (merged TraceLog, verdict list). Tests run in order, so recording
    straight into one log gives each point its snapshots in test order.
    Each point's summary covers every snapshot; with record=True the log
    also keeps the snapshots themselves. With stop_on_error=True the suite
    ends with the first test whose verdict is "error", and the log and the
    verdicts cover the tests run up to it."""
    if not tests:
        raise ValueError("test suite is empty")
    log = TraceLog(record)
    program = _Program(tree, max_steps, log)
    verdicts = []
    for test in tests:
        verdicts.append(program.run(test))
        if stop_on_error and verdicts[-1] == "error":
            break
    for point in log.points.values():
        point.summary.fold(point.flat)
        if not record:
            point.flat.clear()
    return log, verdicts
