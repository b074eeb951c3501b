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
the names of the scalar variables in that closure's scopes, outer scopes
first. The exit closure is compiled after the function body with the whole
top scope, and every `return` and the fall-off share it; at an early
return a name declared later reads `UNSET`. A snapshot is the schema's
values, `UNSET` for a variable not set yet; no dict or tuple is kept.
Each point buffers its snapshots as one flat list, row after row, and
folds it into its `PointSummary` every FOLD_ROWS snapshots, so a trace
takes memory in proportion to its points, not to its length; a point
with no scalar in scope buffers a None per snapshot. A recorded trace
(`record=True`, for `invclust trace --json`, `execute` and tests that read
snapshots) keeps every value and each test's stdout as well, and regroups
the values into rows when they are read.

Step accounting: one step per statement executed and one per expression
node evaluated, in evaluation order; past `Limits.max_steps` the run stops
with `step-limit` at the most recently entered point. A closure counts the
steps of a node and of the ancestors whose evaluation starts with it in one
addition. Leaf operands, that is scalar variables and literals (a literal
is read from a slot of its own, as a variable that is never UNSET), are
fused into their parent's closure: a compare or `+ - *` on two leaves is
one closure, and so is a compare of a leaf with such arithmetic
(`i < n - 1`). A store into a scalar is made inline by its statement's
closure (by one reader per target for `scanf`), with a value that is
`+ - *` on two leaves computed in the same closure. A loop's closure takes
its body's snapshot and runs a condition that compares two leaves and a
`for` step that is ++/-- on a scalar inline, and an `if`'s runs such a
condition inline. A fused closure counts all its steps at its start and
checks no limit, so the count is only ever ahead of the exact one; the
limit is also checked at each loop back-edge and each call, which bounds
the work past it. A test whose count passes max_steps may not have reached
it, so `run_suite` then reruns the suite compiled `exact`: nothing fused,
and each node's closure checks the limit as soon as it counts its steps.

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

# Calls (main included) that may be active at once. A call made directly
# in a statement's expression, as in `return f(n - 1) + 1;`, costs two
# Python frames, the call's closure and the arithmetic's, so 225 calls take
# 450 of Python's default recursion limit of 1000 and leave the rest to the
# caller: the cap fires first even when the tracer is entered 500 frames
# deep, fused or exact. A call nested deeper inside expressions costs more
# frames; for it, running out of Python's stack is reported as this same
# error, by the exact run.
MAX_CALL_DEPTH = 225

# Snapshots a point buffers before folding them into its summary.
FOLD_ROWS = 4096

# A point's kind by the last segment of its id; any other is a plain block.
_POINT_KINDS = {"entry": "function-entry", "exit": "function-exit",
                "body": "loop-body", "then": "then-block",
                "else": "else-block"}


@dataclass
class TestCase:
    __test__ = False  # keep pytest from collecting this as a test class

    stdin_text: str
    expected_stdout: str


@dataclass
class Limits:
    max_steps: int = 10_000_000
    max_loop_iters: int = 1_000_000


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
_FUSED = {**_COMPARE, **_ARITH}  # the operators fused with leaf operands
# What each printf directive of PRINTF_CONVERSION prints.
_PRINTF = {"%": "%", "d": lambda st, x: str(_convert(st, x, True)),
           "f": lambda st, x: f"{float(x):.6f}"}
_PRINTF["lf"] = _PRINTF["f"]
# The id segment of each scope-opening statement kind.
_SCOPE_SEGMENT = {Kind.IF: "if", Kind.WHILE: "loop", Kind.FOR: "loop",
                  Kind.BLOCK: "block"}


class _State:
    """What one test changes, and the compiled functions: call closures
    look callees up here, so no closure holds the table that holds it and
    a compiled program is freed without the cyclic collector."""

    __slots__ = ("functions", "steps", "depth", "point", "stdin", "out")

    def __init__(self, functions, stdin_text):
        self.functions = functions
        self.steps = 0
        self.depth = 0
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


def _apply(op, lint, rint):
    """The function applying `op` to two values whose int-ness is lint and
    rint; an int compared with a double is converted to double, as in C."""
    if op in _COMPARE and lint != rint:
        cmp = _COMPARE[op]
        return lambda a, b: cmp(float(a), float(b))
    return _FUSED[op]


def _unset(st, name):
    """The error of reading `name` before it is set."""
    return TraceRuntimeError("uninitialized-read", st.point, name)


def _snapshot(pid, summary, getter, push, flat, fold_at):
    """The closure recording point pid, from `_Compiler.point`'s parts."""
    def snap(st, v):
        st.point = pid
        push(getter(v))
        if len(flat) == fold_at:
            summary.fold(flat)
            flat.clear()
    return snap


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
    by the enclosing nodes whose evaluation begins with this node. With
    `exact`, nothing is fused, so the count is never ahead (see the
    module docstring)."""

    def __init__(self, root, limits, log, exact=False):
        self.exact = exact
        self.max_steps = limits.max_steps
        self.max_iters = limits.max_loop_iters
        self.points = log.points
        self.fold_at = 0 if log.record else FOLD_ROWS  # 0: never
        self.functions = {fn.identifier: self.function(fn)
                          for fn in root.children}

    # --- scopes: name -> slot, resolved at compile time ---

    def declare(self, node, is_array):
        """A fresh slot for each declaration, so a slot's binding is fixed
        even where a name is declared twice in one scope."""
        slot = self.scopes[-1][node.identifier] = len(self.frame)
        self.frame.append(UNSET)
        self.binding[slot] = (is_array, node.type_name == "int")
        return slot

    def resolve(self, node):
        """(slot, is_array, is_int) of the variable a reference names."""
        for scope in reversed(self.scopes):
            slot = scope.get(node.identifier)
            if slot is not None:
                return (slot, *self.binding[slot])
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
        """(pid, summary, getter, push, flat, fold_at): a snapshot of point
        pid is `push(getter(v))`, the scalar variables of `scopes`, outer
        scopes first, in its schema, and `flat` folds at fold_at values.
        Arrays are left out (a slot's binding never changes)."""
        assert pid not in self.points, f"point {pid} compiled twice"
        layout = [(name, slot) for scope in scopes
                  for name, slot in scope.items() if not self.binding[slot][0]]
        point = self.points[pid] = PointTrace(
            dict.fromkeys(name for name, _ in layout))
        getter, single = _row_getter(point.names, layout)
        flat = point.flat
        return (pid, point.summary, getter,
                flat.append if single else flat.extend, flat,
                self.fold_at * (len(point.names) or 1))

    # --- functions and calls ---

    def function(self, fn):
        self.scopes = [{}]
        self.frame = []  # the slots each call starts with
        self.binding = {}
        self.consts = {}  # repr of a literal -> its slot
        name = fn.identifier
        params = [(self.declare(p, False), p.type_name == "int")
                  for p in fn.children if p.kind == Kind.PARAM]
        entry = _snapshot(*self.point(f"{name}/entry", self.scopes))
        body = self.stmts(fn.children[-1].children, name)
        exit_ = _snapshot(*self.point(f"{name}/exit", self.scopes))
        returns = None if fn.type_name == "void" else fn.type_name == "int"
        return self.frame, params, body, entry, exit_, returns

    def call(self, node, pre):
        """A call; with pre=None, the call of main, which counts no step."""
        name = node.identifier
        max_steps = self.max_steps
        args = []
        if pre is not None:
            args = [self.expr(a, pre + 1 if i == 0 else 0)
                    for i, a in enumerate(node.children)]
        count = 0 if args or pre is None else pre + 1

        def call(st, v):
            st.steps += count
            values = [a(st, v) for a in args]
            if st.steps > max_steps:  # every call, as arguments may be fused
                raise TraceRuntimeError("step-limit", st.point)
            frame, params, body, entry, exit_, returns = st.functions[name]
            st.depth += 1
            if st.depth > MAX_CALL_DEPTH:
                raise TraceRuntimeError("step-limit", st.point, "call depth")
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
            st.depth -= 1
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
            out.append(self.stmt(node, pid))
        return tuple(out)

    def block(self, nodes, pid):
        """A fresh scope: the snapshot closure of its entry point, its
        statements and the point's parts (see `point`)."""
        self.scopes.append({})
        point = self.point(pid, self.scopes)
        body = self.stmts(nodes, pid)
        self.scopes.pop()
        return _snapshot(*point), body, point

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
            call = self.call(node, pre + 1)

            def call_stmt(st, v):
                call(st, v)
            return call_stmt
        if k == Kind.RETURN:
            if node.children:  # the value's closure returns it
                return self.expr(node.children[0], pre + 1)
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
            snap, body, _ = self.block(node.children, pid)

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
                    raise _unset(st, name)
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
        """An `if`, whose condition runs inline if it compares two leaves."""
        cond_node = node.children[0]
        ls, lname, _, rs, rname, _, cmp = \
            self.leaves(cond_node, _COMPARE) or (None,) * 7
        cond = self.expr(cond_node, pre + 1) if cmp is None else None
        count = pre + 4
        then_snap, then_body, _ = self.block(node.children[1].children,
                                             f"{pid}/then")
        else_snap, else_body = None, ()
        if len(node.children) == 3:
            else_snap, else_body, _ = self.block(node.children[2].children,
                                                 f"{pid}/else")

        def if_(st, v):
            if cond is None:
                st.steps += count
                x = v[ls]
                if x is UNSET:
                    raise _unset(st, lname)
                y = v[rs]
                if y is UNSET:
                    raise _unset(st, rname)
                taken = cmp(x, y)
            else:
                taken = cond(st, v)
            if taken:
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
        or step is an empty block. A cond comparing two leaves, a step that
        is ++/-- on a scalar and the body's snapshot run inline, and the
        step limit is checked at the back-edge."""
        owed = pre + 1  # the loop statement's step, and its ancestors'
        init = step = incr = None
        if node.kind == Kind.WHILE:
            cond_node, body_node = node.children
        else:
            init_node, cond_node, step_node, body_node = node.children
            if init_node.kind != Kind.BLOCK:
                init = self.stmt(init_node, None, owed)
                owed = 0
            if step_node.kind == Kind.UNARY_OP and not self.exact:
                incr = self.leaf(step_node.children[0])  # None: an array
            if incr is None and step_node.kind != Kind.BLOCK:
                step = self.stmt(step_node, None)
        islot, iname, iint = incr or (None,) * 3
        delta = 1 if incr and step_node.literal == "++" else -1
        ls, lname, _, rs, rname, _, cmp = \
            self.leaves(cond_node, _COMPARE) or (None,) * 7
        cond = self.expr(cond_node) if cmp is None else None
        pid += "/body"
        _, body, (_, summary, getter, push, flat, fold_at) = \
            self.block(body_node.children, pid)
        max_iters = self.max_iters
        max_steps = self.max_steps

        def loop(st, v):
            if init is not None:
                init(st, v)
            iters = 0
            st.steps += owed  # checked with the cond's first steps
            while True:
                if cond is None:
                    st.steps += 3
                    x = v[ls]
                    if x is UNSET:
                        raise _unset(st, lname)
                    y = v[rs]
                    if y is UNSET:
                        raise _unset(st, rname)
                    if not cmp(x, y):
                        return None
                elif not cond(st, v):
                    return None
                iters += 1
                if iters > max_iters:
                    raise TraceRuntimeError("step-limit", pid,
                                            "loop iterations")
                st.point = pid
                push(getter(v))
                if len(flat) == fold_at:
                    summary.fold(flat)
                    flat.clear()
                for s in body:
                    r = s(st, v)
                    if r is not None:
                        return r
                if incr is not None:
                    st.steps += 1
                    x = v[islot]
                    if x is UNSET:
                        raise _unset(st, iname)
                    x += delta
                    if iint and not INT_MIN <= x <= INT_MAX:
                        raise TraceRuntimeError("integer-overflow", st.point)
                    v[islot] = x
                elif step is not None:
                    step(st, v)
                if st.steps > max_steps:
                    raise TraceRuntimeError("step-limit", st.point)
        return loop

    def put(self, slot, is_int, value, pre):
        """The closure of a statement storing `value` into a scalar slot,
        inline, and fused with `value` when it is `+ - *` on two leaves."""
        fused = self.fused(value, _ARITH, pre + 3, slot, is_int)
        if fused:
            return fused
        expr = self.expr(value, pre)

        def assign(st, v):
            x = expr(st, v)
            if not (is_int and x.__class__ is int
                    and INT_MIN <= x <= INT_MAX):
                x = _convert(st, x, is_int)
            v[slot] = x
        return assign

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
        one = len(convs) == 1
        readers = [self.reader(conv, target, count if one else 0)
                   for conv, target in zip(convs, node.children)]
        if one:
            return readers[0]
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
                raise TraceRuntimeError(
                    "scanf-exhausted", st.point,
                    f"bad input token {token!r}") from None
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
        args = [self.expr(a, pre + 1 if i == 0 else 0)
                for i, a in enumerate(node.children)]
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

    def expr(self, node, pre=0):
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
                    raise _unset(st, name)
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
                    raise _unset(st, f"{name}[{i}]")
                return x
            return element

        raise ValueError(f"unexpected expression node: {k}")

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

    def leaves(self, node, ops):
        """(left slot, left name, left is_int, right slot, right name, right
        is_int, apply) of `node`, an operator in `ops` on two leaves, else
        None, as always when exact; `apply` converts as `_apply` does."""
        if self.exact:
            return None
        op = node.literal if node.kind == Kind.BINARY_OP else None
        left = self.leaf(node.children[0]) if op in ops else None
        right = left and self.leaf(node.children[1])
        if not right:
            return None
        return (*left, *right, _apply(op, left[2], right[2]))

    def fused(self, node, ops, count, slot=None, is_int=None):
        """The closure of `node`, an operator in `ops` on two leaves, or None
        if it is not one. It counts `count` steps (its own and what it owes),
        reads the left leaf and the right, applies the operator, and returns
        the value or stores it into `slot`."""
        found = self.leaves(node, ops)
        if not found:
            return None
        ls, lname, lint, rs, rname, rint, apply = found
        compare = node.literal in _COMPARE
        int_result = lint and rint
        as_is = int_result == is_int  # the value needs no conversion

        def leaf_op(st, v):
            st.steps += count
            x = v[ls]
            if x is UNSET:
                raise _unset(st, lname)
            y = v[rs]
            if y is UNSET:
                raise _unset(st, rname)
            x = apply(x, y)
            if compare:
                return 1 if x else 0
            if int_result and not INT_MIN <= x <= INT_MAX:
                raise TraceRuntimeError("integer-overflow", st.point)
            if slot is None:
                return x
            v[slot] = x if as_is else _convert(st, x, is_int)
        return leaf_op

    def leaf_vs_arith(self, node, count):
        """The closure of `node`, a compare of a leaf with `+ - *` on two
        leaves (`i < n - 1`), or None. It counts `count` steps and reads the
        left leaf, then the right operand as `fused` would, and compares."""
        op = node.literal
        left = self.leaf(node.children[0]) if op in _COMPARE else None
        right = left and self.leaves(node.children[1], _ARITH)
        if not right:
            return None
        xs, xname, xint = left
        ys, yname, yint, zs, zname, zint, arith = right
        int_result = yint and zint
        cmp = _apply(op, xint, int_result)

        def leaf_vs_arith(st, v):
            st.steps += count
            x = v[xs]
            if x is UNSET:
                raise _unset(st, xname)
            y = v[ys]
            if y is UNSET:
                raise _unset(st, yname)
            z = v[zs]
            if z is UNSET:
                raise _unset(st, zname)
            y = arith(y, z)
            if int_result and not INT_MIN <= y <= INT_MAX:
                raise TraceRuntimeError("integer-overflow", st.point)
            return 1 if cmp(x, y) else 0
        return leaf_vs_arith

    def binary(self, node, count):
        fused = (self.fused(node, _FUSED, count + 2)
                 or self.leaf_vs_arith(node, count + 4))
        if fused:
            return fused
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


def normalize_output(s):
    lines = [line.rstrip() for line in s.split("\n")]
    return "\n".join(lines).rstrip("\n")


class _Program:
    """A translation unit compiled for one set of limits, recording into
    one log; fused, or with `exact`, not."""

    def __init__(self, tree, limits, log, exact=False):
        limits = limits or Limits()
        compiler = _Compiler(tree, limits, log, exact)
        self.log = log
        # A fast count past max_steps calls for an exact run; an exact
        # count never does.
        self.replay_past = math.inf if exact else limits.max_steps
        self.functions = compiler.functions
        self.main = None
        if "main" in compiler.functions:
            self.main = compiler.call(Node(Kind.CALL, identifier="main"), None)

    def run(self, test):
        """Run one test, adding its snapshots and any error to the log, and
        its output too when the log records. Returns the verdict, or None
        when the count ran ahead past max_steps and the test needs an exact
        run."""
        st = _State(self.functions, test.stdin_text)
        log = self.log
        verdict = "error"
        try:
            try:
                if self.main is None:
                    raise TraceRuntimeError("uninitialized-read", "start",
                                            "no 'main' function")
                self.main(st, None)
            except RecursionError:  # Python's stack ran out before the cap
                st.steps = math.inf  # where depends on fusion: run exactly
                raise TraceRuntimeError("step-limit", st.point,
                                        "call depth") from None
            ok = (normalize_output("".join(st.out))
                  == normalize_output(test.expected_stdout))
            verdict = "pass" if ok else "fail"
        except TraceRuntimeError as e:
            log.errors.append(str(e))
        if log.record:
            log.outputs.append("".join(st.out))
        return None if st.steps > self.replay_past else verdict


def _row_getter(names, layout):
    """(getter, single): a function from a frame to a snapshot's values,
    one per name in `names`, the layout's names, and whether it returns
    the one value itself rather than a sequence of them. A name declared
    again in an inner scope takes the inner value once that is set, else
    the outer one."""
    if not layout:  # a snapshot of no variable is a None, only counted
        return (lambda v: None), True
    slot_of = dict(layout)
    if len(slot_of) == len(layout):  # no name declared twice
        return (operator.itemgetter(*(slot_of[name] for name in names)),
                len(names) == 1)
    candidates = [[slot for n, slot in layout if n == name] for name in names]

    def shadowed(v):
        row = []
        for found in candidates:
            x = UNSET
            for slot in found:
                if v[slot] is not UNSET:
                    x = v[slot]
            row.append(x)
        return row
    return shadowed, False


def execute(tree, test, limits=None):
    """Run one test, recorded. Returns (TraceLog, stdout, verdict)."""
    log, (verdict,) = run_suite(tree, [test], limits, record=True)
    return log, log.outputs[0], verdict


def run_suite(tree, tests, limits=None, record=False):
    """Run every test; returns (merged TraceLog, verdict list). Tests run
    in order, so recording straight into one log gives each point its
    snapshots in test order. Each point's summary covers every snapshot;
    with record=True the log also keeps the snapshots themselves. At the
    first test whose count runs past max_steps, the suite runs again from
    the start, compiled exact, into a fresh log."""
    if not tests:
        raise ValueError("test suite is empty")
    log = TraceLog(record)
    program = _Program(tree, limits, log)
    verdicts = []
    for test in tests:
        verdicts.append(program.run(test))
        if verdicts[-1] is None:
            log = TraceLog(record)
            program = _Program(tree, limits, log, exact=True)
            verdicts = [program.run(test) for test in tests]
            break
    for point in log.points.values():
        point.summary.fold(point.flat)
        if not record:
            point.flat.clear()
    return log, verdicts
