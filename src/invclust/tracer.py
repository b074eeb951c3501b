"""Tree-walking interpreter that records variable snapshots at scope
entries. Replaces an external invariant-detector front end.

Semantics choices: 64-bit signed ints with trapped overflow, trapped
uninitialized reads, truncating division, %d prints decimal, %f/%lf print
with 6 decimal places.
"""

import json
from dataclasses import dataclass, field

from .errors import TraceRuntimeError
from .nodes import Kind

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

POINT_FUNCTION_ENTRY = "function-entry"
POINT_FUNCTION_EXIT = "function-exit"
POINT_LOOP_BODY = "loop-body"
POINT_THEN = "then-block"
POINT_ELSE = "else-block"
POINT_PLAIN = "plain-block"


@dataclass
class TestCase:
    __test__ = False  # keep pytest from collecting this as a test class

    stdin_text: str
    expected_stdout: str


@dataclass
class Limits:
    max_steps: int = 10_000_000
    max_loop_iters: int = 1_000_000


@dataclass
class TraceLog:
    samples: dict = field(default_factory=dict)      # point id -> [snapshot]
    point_kinds: dict = field(default_factory=dict)  # point id -> kind
    outputs: list = field(default_factory=list)      # captured stdout per test
    errors: list = field(default_factory=list)       # diagnostics per test

    def record(self, point_id, kind, snapshot):
        self.samples.setdefault(point_id, []).append(snapshot)
        self.point_kinds[point_id] = kind

    def extend(self, other):
        for pid, snaps in other.samples.items():
            self.samples.setdefault(pid, []).extend(snaps)
            self.point_kinds[pid] = other.point_kinds[pid]
        self.outputs.extend(other.outputs)
        self.errors.extend(other.errors)

    def to_json(self):
        return json.dumps(
            {
                "samples": {p: self.samples[p] for p in sorted(self.samples)},
                "point_kinds": {p: self.point_kinds[p] for p in sorted(self.point_kinds)},
                "outputs": self.outputs,
                "errors": self.errors,
            },
            sort_keys=True,
        )


class _Return(Exception):
    def __init__(self, value):
        self.value = value


_UNINIT = object()


class _Cell:
    __slots__ = ("type_name", "value")

    def __init__(self, type_name, value=_UNINIT):
        self.type_name = type_name
        self.value = value


class _Interp:
    def __init__(self, root, stdin_text, limits):
        self.functions = {fn.identifier: fn for fn in root.children}
        self.stdin = stdin_text.split()
        self.stdin_pos = 0
        self.limits = limits
        self.steps = 0
        self.out = []
        self.log = TraceLog()
        self.scopes = []       # stack of frames; each frame: list of dicts
        self.point = "start"   # most recently entered point, for diagnostics
        self.depth = 0

    # --- bookkeeping ---

    def step(self):
        self.steps += 1
        if self.steps > self.limits.max_steps:
            raise TraceRuntimeError("step-limit", self.point)

    def snapshot(self, point_id, kind):
        self.point = point_id
        snap = {}
        for scope in self.scopes[-1]:
            for name, cell in scope.items():
                if isinstance(cell.value, list) or cell.value is _UNINIT:
                    continue  # arrays and unset variables are not sampled
                snap[name] = cell.value
        self.log.record(point_id, kind, snap)

    def declare(self, name, type_name, value=_UNINIT):
        self.scopes[-1][-1][name] = _Cell(type_name, value)

    def cell(self, node):
        for scope in reversed(self.scopes[-1]):
            if node.identifier in scope:
                return scope[node.identifier]
        raise TraceRuntimeError("uninitialized-read", self.point,
                                f"unknown variable '{node.identifier}'")

    # --- value helpers ---

    def check_int(self, v):
        if not (INT_MIN <= v <= INT_MAX):
            raise TraceRuntimeError("integer-overflow", self.point)
        return v

    def convert(self, value, type_name):
        if type_name == "int":
            if isinstance(value, float):
                value = int(value)  # trunc toward zero
            return self.check_int(value)
        return float(value)

    # --- execution ---

    def run_main(self):
        if "main" not in self.functions:
            raise TraceRuntimeError("uninitialized-read", "start",
                                    "no 'main' function")
        self.call(self.functions["main"], [])

    def call(self, fn, args):
        self.depth += 1
        if self.depth > 400:
            raise TraceRuntimeError("step-limit", self.point, "call depth")
        frame = [dict()]
        self.scopes.append(frame)
        params = [c for c in fn.children if c.kind == Kind.PARAM]
        for p, a in zip(params, args):
            frame[0][p.identifier] = _Cell(p.type_name, self.convert(a, p.type_name))
        name = fn.identifier
        self.snapshot(f"{name}/entry", POINT_FUNCTION_ENTRY)
        ret = None
        try:
            self.exec_stmts(fn.children[-1].children, name)
        except _Return as r:
            ret = r.value
        self.snapshot(f"{name}/exit", POINT_FUNCTION_EXIT)
        self.scopes.pop()
        self.depth -= 1
        if ret is not None and fn.type_name != "void":
            ret = self.convert(ret, fn.type_name)
        return ret

    def exec_stmts(self, stmts, path):
        for stmt in stmts:
            self.exec_stmt(stmt, path)

    def exec_stmt(self, node, path):
        self.step()
        k = node.kind
        if k == Kind.DECL:
            if node.children:
                value = self.convert(self.eval(node.children[0]), node.type_name)
                self.declare(node.identifier, node.type_name, value)
            else:
                self.declare(node.identifier, node.type_name)
        elif k == Kind.ARRAY_DECL:
            cell = _Cell(node.type_name)
            cell.value = [_UNINIT] * node.literal
            self.scopes[-1][-1][node.identifier] = cell
        elif k == Kind.ASSIGN:
            target, expr = node.children
            self.store(target, self.eval(expr))
        elif k == Kind.UNARY_OP:  # ++/-- statement
            cell = self.cell(node.children[0])
            if cell.value is _UNINIT:
                raise TraceRuntimeError("uninitialized-read", self.point,
                                        node.children[0].identifier)
            delta = 1 if node.literal == "++" else -1
            cell.value = self.convert(cell.value + delta, cell.type_name)
        elif k == Kind.SCANF:
            self.do_scanf(node)
        elif k == Kind.PRINTF:
            self.do_printf(node)
        elif k == Kind.CALL:
            self.eval(node)
        elif k == Kind.RETURN:
            value = self.eval(node.children[0]) if node.children else None
            raise _Return(value)
        elif k == Kind.BLOCK:
            pid = f"{path}/block@L{node.line}"
            self.enter_scope()
            self.snapshot(pid, POINT_PLAIN)
            try:
                self.exec_stmts(node.children, pid)
            finally:
                self.exit_scope()
        elif k == Kind.IF:
            cond = self.truthy(self.eval(node.children[0]))
            pid = f"{path}/if@L{node.line}"
            if cond:
                self.enter_scope()
                self.snapshot(f"{pid}/then", POINT_THEN)
                try:
                    self.exec_stmts(node.children[1].children, f"{pid}/then")
                finally:
                    self.exit_scope()
            elif len(node.children) == 3:
                self.enter_scope()
                self.snapshot(f"{pid}/else", POINT_ELSE)
                try:
                    self.exec_stmts(node.children[2].children, f"{pid}/else")
                finally:
                    self.exit_scope()
        elif k == Kind.WHILE:
            pid = f"{path}/while@L{node.line}/body"
            iters = 0
            while self.truthy(self.eval(node.children[0])):
                iters += 1
                if iters > self.limits.max_loop_iters:
                    raise TraceRuntimeError("step-limit", pid, "loop iterations")
                self.enter_scope()
                self.snapshot(pid, POINT_LOOP_BODY)
                try:
                    self.exec_stmts(node.children[1].children, pid)
                finally:
                    self.exit_scope()
        elif k == Kind.FOR:
            init, cond, step, body = node.children
            pid = f"{path}/for@L{node.line}/body"
            if init.kind != Kind.BLOCK:
                self.exec_stmt(init, path)
            iters = 0
            while self.truthy(self.eval(cond)):
                iters += 1
                if iters > self.limits.max_loop_iters:
                    raise TraceRuntimeError("step-limit", pid, "loop iterations")
                self.enter_scope()
                self.snapshot(pid, POINT_LOOP_BODY)
                try:
                    self.exec_stmts(body.children, pid)
                finally:
                    self.exit_scope()
                if step.kind != Kind.BLOCK:
                    self.exec_stmt(step, path)
        else:
            raise ValueError(f"unexpected statement node: {k}")

    def enter_scope(self):
        self.scopes[-1].append(dict())

    def exit_scope(self):
        self.scopes[-1].pop()

    def store(self, target, value):
        if target.kind == Kind.IDENT_REF:
            cell = self.cell(target)
            if isinstance(cell.value, list):
                raise TraceRuntimeError("type-error", self.point,
                                        f"array '{target.identifier}' used as scalar")
            cell.value = self.convert(value, cell.type_name)
        else:  # array element
            cell, idx = self.array_slot(target)
            cell.value[idx] = self.convert(value, cell.type_name)

    def array_slot(self, node):
        base, idx_expr = node.children
        cell = self.cell(base)
        if not isinstance(cell.value, list):
            raise TraceRuntimeError("type-error", self.point,
                                    f"'{base.identifier}' is not an array")
        idx = self.eval(idx_expr)
        if isinstance(idx, float):
            raise TraceRuntimeError("type-error", self.point, "non-integer index")
        if not (0 <= idx < len(cell.value)):
            raise TraceRuntimeError("array-out-of-bounds", self.point,
                                    f"{base.identifier}[{idx}]")
        return cell, idx

    def do_scanf(self, node):
        convs = []
        i = 0
        fmt = node.literal
        while i < len(fmt):
            if fmt[i] == "%":
                if fmt[i + 1] == "d":
                    convs.append("d")
                    i += 2
                else:
                    convs.append("lf")
                    i += 3
            else:
                i += 1
        for conv, target in zip(convs, node.children):
            if self.stdin_pos >= len(self.stdin):
                raise TraceRuntimeError("scanf-exhausted", self.point)
            token = self.stdin[self.stdin_pos]
            self.stdin_pos += 1
            try:
                value = int(token) if conv == "d" else float(token)
            except ValueError:
                raise TraceRuntimeError("scanf-exhausted", self.point,
                                        f"bad input token {token!r}") from None
            self.store(target, value)

    def do_printf(self, node):
        fmt = node.literal
        args = [self.eval(a) for a in node.children]
        out = []
        i = 0
        ai = 0
        while i < len(fmt):
            c = fmt[i]
            if c == "%":
                nxt = fmt[i + 1]
                if nxt == "%":
                    out.append("%")
                    i += 2
                elif nxt == "d":
                    v = args[ai]
                    ai += 1
                    out.append(str(int(v)))
                    i += 2
                elif nxt == "f":
                    v = args[ai]
                    ai += 1
                    out.append(f"{float(v):.6f}")
                    i += 2
                else:  # lf
                    v = args[ai]
                    ai += 1
                    out.append(f"{float(v):.6f}")
                    i += 3
            else:
                out.append(c)
                i += 1
        self.out.append("".join(out))

    def truthy(self, v):
        return v != 0

    def eval(self, node):
        self.step()
        k = node.kind
        if k == Kind.LITERAL:
            return node.literal
        if k == Kind.IDENT_REF:
            cell = self.cell(node)
            if isinstance(cell.value, list):
                raise TraceRuntimeError("type-error", self.point,
                                        f"array '{node.identifier}' used as scalar")
            if cell.value is _UNINIT:
                raise TraceRuntimeError("uninitialized-read", self.point,
                                        node.identifier)
            return cell.value
        if k == Kind.ARRAY_INDEX:
            cell, idx = self.array_slot(node)
            v = cell.value[idx]
            if v is _UNINIT:
                raise TraceRuntimeError("uninitialized-read", self.point,
                                        f"{node.children[0].identifier}[{idx}]")
            return v
        if k == Kind.CALL:
            args = [self.eval(a) for a in node.children]
            ret = self.call(self.functions[node.identifier], args)
            if ret is None:
                return 0  # void call used as a statement
            return ret
        if k == Kind.UNARY_OP:
            if node.literal == "-":
                v = self.eval(node.children[0])
                v = -v
                if isinstance(v, int):
                    self.check_int(v)
                return v
            if node.literal == "!":
                return 0 if self.truthy(self.eval(node.children[0])) else 1
            raise ValueError(f"unexpected unary operator {node.literal!r}")
        if k == Kind.BINARY_OP:
            op = node.literal
            if op == "&&":
                if not self.truthy(self.eval(node.children[0])):
                    return 0
                return 1 if self.truthy(self.eval(node.children[1])) else 0
            if op == "||":
                if self.truthy(self.eval(node.children[0])):
                    return 1
                return 1 if self.truthy(self.eval(node.children[1])) else 0
            a = self.eval(node.children[0])
            b = self.eval(node.children[1])
            if op == "<":
                return 1 if a < b else 0
            if op == ">":
                return 1 if a > b else 0
            if op == "<=":
                return 1 if a <= b else 0
            if op == ">=":
                return 1 if a >= b else 0
            if op == "==":
                return 1 if a == b else 0
            if op == "!=":
                return 1 if a != b else 0
            both_int = isinstance(a, int) and isinstance(b, int)
            if op == "+":
                r = a + b
            elif op == "-":
                r = a - b
            elif op == "*":
                r = a * b
            elif op == "/":
                if b == 0:
                    raise TraceRuntimeError("div-by-zero", self.point)
                if both_int:
                    r = abs(a) // abs(b)
                    if (a < 0) != (b < 0):
                        r = -r
                else:
                    r = (a + 0.0) / b
            elif op == "%":
                if not both_int:
                    raise TraceRuntimeError("type-error", self.point,
                                            "'%' on non-integers")
                if b == 0:
                    raise TraceRuntimeError("div-by-zero", self.point)
                q = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    q = -q
                r = a - q * b
            else:
                raise ValueError(f"unexpected operator {op!r}")
            if both_int:
                self.check_int(r)
            return r
        raise ValueError(f"unexpected expression node: {k}")


def normalize_output(s):
    lines = [line.rstrip() for line in s.split("\n")]
    return "\n".join(lines).rstrip("\n")


def execute(tree, test, limits=None):
    """Run one test. Returns (TraceLog, stdout, verdict)."""
    limits = limits or Limits()
    root = tree.root if hasattr(tree, "root") else tree
    interp = _Interp(root, test.stdin_text, limits)
    verdict = "error"
    try:
        try:
            interp.run_main()
        except RecursionError:  # Python's stack ran out before the call cap
            raise TraceRuntimeError("step-limit", interp.point,
                                    "call depth") from None
        stdout = "".join(interp.out)
        ok = normalize_output(stdout) == normalize_output(test.expected_stdout)
        verdict = "pass" if ok else "fail"
    except TraceRuntimeError as e:
        stdout = "".join(interp.out)
        interp.log.errors.append(f"{e.kind} at {e.point}" +
                                 (f": {e.detail}" if e.detail else ""))
    interp.log.outputs.append(stdout)
    return interp.log, stdout, verdict


def run_suite(tree, tests, limits=None):
    """Run every test; returns (merged TraceLog, verdict list)."""
    if not tests:
        raise ValueError("test suite is empty")
    merged = TraceLog()
    verdicts = []
    for test in tests:
        log, _, verdict = execute(tree, test, limits)
        merged.extend(log)
        verdicts.append(verdict)
    return merged, verdicts
