"""Canonical variable renaming.

Every variable becomes <prefix><k> where the prefix is "int" or "float"
(double maps to "float") and k counts, per prefix, the order in which
variables first receive a value in program-text order. Value-binding events
are: declaration initializer, assignment, scanf target, ++/--, and function
parameters (bound at call entry, counted at their declaration position).
Variables never assigned are numbered after all assigned ones, in
declaration order. Function names are left alone.
"""

from dataclasses import dataclass, field

from .errors import UnresolvedIdentifier
from .nodes import Kind, Node, structurally_equal

_PREFIX = {"int": "int", "double": "float"}


@dataclass
class _Var:
    name: str
    type_name: str
    line: int  # of its declaration
    new_name: str | None = None


@dataclass
class RenameMap:
    entries: list = field(default_factory=list)  # (original, line, new_name)

    def as_dict(self):
        return {
            "entries": [
                {"original": o, "line": line, "new_name": n}
                for o, line, n in self.entries
            ]
        }

    def mapping(self):
        """original -> new_name; later entries win (handy for flat programs)."""
        return {o: n for o, _, n in self.entries}


class _Resolver:
    """Walks the tree in text order, resolving references and recording
    first-binding events."""

    def __init__(self):
        self.vars = []           # all _Var, in declaration order
        self.resolved = {}       # id(node) -> _Var for every reference/decl
        self.events = {}         # id(_Var) -> _Var, in first-binding text order

    def run(self, root):
        for fn in root.children:
            scopes = [{}]
            for p in (c for c in fn.children if c.kind == Kind.PARAM):
                self._bind(self._declare(p, scopes))
            self._walk_block(fn.children[-1], scopes)

    def _declare(self, node, scopes):
        var = _Var(node.identifier, node.type_name, node.line)
        self.vars.append(var)
        scopes[-1][node.identifier] = var
        self.resolved[id(node)] = var
        return var

    def _lookup(self, node, scopes):
        for scope in reversed(scopes):
            if node.identifier in scope:
                self.resolved[id(node)] = scope[node.identifier]
                return scope[node.identifier]
        raise UnresolvedIdentifier(node.identifier, node.line)

    def _bind(self, var):
        self.events.setdefault(id(var), var)

    def _walk_block(self, block, scopes):
        scopes.append({})
        for stmt in block.children:
            self._walk_stmt(stmt, scopes)
        scopes.pop()

    def _walk_stmt(self, node, scopes):
        k = node.kind
        if k in (Kind.DECL, Kind.ARRAY_DECL):
            var = self._declare(node, scopes)
            if node.children:  # initializer
                self._walk_expr(node.children[0], scopes)
                self._bind(var)
        elif k == Kind.ASSIGN:
            target, value = node.children
            self._bind_target(target, scopes)
            self._walk_expr(value, scopes)
        elif k == Kind.UNARY_OP:  # ++/-- statement
            self._bind(self._lookup(node.children[0], scopes))
        elif k == Kind.SCANF:
            for target in node.children:
                self._bind_target(target, scopes)
        elif k in (Kind.PRINTF, Kind.CALL, Kind.RETURN):
            for c in node.children:
                self._walk_expr(c, scopes)
        elif k == Kind.BLOCK:
            self._walk_block(node, scopes)
        elif k in (Kind.IF, Kind.WHILE):
            self._walk_expr(node.children[0], scopes)
            for body in node.children[1:]:
                self._walk_block(body, scopes)
        elif k == Kind.FOR:
            init, cond, step, body = node.children
            if init.kind != Kind.BLOCK:
                self._walk_stmt(init, scopes)
            self._walk_expr(cond, scopes)
            # step runs after the body but precedes it in text order;
            # binding order is textual, so record it before the body.
            if step.kind != Kind.BLOCK:
                self._walk_stmt(step, scopes)
            self._walk_block(body, scopes)
        else:
            raise ValueError(f"unexpected statement node: {k}")

    def _bind_target(self, target, scopes):
        base = target
        if target.kind == Kind.ARRAY_INDEX:
            base = target.children[0]
            self._walk_expr(target.children[1], scopes)
        self._bind(self._lookup(base, scopes))

    def _walk_expr(self, node, scopes):
        if node.kind == Kind.IDENT_REF:
            self._lookup(node, scopes)
            return
        for c in node.children:
            self._walk_expr(c, scopes)


def rename(tree):
    """Returns (renamed copy of the tree, RenameMap); the tree is left
    unchanged."""
    res = _Resolver()
    res.run(tree)

    counters = {"int": 0, "float": 0}
    ordered = list(res.events.values()) + [
        v for v in res.vars if id(v) not in res.events]
    rmap = RenameMap()
    for var in ordered:
        prefix = _PREFIX[var.type_name]
        var.new_name = f"{prefix}{counters[prefix]}"
        counters[prefix] += 1
        rmap.entries.append((var.name, var.line, var.new_name))

    def rewrite(node):
        var = res.resolved.get(id(node))
        return Node(node.kind,
                    node.identifier if var is None else var.new_name,
                    node.type_name, node.literal,
                    [rewrite(c) for c in node.children], node.line, node.col)

    return rewrite(tree), rmap


def alpha_equivalent(a, b):
    """True iff the two trees are identical after canonical renaming."""
    ra, _ = rename(a)
    rb, _ = rename(b)
    return structurally_equal(ra, rb)
