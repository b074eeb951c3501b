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
    scope_path: tuple
    order: int  # declaration order
    new_name: str | None = None


@dataclass
class RenameMap:
    entries: list = field(default_factory=list)  # (original, scope_path, new_name)

    def as_dict(self):
        return {
            "entries": [
                {"original": o, "scope_path": list(p), "new_name": n}
                for o, p, n in self.entries
            ]
        }

    def mapping(self):
        """original -> new_name; later entries win (handy for flat programs)."""
        return {o: n for o, p, n in self.entries}


class _Resolver:
    """Walks the tree in text order, resolving references and recording
    first-binding events."""

    def __init__(self):
        self.vars = []           # all _Var, in declaration order
        self.resolved = {}       # id(node) -> _Var for every reference/decl
        self.events = []         # _Var, in first-binding text order
        self._bound = set()

    def run(self, root):
        for idx, fn in enumerate(root.children):
            scopes = [{}]
            path = (idx,)
            for p in (c for c in fn.children if c.kind == Kind.PARAM):
                var = self._declare(p, scopes, path)
                self._bind(var)
            self._walk_block(fn.children[-1], scopes, path + (0,))

    def _declare(self, node, scopes, path):
        var = _Var(node.identifier, node.type_name, path, len(self.vars))
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
        if id(var) not in self._bound:
            self._bound.add(id(var))
            self.events.append(var)

    def _walk_block(self, block, scopes, path):
        scopes.append({})
        child_scope = 0
        for stmt in block.children:
            child_scope += self._walk_stmt(stmt, scopes, path, child_scope)
        scopes.pop()

    def _walk_stmt(self, node, scopes, path, nth):
        """Returns how many child scopes this statement opened."""
        k = node.kind
        if k in (Kind.DECL, Kind.ARRAY_DECL):
            var = self._declare(node, scopes, path)
            if node.children:  # initializer
                self._walk_expr(node.children[0], scopes)
                self._bind(var)
            return 0
        if k == Kind.ASSIGN:
            target, value = node.children
            self._bind_target(target, scopes)
            self._walk_expr(value, scopes)
            return 0
        if k == Kind.UNARY_OP:  # ++/-- statement
            self._bind(self._lookup(node.children[0], scopes))
            return 0
        if k == Kind.SCANF:
            for target in node.children:
                self._bind_target(target, scopes)
            return 0
        if k == Kind.PRINTF or k == Kind.CALL:
            for c in node.children:
                self._walk_expr(c, scopes)
            return 0
        if k == Kind.RETURN:
            for c in node.children:
                self._walk_expr(c, scopes)
            return 0
        if k == Kind.BLOCK:
            self._walk_block(node, scopes, path + (nth,))
            return 1
        if k == Kind.IF:
            self._walk_expr(node.children[0], scopes)
            opened = 0
            for branch in node.children[1:]:
                self._walk_block(branch, scopes, path + (nth + opened,))
                opened += 1
            return opened
        if k == Kind.WHILE:
            self._walk_expr(node.children[0], scopes)
            self._walk_block(node.children[1], scopes, path + (nth,))
            return 1
        if k == Kind.FOR:
            init, cond, step, body = node.children
            if init.kind != Kind.BLOCK:
                self._walk_stmt(init, scopes, path, nth)
            self._walk_expr(cond, scopes)
            # step runs after the body but precedes it in text order;
            # binding order is textual, so record it before the body.
            if step.kind != Kind.BLOCK:
                self._walk_stmt(step, scopes, path, nth)
            self._walk_block(body, scopes, path + (nth,))
            return 1
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
    bound_ids = {id(v) for v in res.events}
    ordered = res.events + sorted(
        (v for v in res.vars if id(v) not in bound_ids), key=lambda v: v.order
    )
    rmap = RenameMap()
    for var in ordered:
        prefix = _PREFIX[var.type_name]
        var.new_name = f"{prefix}{counters[prefix]}"
        counters[prefix] += 1
        rmap.entries.append((var.name, var.scope_path, var.new_name))

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
