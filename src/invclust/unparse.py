"""Canonical source emission: 2-space indent, one statement per line,
mandatory braces on control bodies."""

import math

from .lexer import ESCAPES
from .nodes import Kind, fmt_literal
from .parser import BINARY_PREC

# Binds tighter than every binary operator.
_UNARY_PREC = max(BINARY_PREC.values()) + 1

_ESCAPE = str.maketrans({c: "\\" + e for e, c in ESCAPES.items()})


def unparse_expr(node, parent_prec=0):
    k = node.kind
    if k == Kind.LITERAL:
        if node.literal == math.inf:
            return "1e999"  # overflows back to inf when lexed
        return fmt_literal(node.literal)
    if k == Kind.IDENT_REF:
        return node.identifier
    if k == Kind.ARRAY_INDEX:
        base, idx = node.children
        return f"{unparse_expr(base)}[{unparse_expr(idx)}]"
    if k == Kind.CALL:
        args = ", ".join(unparse_expr(a) for a in node.children)
        return f"{node.identifier}({args})"
    if k == Kind.UNARY_OP:
        op = node.literal
        inner = unparse_expr(node.children[0], _UNARY_PREC)
        if op == "-" and inner.startswith("-"):
            # A space, not parentheses: "--" would lex as decrement, and
            # each parenthesis would be a parser nesting level of its own.
            return f"{op} {inner}"
        return f"{op}{inner}"
    if k == Kind.BINARY_OP:
        op = node.literal
        prec = BINARY_PREC[op]
        lhs = unparse_expr(node.children[0], prec)
        rhs = unparse_expr(node.children[1], prec + 1)
        s = f"{lhs} {op} {rhs}"
        return f"({s})" if prec < parent_prec else s
    raise ValueError(f"not an expression node: {k}")


def _simple(node):
    """Assignment / incdec / call without trailing semicolon (for headers)."""
    k = node.kind
    if k == Kind.ASSIGN:
        target, value = node.children
        return f"{unparse_expr(target)} = {unparse_expr(value)}"
    if k == Kind.UNARY_OP:
        return f"{unparse_expr(node.children[0])}{node.literal}"
    if k == Kind.CALL:
        return unparse_expr(node)
    if k == Kind.BLOCK and not node.children:
        return ""
    raise ValueError(f"unexpected node in statement position: {k}")


def _stmt_lines(node, indent):
    pad = "  " * indent
    k = node.kind
    if k == Kind.DECL:
        if node.children:
            yield f"{pad}{node.type_name} {node.identifier} = {unparse_expr(node.children[0])};"
        else:
            yield f"{pad}{node.type_name} {node.identifier};"
    elif k == Kind.ARRAY_DECL:
        yield f"{pad}{node.type_name} {node.identifier}[{node.literal}];"
    elif k in (Kind.ASSIGN, Kind.UNARY_OP, Kind.CALL):
        yield f"{pad}{_simple(node)};"
    elif k == Kind.RETURN:
        if node.children:
            yield f"{pad}return {unparse_expr(node.children[0])};"
        else:
            yield f"{pad}return;"
    elif k in (Kind.SCANF, Kind.PRINTF):  # each kind is its keyword
        amp = "&" if k == Kind.SCANF else ""
        args = "".join(f", {amp}{unparse_expr(a)}" for a in node.children)
        yield f'{pad}{k}("{node.literal.translate(_ESCAPE)}"{args});'
    elif k == Kind.BLOCK:
        yield f"{pad}{{"
        for c in node.children:
            yield from _stmt_lines(c, indent + 1)
        yield f"{pad}}}"
    elif k == Kind.IF:
        cond = node.children[0]
        yield f"{pad}if ({unparse_expr(cond)}) {{"
        for c in node.children[1].children:
            yield from _stmt_lines(c, indent + 1)
        if len(node.children) == 3:
            yield f"{pad}}} else {{"
            for c in node.children[2].children:
                yield from _stmt_lines(c, indent + 1)
        yield f"{pad}}}"
    elif k == Kind.WHILE:
        yield f"{pad}while ({unparse_expr(node.children[0])}) {{"
        for c in node.children[1].children:
            yield from _stmt_lines(c, indent + 1)
        yield f"{pad}}}"
    elif k == Kind.FOR:
        init, cond, step, body = node.children
        yield f"{pad}for ({_simple(init)}; {unparse_expr(cond)}; {_simple(step)}) {{"
        for c in body.children:
            yield from _stmt_lines(c, indent + 1)
        yield f"{pad}}}"
    else:
        raise ValueError(f"unexpected node in statement position: {k}")


def unparse(root):
    """Emit canonical source text for a well-formed tree."""
    if root.kind != Kind.TRANSLATION_UNIT:
        # Statement fragment: render directly (used by tests).
        return "\n".join(_stmt_lines(root, 0)) + "\n"
    chunks = []
    for fn in root.children:
        params = ", ".join(f"{p.type_name} {p.identifier}"
                           for p in fn.children if p.kind == Kind.PARAM)
        body = fn.children[-1]
        lines = [f"{fn.type_name} {fn.identifier}({params}) {{"]
        for stmt in body.children:
            lines.extend(_stmt_lines(stmt, 1))
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"
