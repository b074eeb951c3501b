"""Syntax tree node definitions for the supported C subset."""

from dataclasses import dataclass, field


class Kind:
    TRANSLATION_UNIT = "translation-unit"
    FUNCTION_DEF = "function-def"
    PARAM = "param"
    DECL = "decl"
    ASSIGN = "assign"
    BINARY_OP = "binary-op"
    UNARY_OP = "unary-op"
    IF = "if"
    WHILE = "while"
    FOR = "for"
    BLOCK = "block"
    CALL = "call"
    RETURN = "return"
    SCANF = "scanf"
    PRINTF = "printf"
    IDENT_REF = "identifier-ref"
    LITERAL = "literal"
    ARRAY_DECL = "array-decl"
    ARRAY_INDEX = "array-index"


@dataclass
class Node:
    """One tree node.

    The literal slot is overloaded by kind: the value for literal nodes,
    the operator for binary-op/unary-op, the format string for
    scanf/printf, and the element count for array-decl.
    """

    kind: str
    identifier: str | None = None
    type_name: str | None = None
    literal: object = None
    children: list = field(default_factory=list)
    line: int = 0
    col: int = 0


def structurally_equal(a, b):
    """Positional equality ignoring source locations."""
    if a.kind != b.kind or a.identifier != b.identifier or a.type_name != b.type_name:
        return False
    if type(a.literal) is not type(b.literal) or a.literal != b.literal:
        return False
    if len(a.children) != len(b.children):
        return False
    return all(structurally_equal(x, y) for x, y in zip(a.children, b.children))


def fmt_literal(v):
    """A literal or observed value as text: repr for doubles, so they read
    back exactly, str otherwise."""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def copy_tree(node):
    return Node(
        kind=node.kind,
        identifier=node.identifier,
        type_name=node.type_name,
        literal=node.literal,
        children=[copy_tree(c) for c in node.children],
        line=node.line,
        col=node.col,
    )


def count_nodes(node):
    return 1 + sum(count_nodes(c) for c in node.children)


def walk(node):
    yield node
    for c in node.children:
        yield from walk(c)


@dataclass
class SourceProgram:
    id: str
    label: str
    text: str


@dataclass
class Assignment:
    label: str
    programs: list
    tests: list


@dataclass
class Corpus:
    assignments: dict = field(default_factory=dict)  # label -> Assignment
