"""Anonymized AST: identifiers replaced by the token ID, plus the
deterministic string serialization fed to the bag-of-words stage."""

from dataclasses import dataclass

from .nodes import Kind, copy_tree, count_nodes, fmt_literal, walk

ANON_TOKEN = "ID"


@dataclass
class AASTString:
    text: str
    node_count: int


def anonymize(tree):
    """Replace every identifier with ID; literals and structure kept."""
    root = copy_tree(tree)
    for node in walk(root):
        if node.identifier is not None:
            node.identifier = ANON_TOKEN
    return root


def _serialize(node):
    parts = []
    if node.identifier is not None:
        parts.append(f"id:{node.identifier}")
    if node.type_name is not None:
        parts.append(f"type:{node.type_name}")
    if node.literal is not None:
        if node.kind == Kind.LITERAL:
            parts.append(fmt_literal(node.literal))
        elif node.kind in (Kind.BINARY_OP, Kind.UNARY_OP):
            parts.append(f"op:{node.literal}")
        elif node.kind in (Kind.SCANF, Kind.PRINTF):
            parts.append(f"fmt:{node.literal}")
        elif node.kind == Kind.ARRAY_DECL:
            parts.append(f"size:{node.literal}")
        else:
            parts.append(fmt_literal(node.literal))
    parts.extend(_serialize(c) for c in node.children)
    return f"{node.kind}({','.join(parts)})"


def serialize_aast(tree):
    return AASTString(text=_serialize(tree), node_count=count_nodes(tree))
