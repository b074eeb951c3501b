"""Anonymized AST: identifiers replaced by the token ID, plus the
deterministic string serialization fed to the bag-of-words stage."""

from dataclasses import dataclass

from .nodes import Kind, SyntaxTree, copy_tree, count_nodes, walk

ANON_TOKEN = "ID"


@dataclass
class AASTString:
    text: str
    node_count: int


def anonymize(tree):
    """Replace every identifier with ID; literals and structure kept."""
    root = copy_tree(tree.root if hasattr(tree, "root") else tree)
    for node in walk(root):
        if node.identifier is not None:
            node.identifier = ANON_TOKEN
    return SyntaxTree(root=root)


def _fmt_value(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _serialize(node):
    parts = []
    if node.identifier is not None:
        parts.append(f"id:{node.identifier}")
    if node.type_name is not None:
        parts.append(f"type:{node.type_name}")
    if node.literal is not None:
        if node.kind == Kind.LITERAL:
            parts.append(_fmt_value(node.literal))
        elif node.kind in (Kind.BINARY_OP, Kind.UNARY_OP):
            parts.append(f"op:{node.literal}")
        elif node.kind in (Kind.SCANF, Kind.PRINTF):
            parts.append(f"fmt:{node.literal}")
        elif node.kind == Kind.ARRAY_DECL:
            parts.append(f"size:{node.literal}")
        else:
            parts.append(_fmt_value(node.literal))
    parts.extend(_serialize(c) for c in node.children)
    return f"{node.kind}({','.join(parts)})"


def serialize_aast(tree):
    root = tree.root if hasattr(tree, "root") else tree
    return AASTString(text=_serialize(root), node_count=count_nodes(root))
