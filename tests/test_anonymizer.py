"""AAST anonymization and serialization tests."""

import random
import re

from invclust.anonymizer import anonymize, serialize_aast
from invclust.nodes import Kind, Node, count_nodes, structurally_equal, walk
from invclust.parser import parse
from invclust.renamer import rename

from conftest import LEFT_SRC, RIGHT_SRC, gen_program


def test_decl_serialization_golden():
    node = Node(Kind.DECL, identifier="ID", type_name="int")
    assert serialize_aast(node).text == "decl(id:ID,type:int)"


def test_decl_anonymized_from_source():
    tree = anonymize(parse("int main() {\n  int i;\n}\n"))
    decls = [n for n in walk(tree) if n.kind == Kind.DECL]
    assert decls[0].identifier == "ID"
    assert decls[0].type_name == "int"


def test_empty_block_serialization():
    assert serialize_aast(Node(Kind.BLOCK)).text == "block()"


def test_call_identifier_becomes_id():
    src = ("int f(int x) {\n  return x;\n}\n"
           "int main() {\n  int y;\n  y = f(3);\n}\n")
    tree = anonymize(parse(src))
    calls = [n for n in walk(tree) if n.kind == Kind.CALL]
    assert calls and all(c.identifier == "ID" for c in calls)


def test_anonymize_idempotent():
    once = anonymize(parse(LEFT_SRC))
    twice = anonymize(once)
    assert structurally_equal(once, twice)
    assert serialize_aast(once).text == serialize_aast(twice).text


def test_pair_serializes_differently():
    left = serialize_aast(anonymize(parse(LEFT_SRC))).text
    right = serialize_aast(anonymize(parse(RIGHT_SRC))).text
    assert left != right
    assert "while" in left and "for" in right


def test_node_count_matches_tree():
    tree = anonymize(parse(LEFT_SRC))
    assert serialize_aast(tree).node_count == count_nodes(tree)


def test_identifier_freedom_randomized():
    rng = random.Random(99)
    word = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    keywords = {"int", "double", "if", "else", "while", "for", "return",
                "scanf", "printf", "main", "ID", "id", "block", "decl",
                "type", "op", "fmt", "size", "literal", "assign", "binary",
                "unary", "call", "param", "function", "def", "translation",
                "unit", "identifier", "ref", "array", "index", "d", "lf", "f"}
    for trial in range(20):
        names = [f"xq{rng.randint(100, 999)}{c}" for c in "abcde"]
        src, _ = gen_program(trial, names=names)
        text = serialize_aast(anonymize(parse(src))).text
        found = set(word.findall(text)) - keywords
        assert not (found & set(names)), f"leaked identifiers: {found}"


def test_rename_invariance_of_aast():
    for seed in range(20):
        s1, _ = gen_program(seed, names=["a", "b", "c", "d", "e"])
        s2, _ = gen_program(seed, names=["zz", "q", "val", "w", "top"])
        a1 = serialize_aast(anonymize(parse(s1))).text
        a2 = serialize_aast(anonymize(parse(s2))).text
        assert a1 == a2, f"seed {seed}"


def test_aast_of_renamed_equals_aast_of_original():
    renamed, _ = rename(parse(LEFT_SRC))
    assert (serialize_aast(anonymize(parse(LEFT_SRC))).text
            == serialize_aast(anonymize(renamed)).text)
