"""Bag-of-words vocabulary and feature-vector tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invclust.anonymizer import anonymize, serialize_aast
from invclust.errors import EmptyCorpus, ModeMismatch
from invclust.invariants import detect, flatten
from invclust.parser import parse
from invclust.renamer import rename
from invclust.tracer import run_suite
from invclust.unparse import unparse
from invclust.vectorizer import (ProgramDocs, build_vocab,
                                 build_vocab_for_mode, documents_for_mode,
                                 ngrams, represent, tokenize, vectorize)

from conftest import LEFT_SRC, RIGHT_SRC, sum_suite

EXAMPLE_DOCS = ["a a", "e i", "a e i o u", "o i"]


def _docs(src):
    renamed, _ = rename(parse(src))
    log, verdicts = run_suite(renamed, sum_suite())
    assert verdicts == ["pass"] * 3
    return ProgramDocs(renamed_source=unparse(renamed),
                       aast_text=serialize_aast(anonymize(renamed)).text,
                       inv_text=flatten(detect(log).by_point))


def test_tokenize_invariant_string():
    assert tokenize("int0 > 0") == ["int0", ">", "0"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_aast_string():
    assert tokenize("decl(id:ID,type:int)") == [
        "decl", "(", "id", ":", "ID", ",", "type", ":", "int", ")"]


def test_vocab_worked_example():
    vocab = build_vocab(EXAMPLE_DOCS, "inv", n=1)
    assert vocab.grams == ["a", "e", "i", "o", "u"]


def test_vocab_single_doc_three_tokens():
    vocab = build_vocab(["x + y"], "inv", n=3)
    assert len(vocab.grams) == 1


def test_vocab_order_independent():
    shuffled = list(EXAMPLE_DOCS)
    random.Random(3).shuffle(shuffled)
    assert build_vocab(EXAMPLE_DOCS, "inv", n=1).grams == \
        build_vocab(shuffled, "inv", n=1).grams


def test_vocab_empty_when_docs_too_short():
    with pytest.raises(EmptyCorpus):
        build_vocab(["x y"], "inv", n=3)


def test_vectorize_worked_example():
    vocab = build_vocab(EXAMPLE_DOCS, "inv", n=1)
    vec = vectorize("a i a u", vocab)
    assert vec.values == [0.5, 0.0, 0.25, 0.0, 0.25]


def test_vectorize_out_of_vocab_is_zero():
    vocab = build_vocab(EXAMPLE_DOCS, "inv", n=1)
    assert vectorize("z z z", vocab).values == [0.0] * 5


def test_combined_vector_is_concatenation():
    docs = [_docs(LEFT_SRC), _docs(RIGHT_SRC)]
    combined_vocab = build_vocab_for_mode(docs, "aast_inv")
    aast_vocab = build_vocab_for_mode(docs, "aast")
    inv_vocab = build_vocab_for_mode(docs, "inv")
    for d in docs:
        both = represent(d, combined_vocab).values
        aast = represent(d, aast_vocab).values
        inv = represent(d, inv_vocab).values
        assert both == aast + inv


def test_segment_l1_norms():
    docs = [_docs(LEFT_SRC), _docs(RIGHT_SRC)]
    vocab = build_vocab_for_mode(docs, "aast_inv")
    for d in docs:
        values = represent(d, vocab).values
        for lo, hi in vocab.segments:
            assert abs(sum(values[lo:hi]) - 1.0) < 1e-9


def test_alpha_equivalent_programs_same_syntax_vector():
    src = "int main() {\n  int x = 1;\n  x = x + 1;\n}\n"
    other = src.replace("x", "longname")
    docs = [_make_syntax_docs(src), _make_syntax_docs(other)]
    vocab = build_vocab_for_mode(docs, "syntax")
    assert represent(docs[0], vocab).values == represent(docs[1], vocab).values


def _make_syntax_docs(src):
    renamed, _ = rename(parse(src))
    return ProgramDocs(renamed_source=unparse(renamed), aast_text="",
                       inv_text="")


def test_pair_aast_vectors_differ():
    docs = [_docs(LEFT_SRC), _docs(RIGHT_SRC)]
    vocab = build_vocab_for_mode(docs, "aast")
    assert represent(docs[0], vocab).values != represent(docs[1], vocab).values


@pytest.mark.xfail(
    strict=True,
    reason="the two loop styles yield different tightest-bound invariants "
           "at matching points, so the flattened invariant documents and "
           "their vectors differ; see the criterion-1 analysis in the "
           "project notes")
def test_pair_inv_vectors_identical():
    docs = [_docs(LEFT_SRC), _docs(RIGHT_SRC)]
    vocab = build_vocab_for_mode(docs, "inv")
    assert represent(docs[0], vocab).values == represent(docs[1], vocab).values


def test_mode_mismatch():
    docs = _docs(LEFT_SRC)
    vocab = build_vocab_for_mode([docs], "aast")
    vocab.mode = "bogus"
    with pytest.raises(ModeMismatch):
        documents_for_mode(docs, "bogus")
    with pytest.raises(ModeMismatch):
        represent(docs, vocab)


def test_equal_docs_equal_vectors():
    vocab = build_vocab(EXAMPLE_DOCS, "inv", n=1)
    assert vectorize("a e i", vocab).values == vectorize("a e i", vocab).values


def test_document_doubling_keeps_normalized_vector():
    vocab = build_vocab(EXAMPLE_DOCS, "inv", n=1)
    once = vectorize("a i a u", vocab).values
    twice = vectorize("a i a u a i a u", vocab).values
    assert all(abs(x - y) < 1e-12 for x, y in zip(once, twice))


def test_ngrams_basic():
    assert ngrams(["a", "b", "c", "d"], 3) == ["a b c", "b c d"]
    assert ngrams(["a", "b"], 3) == []



# Token alphabets for the two families; punctuation and digits occur in
# both, so unigrams and bigrams such as "0", "<" and "< =" are shared.
_SHARED = ["(", ")", ",", "+", "-", "<", ">", "=", "0", "1"]
_AAST_WORDS = ["decl", "binary", "id", "ID", "type", "int", "op"] + _SHARED
_INV_WORDS = ["int0", "int1", "float0"] + _SHARED


def _text(alphabet):
    return st.lists(st.sampled_from(alphabet), min_size=3,
                    max_size=12).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.builds(ProgramDocs, st.just(""), _text(_AAST_WORDS),
                          _text(_INV_WORDS)), min_size=1, max_size=5),
       st.sampled_from([1, 2, 3]))
def test_combined_vector_is_concatenation_for_shared_grams(docs, n):
    vocabs = {m: build_vocab_for_mode(docs, m, n)
              for m in ("aast", "inv", "aast_inv")}
    for d in docs:
        assert represent(d, vocabs["aast_inv"]).values == \
            represent(d, vocabs["aast"]).values \
            + represent(d, vocabs["inv"]).values


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.builds(ProgramDocs, st.just(""),
                                    _text(_AAST_WORDS), _text(_INV_WORDS)),
                          st.integers(1, 3)), min_size=1, max_size=5),
       st.sampled_from([1, 2, 3]))
def test_vocab_counts_every_copy_of_a_repeated_document(counted, n):
    docs = [d for d, copies in counted for _ in range(copies)]
    vocab = build_vocab_for_mode(docs, "aast_inv", n)
    grams = []
    for field in ("aast_text", "inv_text"):
        grams += sorted({g for d in docs
                         for g in ngrams(tokenize(getattr(d, field)), n)})
    assert vocab.grams == grams
