"""Bag-of-words vocabulary and feature-vector tests."""

import random
from collections import Counter

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
from invclust.vectorizer import (SEGMENT_FIELDS, ProgramDocs, build_vocab,
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


# --- the vocabulary and vectors against the implementation they replaced -----
# The reference tokenizes and counts a document once for the vocabulary and
# again for its vector; the current code counts each distinct document once.
# Vocabularies and vector values must be equal.

def _ref_ngrams(tokens, n):
    return [" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def _ref_build(families, n):
    if not families[0]:
        raise EmptyCorpus("no documents")
    grams, segments = [], []
    for docs in families:
        ordered = sorted({g for doc in set(docs)
                          for g in _ref_ngrams(tokenize(doc), n)})
        segments.append((len(grams), len(grams) + len(ordered)))
        grams += ordered
    if not grams:
        raise EmptyCorpus(f"every document has fewer than {n} tokens")
    return grams, segments


def _ref_vectorize(texts, grams, segments, n):
    values = []
    for text, (lo, hi) in zip(texts, segments):
        count = Counter(_ref_ngrams(tokenize(text), n)).get
        seg = [count(g, 0) for g in grams[lo:hi]]
        total = sum(seg)
        values += [v / total if total else 0.0 for v in seg]
    return values


def _random_docs(rng, count):
    """ProgramDocs with repeats, empty and one-token texts among them."""
    def text():
        words = rng.choice([_AAST_WORDS, _INV_WORDS])
        return " ".join(rng.choice(words)
                        for _ in range(rng.choice([0, 1, 2, 3, 5, 9, 20])))
    made = [ProgramDocs(text(), text(), text()) for _ in range(count)]
    return [rng.choice(made) for _ in range(2 * count)]


@pytest.mark.parametrize("mode", ["syntax", "aast", "inv", "aast_inv"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vocab_and_vectors_match_the_reference(mode, n):
    rng = random.Random(f"{mode}-{n}")
    for _ in range(15):
        docs, queries = _random_docs(rng, 6), _random_docs(rng, 3)
        families = [[getattr(d, f) for d in docs]
                    for f in SEGMENT_FIELDS[mode]]
        try:
            grams, segments = _ref_build(families, n)
        except EmptyCorpus:
            with pytest.raises(EmptyCorpus, match="fewer than"):
                build_vocab_for_mode(docs, mode, n)
            continue
        vocab = build_vocab_for_mode(docs, mode, n)
        assert (vocab.grams, vocab.segments) == (grams, segments)
        for d in docs + queries:
            assert represent(d, vocab).values == _ref_vectorize(
                documents_for_mode(d, mode), grams, segments, n)


@pytest.mark.parametrize("mode", ["syntax", "aast", "inv", "aast_inv"])
def test_empty_corpus_paths_match_the_reference(mode):
    short = [ProgramDocs("a b", "x y", ""), ProgramDocs("a", "", "z y")]
    for docs in ([], short):
        families = [[getattr(d, f) for d in docs]
                    for f in SEGMENT_FIELDS[mode]]
        with pytest.raises(EmptyCorpus) as ref:
            _ref_build(families, 3)
        with pytest.raises(EmptyCorpus) as new:
            build_vocab_for_mode(docs, mode, 3)
        assert str(new.value) == str(ref.value)


def test_ngrams_shorter_than_n_match_the_reference():
    for length in range(6):
        tokens = [f"t{i}" for i in range(length)]
        for n in range(1, 6):
            assert ngrams(tokens, n) == _ref_ngrams(tokens, n)
