"""Bag-of-words vocabularies and L1-normalized feature vectors.

Grams are word-level token n-grams (n = 3 by default). A mode names the
per-program documents it draws on; each document gets its own vocabulary
segment, built and counted on its own, and the segments are concatenated
in order: syntax, aast and inv have one segment, aast_inv has the AAST
segment and then the invariant segment. Normalization is term frequency
over in-vocabulary gram occurrences, per segment.
"""

import re
from collections import Counter
from dataclasses import dataclass

from .errors import EmptyCorpus, ModeMismatch

# mode -> the ProgramDocs fields it draws on, one vocabulary segment each.
SEGMENT_FIELDS = {"syntax": ("renamed_source",), "aast": ("aast_text",),
                  "inv": ("inv_text",), "aast_inv": ("aast_text", "inv_text")}
MODES = tuple(SEGMENT_FIELDS)

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")


def tokenize(text):
    """Words (alphanumeric runs) plus each punctuation mark on its own."""
    return _TOKEN_RE.findall(text)


def ngrams(tokens, n):
    return [" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


@dataclass
class Vocabulary:
    mode: str
    n: int
    grams: list     # each segment's sorted unique grams, segment after segment
    segments: list  # [(start, end)] per segment


@dataclass
class FeatureVector:
    """One float per vocabulary gram."""

    program_id: str
    values: list


def _build(families, mode, n):
    """Vocabulary with one segment per document family: the sorted union
    of the n-grams of its distinct documents, each tokenized once."""
    if not families[0]:
        raise EmptyCorpus("no documents")
    if n < 1:
        raise ValueError("n must be >= 1")
    grams, segments = [], []
    for docs in families:
        ordered = sorted({g for doc in set(docs)
                          for g in ngrams(tokenize(doc), n)})
        segments.append((len(grams), len(grams) + len(ordered)))
        grams += ordered
    if not grams:
        raise EmptyCorpus(f"every document has fewer than {n} tokens")
    return Vocabulary(mode=mode, n=n, grams=grams, segments=segments)


def _vectorize(texts, vocab, program_id):
    """Each text counted against its own segment and L1-normalized."""
    if len(texts) != len(vocab.segments):
        raise ModeMismatch(f"{len(texts)} documents for a vocabulary of "
                           f"{len(vocab.segments)} segments")
    values = []
    for text, (lo, hi) in zip(texts, vocab.segments):
        count = Counter(ngrams(tokenize(text), vocab.n)).get
        seg = [count(g, 0) for g in vocab.grams[lo:hi]]
        total = sum(seg)
        values += [v / total if total else 0.0 for v in seg]
    return FeatureVector(program_id=program_id, values=values)


def build_vocab(docs, mode, n=3):
    """One-segment vocabulary over all token n-grams of the documents."""
    return _build([docs], mode, n)


def vectorize(doc, vocab, program_id=""):
    """A document's vector in a one-segment vocabulary."""
    return _vectorize((doc,), vocab, program_id)


@dataclass
class ProgramDocs:
    """The per-program documents each mode draws from."""
    renamed_source: str
    aast_text: str
    inv_text: str


def _fields(mode):
    try:
        return SEGMENT_FIELDS[mode]
    except KeyError:
        raise ModeMismatch(f"unknown mode {mode!r}") from None


def documents_for_mode(docs, mode):
    return tuple(getattr(docs, f) for f in _fields(mode))


def represent(docs, vocab, program_id=""):
    """A program's vector in the vocabulary's mode."""
    return _vectorize(documents_for_mode(docs, vocab.mode), vocab, program_id)


def build_vocab_for_mode(all_docs, mode, n=3):
    """Vocabulary from a list of ProgramDocs for the given mode."""
    return _build([[getattr(d, f) for d in all_docs] for f in _fields(mode)],
                  mode, n)
