"""Bag-of-words vocabularies and L1-normalized feature vectors.

Grams are word-level token n-grams (n = 3 by default). Normalization is
term frequency over in-vocabulary gram occurrences, per vocabulary segment;
the combined aast_inv mode concatenates an AAST segment and an invariant
segment built independently. Optional smoothed idf reweighting is available
behind a flag.
"""

import math
import re
from dataclasses import dataclass, field

from .errors import EmptyCorpus, ModeMismatch

MODES = ("syntax", "aast", "inv", "aast_inv")

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
    grams: list  # sorted, unique; aast_inv: aast segment then inv segment
    segments: list = field(default_factory=list)  # [(start, end)] per segment
    idf: list | None = None
    _index: dict | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        if not self.segments:
            self.segments = [(0, len(self.grams))]

    def index(self):
        """gram -> position; built on first use and kept, since the grams
        of a vocabulary are fixed once it is built."""
        if self._index is None:
            self._index = {g: i for i, g in enumerate(self.grams)}
        return self._index

    def as_dict(self):
        d = {"mode": self.mode, "n": self.n, "grams": self.grams,
             "segments": [list(s) for s in self.segments]}
        if self.idf is not None:
            d["idf"] = self.idf
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(mode=d["mode"], n=d["n"], grams=d["grams"],
                   segments=[tuple(s) for s in d["segments"]],
                   idf=d.get("idf"))


@dataclass
class FeatureVector:
    """One float per vocabulary gram: a list from `represent`, a row of the
    persisted vectors.npy when read back."""

    program_id: str
    values: list


def _segment_vocab(docs, n, with_idf):
    grams = set()
    df = {}
    for doc in docs:
        doc_grams = set(ngrams(tokenize(doc), n))
        grams.update(doc_grams)
        if with_idf:
            for g in doc_grams:
                df[g] = df.get(g, 0) + 1
    ordered = sorted(grams)
    if with_idf:
        total = len(docs)
        idf = [math.log((1 + total) / (1 + df[g])) + 1 for g in ordered]
    else:
        idf = None
    return ordered, idf


def build_vocab(docs, mode, n=3, idf=False):
    """Vocabulary over all token n-grams of the documents (one family)."""
    if not docs:
        raise EmptyCorpus("no documents")
    if n < 1:
        raise ValueError("n must be >= 1")
    grams, weights = _segment_vocab(docs, n, idf)
    if not grams:
        raise EmptyCorpus(f"every document has fewer than {n} tokens")
    return Vocabulary(mode=mode, n=n, grams=grams, idf=weights)


def build_vocab_combined(aast_docs, inv_docs, n=3, idf=False):
    """aast_inv vocabulary: the two sub-vocabularies, concatenated."""
    a = build_vocab(aast_docs, "aast", n, idf)
    # Invariant documents may legitimately be short; allow an empty segment.
    try:
        b = build_vocab(inv_docs, "inv", n, idf)
    except EmptyCorpus:
        b = Vocabulary(mode="inv", n=n, grams=[], idf=[] if idf else None)
    grams = a.grams + b.grams
    vocab = Vocabulary(
        mode="aast_inv", n=n, grams=grams,
        segments=[(0, len(a.grams)), (len(a.grams), len(grams))],
    )
    if idf:
        vocab.idf = a.idf + b.idf
    return vocab


def _counts(doc, vocab, lo, hi, index):
    values = [0.0] * (hi - lo)
    for g in ngrams(tokenize(doc), vocab.n):
        i = index.get(g, -1)
        if lo <= i < hi:
            values[i - lo] += 1.0
    return values


def _normalize_segment(values, vocab, lo):
    if vocab.idf is not None:
        values = [v * vocab.idf[lo + i] for i, v in enumerate(values)]
    total = sum(values)
    if total > 0:
        values = [v / total for v in values]
    return values


def vectorize(doc, vocab, program_id=""):
    """Single-segment vectorization (syntax, aast, or inv vocabularies)."""
    if len(vocab.segments) != 1:
        raise ModeMismatch("combined vocabulary needs vectorize_combined")
    index = vocab.index()
    lo, hi = vocab.segments[0]
    values = _normalize_segment(_counts(doc, vocab, lo, hi, index), vocab, lo)
    return FeatureVector(program_id=program_id, values=values)


def vectorize_combined(aast_doc, inv_doc, vocab, program_id=""):
    if len(vocab.segments) != 2:
        raise ModeMismatch("vocabulary is not a combined aast_inv vocabulary")
    index = vocab.index()
    (a_lo, a_hi), (b_lo, b_hi) = vocab.segments
    a = _normalize_segment(_counts(aast_doc, vocab, a_lo, a_hi, index), vocab, a_lo)
    b = _normalize_segment(_counts(inv_doc, vocab, b_lo, b_hi, index), vocab, b_lo)
    return FeatureVector(program_id=program_id, values=a + b)


@dataclass
class ProgramDocs:
    """The per-program documents each mode draws from."""
    renamed_source: str
    aast_text: str
    inv_text: str


def documents_for_mode(docs, mode):
    if mode == "syntax":
        return (docs.renamed_source,)
    if mode == "aast":
        return (docs.aast_text,)
    if mode == "inv":
        return (docs.inv_text,)
    if mode == "aast_inv":
        return (docs.aast_text, docs.inv_text)
    raise ModeMismatch(f"unknown mode {mode!r}")


def represent(docs, vocab, program_id=""):
    """Dispatch a program's artifacts to the vocabulary's mode."""
    if vocab.mode not in MODES:
        raise ModeMismatch(f"unknown mode {vocab.mode!r}")
    selected = documents_for_mode(docs, vocab.mode)
    if vocab.mode == "aast_inv":
        return vectorize_combined(selected[0], selected[1], vocab, program_id)
    return vectorize(selected[0], vocab, program_id)


def build_vocab_for_mode(all_docs, mode, n=3, idf=False):
    """Vocabulary from a list of ProgramDocs for the given mode."""
    if mode == "aast_inv":
        return build_vocab_combined([d.aast_text for d in all_docs],
                                    [d.inv_text for d in all_docs], n, idf)
    return build_vocab([documents_for_mode(d, mode)[0] for d in all_docs],
                       mode, n, idf)
