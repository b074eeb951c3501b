"""The on-disk corpus layout (written by write_corpus, read by ingest and
read_tests), per-program analysis, pipeline orchestration, the persisted
artifacts (documents.json, vectors.npy, model.json and projection.csv,
written by persist; model.json, vectors.npy and the labels in
documents.json read back by load_model, load_vectors and load_labels),
and the 2-D projection export. The per-program record, a surviving
program's entry in documents.json, has its format in one place: `entry`
writes it and `artifacts` reads it back."""

import csv
import hashlib
import json
import os
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .anonymizer import anonymize, serialize_aast
from .clusterer import ClusterModel, k_from_fraction, kmeans, purity
from .errors import (BadModel, BadTestFile, EmptyCorpus, MissingTests,
                     ProgramRejected, RuntimeFailure)
from .invariants import detect, flatten
from .lexer import lex
from .nodes import Assignment, Corpus, SourceProgram
from .parser import parse
from .renamer import rename
from .tracer import TestCase, run_suite
from .unparse import unparse
from .vectorizer import (SEGMENT_FIELDS, ProgramDocs, Vocabulary,
                         build_vocab_for_mode, documents_for_mode, represent)

from .synth import generate_synthetic_corpus  # noqa: F401  (re-export)


def read_source(path):
    """A submission's text. Bytes that are not UTF-8 decode to U+FFFD, which
    the lexer rejects outside comments, so a bad byte excludes one program
    with a syntax diagnostic instead of aborting the run."""
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def _read_test_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise BadTestFile(path, e) from None


def read_tests(path):
    """A flat directory of t<i>.in / t<i>.out pairs, in order of i. Test
    files are decoded strictly: a byte that is not UTF-8 raises
    BadTestFile naming the file, and a t<i>.in without its t<i>.out
    raises the OSError of opening that file."""
    if not os.path.isdir(path):
        raise MissingTests(path)
    pattern = re.compile(r"t(\d+)\.in$")
    cases = []
    for fname in sorted(os.listdir(path)):
        m = pattern.match(fname)
        if not m:
            continue
        cases.append((int(m.group(1)), TestCase(
            _read_test_file(os.path.join(path, fname)),
            _read_test_file(os.path.join(path, f"t{m.group(1)}.out")))))
    if not cases:
        raise MissingTests(path)
    return [tc for _, tc in sorted(cases, key=lambda p: p[0])]


def ingest(root_dir, tests_dir=None):
    """Layout: root/<assignment>/<submission>.c and
    root/tests/<assignment>/t<i>.{in,out}."""
    tests_dir = tests_dir or os.path.join(root_dir, "tests")
    corpus = Corpus()
    for label in sorted(os.listdir(root_dir)):
        adir = os.path.join(root_dir, label)
        if label == "tests" or not os.path.isdir(adir):
            continue
        programs = []
        for fname in sorted(os.listdir(adir)):
            if not fname.endswith(".c"):
                continue
            programs.append(SourceProgram(
                id=f"{label}/{fname[:-2]}", label=label,
                text=read_source(os.path.join(adir, fname))))
        if not programs:
            continue
        corpus.assignments[label] = Assignment(
            label=label, programs=programs,
            tests=read_tests(os.path.join(tests_dir, label)))
    if not corpus.assignments:
        raise EmptyCorpus(f"no programs under {root_dir}")
    return corpus


def write_corpus(corpus, root):
    """Materialize a corpus in the layout ingest reads. Each program's id
    must be `<label>/<stem>`, the id `ingest` gives the file written;
    otherwise a ValueError names it, before anything is written."""
    for label, asn in corpus.assignments.items():
        for prog in asn.programs:
            prefix, _, stem = prog.id.partition("/")
            if prefix != label or not stem or "/" in stem:
                raise ValueError(f"program id {prog.id!r} is not "
                                 f"{label}/<stem>")
    for label, asn in corpus.assignments.items():
        pdir = os.path.join(root, label)
        os.makedirs(pdir, exist_ok=True)
        for prog in asn.programs:
            stem = prog.id.partition("/")[2]
            _write_text(os.path.join(pdir, f"{stem}.c"), prog.text)
        tdir = os.path.join(root, "tests", label)
        os.makedirs(tdir, exist_ok=True)
        for i, test in enumerate(asn.tests):
            _write_text(os.path.join(tdir, f"t{i}.in"),
                        test.stdin_text + "\n")
            _write_text(os.path.join(tdir, f"t{i}.out"),
                        test.expected_stdout + "\n")


def _new_file(path):
    """path, with the file there unlinked first, so that it is written new.
    On ext4 with `auto_da_alloc` (the default), truncating a recently
    written file on open first writes its old data back and waits for it:
    rewriting a 1 MB out_dir 3 s after the last write took 6-269 ms that
    way, against 5-9 ms after an unlink, and rewriting the 264 files of a
    recently written corpus took 11.6-12.3 s, against 0.003-0.004 s."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return path


def _write_text(path, text):
    """Write text as UTF-8, the encoding read_source and read_tests read,
    whatever the locale, to a new file at path (see _new_file)."""
    with open(_new_file(path), "w", encoding="utf-8") as f:
        f.write(text)


@dataclass
class ProgramArtifacts:
    program_id: str
    label: str
    docs: ProgramDocs
    inv_by_point: dict
    verdicts: list
    vector: object = None

    @property
    def correct(self):
        """Whether the program passes every test."""
        return all(v == "pass" for v in self.verdicts)


def entry(pa):
    """The record of a surviving program, its entry in documents.json: its
    label, documents and verdicts. `artifacts` reads it back; it holds no
    vector, which depends on the corpus-wide vocabulary."""
    return {"label": pa.label, "renamed_source": pa.docs.renamed_source,
            "aast_text": pa.docs.aast_text, "invariants": pa.inv_by_point,
            "verdicts": pa.verdicts}


def artifacts(pid, entry):
    """The ProgramArtifacts of program pid whose record is `entry`, the
    inverse of the `entry` function, with no vector."""
    docs = ProgramDocs(renamed_source=entry["renamed_source"],
                       aast_text=entry["aast_text"],
                       inv_text=flatten(entry["invariants"]))
    return ProgramArtifacts(program_id=pid, label=entry["label"], docs=docs,
                            inv_by_point=entry["invariants"],
                            verdicts=entry["verdicts"])


@dataclass
class PipelineArtifacts:
    programs: dict = field(default_factory=dict)    # id -> ProgramArtifacts
    exclusions: dict = field(default_factory=dict)  # id -> diagnostic
    labels: dict = field(default_factory=dict)  # id -> label, every program
    vocab: object = None
    model: object = None
    purity: float = 0.0
    clustered_ids: list = field(default_factory=list)
    clustered_vectors: object = None  # float64, a row per clustered id
    k_requested: int = 0   # before clamping to the distinct vectors


def analyze(program, tests, max_steps=None, memo=None):
    """lex -> parse -> rename -> trace -> detect -> documents for one
    SourceProgram. Raises ProgramRejected when the program cannot be used:
    a syntax, unsupported-construct or unresolved-name diagnostic, or
    RuntimeFailure when a test ends in a runtime error.

    The outcome past renaming is a function of the canonical source
    (`unparse` of the renamed tree), the tests and max_steps. `memo`, for
    one fixed (tests, max_steps), maps both the canonical source and the
    token key (see token_key) of every program analyzed with it to that
    outcome. A program whose token key is in it gets the outcome of the
    first, relabelled, without being parsed, renamed or unparsed; one whose
    canonical source is in it, without being traced. A program rejected
    before tracing is never stored, so each reports its own line, column
    and name."""
    tokens = lex(program.text)
    memo, key = ({}, None) if memo is None else (memo, token_key(tokens))
    outcome = memo.get(key)
    if outcome is None:
        renamed, _ = rename(parse(tokens))
        source = unparse(renamed)
        if source not in memo:
            memo[source] = _outcome(renamed, source, tests, max_steps)
        outcome = memo[key] = memo[source]
    if isinstance(outcome, RuntimeFailure):
        raise outcome.with_traceback(None)
    return replace(outcome, program_id=program.id, label=program.label)


def token_key(tokens):
    """The tokens up to layout, comments and the names of variables: each
    token's kind and value (the kind fixes a literal's type, so `1` and
    `1.0` differ), with every identifier that never directly precedes `(`
    replaced by the order of its first occurrence. A name that ever
    precedes `(`, a function's or a variable's that shares it, stays as
    written.

    Two programs with equal keys have equal tokens up to a one-to-one
    renaming of variables that keeps every function name. The parser and
    the renamer compare names only for equality, so the two programs get
    the same renamed tree and the same outcome past it."""
    calls = {tok.value for tok, after in zip(tokens, tokens[1:])
             if after.value == "(" and after.kind == "op"
             and tok.kind == "ident"}
    order = {}
    key = []
    for tok in tokens:
        value = tok.value
        if tok.kind == "ident" and value not in calls:
            value = order.setdefault(value, len(order))
        key += (tok.kind, value)
    return tuple(key)


def _outcome(renamed, source, tests, max_steps):
    """The RuntimeFailure of the first test that ends in a runtime error,
    or else the artifacts of the renamed tree, with no id or label yet."""
    log, verdicts = run_suite(renamed, tests, max_steps)
    if "error" in verdicts:
        return RuntimeFailure(log.errors[0])
    return artifacts("", {
        "label": "", "renamed_source": source,
        "aast_text": serialize_aast(anonymize(renamed)).text,
        "invariants": detect(log).as_dict(), "verdicts": verdicts})


def run_pipeline(corpus, mode="aast_inv", k=None, k_frac=0.1, seed=0,
                 subset="correct-only", n=3, out_dir=None, restarts=8):
    """analyze each program -> vectorize -> kmeans -> representatives.

    Each distinct canonical source of an assignment is analyzed once, and
    each distinct document tuple is vectorized once; copies share the
    result. Clustering is restricted to programs passing every test when
    subset="correct-only"; only clustered programs are vectorized, so the
    vector of any other surviving program stays None."""
    arts = PipelineArtifacts()
    for label in sorted(corpus.assignments):
        asn = corpus.assignments[label]
        memo = {}
        for prog in asn.programs:
            arts.labels[prog.id] = prog.label
            try:
                arts.programs[prog.id] = analyze(prog, asn.tests, memo=memo)
            except ProgramRejected as e:
                arts.exclusions[prog.id] = str(e)
    if not arts.programs:
        raise EmptyCorpus("no program survived the pipeline")

    ids = sorted(arts.programs)
    clustered = [i for i in ids
                 if subset == "all" or arts.programs[i].correct]
    if not clustered:
        raise EmptyCorpus("no correct program to cluster")
    arts.clustered_ids = clustered

    arts.vocab = build_vocab_for_mode(
        [arts.programs[i].docs for i in clustered], mode, n)
    vectors = {}  # document tuple -> its FeatureVector
    for i in clustered:
        docs = arts.programs[i].docs
        key = documents_for_mode(docs, mode)
        if key not in vectors:
            vectors[key] = represent(docs, arts.vocab)
        arts.programs[i].vector = replace(vectors[key], program_id=i)
    arts.clustered_vectors = np.array(
        [arts.programs[i].vector.values for i in clustered])

    if k is None:
        k = k_from_fraction(len(clustered), k_frac)
    arts.k_requested = k
    arts.model = kmeans(clustered, arts.clustered_vectors, k, seed,
                        restarts=restarts)
    arts.model.vocab = arts.vocab
    arts.purity = purity(arts.model.assignment, arts.labels)

    if out_dir:
        persist(arts, out_dir)
    return arts


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_vectors(arts, path):
    """The clustered programs' vectors as one numpy structured array: a
    row per program in clustered_ids order, which is sorted, with fields
    `id` (unicode) and `values` (float64, one per vocabulary gram)."""
    ids = arts.clustered_ids
    table = np.empty(len(ids), dtype=[
        ("id", f"<U{max(map(len, ids))}"),
        ("values", "<f8", arts.clustered_vectors.shape[1:])])
    table["id"] = ids
    table["values"] = arts.clustered_vectors
    np.save(path, table, allow_pickle=False)


def persist(arts, out_dir):
    """One file per artifact kind, all at the root of out_dir and each
    written new (see _new_file): an entry in documents.json for every
    ingested program (the record `entry` makes of a surviving one, or its
    label and {"exclusion": diagnostic} for an excluded one), the vector
    of every clustered program, the model and the projection. Each fact
    is written once: purity is what `invclust purity` computes from
    model.json and the labels, and cluster sizes are the counts of
    model.json's assignment."""
    os.makedirs(out_dir, exist_ok=True)

    def path(name):
        return os.path.join(out_dir, name)
    documents = {pid: {"exclusion": diag, "label": arts.labels[pid]}
                 for pid, diag in arts.exclusions.items()}
    documents.update({pid: entry(pa) for pid, pa in arts.programs.items()})
    _write_text(path("documents.json"), _dump(documents))
    write_vectors(arts, _new_file(path("vectors.npy")))
    model, vocab = arts.model, arts.vocab
    vocab_dict = {"mode": vocab.mode, "n": vocab.n, "grams": vocab.grams,
                  "segments": [list(s) for s in vocab.segments]}
    _write_text(path("model.json"), _dump({
        "k": model.k, "k_requested": arts.k_requested, "seed": model.seed,
        "assignment": model.assignment,
        "representatives": {str(c): pid for c, pid
                            in model.representatives.items()},
        "sse": model.sse, "vocab": vocab_dict}))
    write_projection(arts.clustered_ids, arts.clustered_vectors,
                     _new_file(path("projection.csv")))


def _model_from_dict(d):
    """The ClusterModel in a parsed model.json, with .vocab set; ValueError
    unless the vocabulary's mode is known, with one segment per document
    of the mode, n is an int >= 1, the segments cover the grams end to
    end, each segment's grams are sorted and unique, it carries no idf
    weights, the cluster indices are ints in 0..k-1 and each
    representative is a member of its own cluster. Other keys it does not
    read are ignored, so a model.json written before k_requested moved in
    and the top-level mode moved out loads the same."""
    v = d["vocab"]
    if "idf" in v:
        raise ValueError("vocab carries idf weights; only term-frequency "
                         "vectors are read")
    vocab = Vocabulary(mode=v["mode"], n=v["n"], grams=v["grams"],
                       segments=[tuple(s) for s in v["segments"]])
    fields = SEGMENT_FIELDS.get(vocab.mode)
    if fields is None:
        raise ValueError(f"unknown mode {vocab.mode!r}")
    if len(vocab.segments) != len(fields):
        raise ValueError(f"{len(vocab.segments)} segments for mode "
                         f"{vocab.mode!r}")
    if type(vocab.n) is not int or vocab.n < 1:
        raise ValueError(f"gram size {vocab.n!r}")
    grams = vocab.grams
    if type(grams) is not list or not all(type(g) is str for g in grams):
        raise ValueError("grams are not a list of strings")
    bounds = [0] + [hi for _, hi in vocab.segments]
    if (not all(type(b) is int for s in vocab.segments for b in s)
            or vocab.segments != list(zip(bounds, bounds[1:]))
            or bounds != sorted(bounds) or bounds[-1] != len(grams)):
        raise ValueError(f"segments {v['segments']} do not cover the "
                         f"{len(grams)} grams end to end")
    for lo, hi in vocab.segments:
        seg = grams[lo:hi]
        if any(a >= b for a, b in zip(seg, seg[1:])):
            raise ValueError(f"grams [{lo}, {hi}) are not sorted and unique")
    k, assignment = d["k"], d["assignment"]
    if type(k) is not int or k < 1:
        raise ValueError(f"k {k!r} is not an int >= 1")
    if not assignment:
        raise ValueError("no clustered program in assignment")
    for pid, c in assignment.items():
        if type(c) is not int or not 0 <= c < k:
            raise ValueError(f"cluster {c!r} of {pid!r} is not in 0..{k - 1}")
    reps = {int(c): pid for c, pid in d["representatives"].items()}
    for c, pid in reps.items():
        if assignment.get(pid) != c:
            raise ValueError(f"representative {pid!r} of cluster {c} is "
                             f"not one of its members")
    return ClusterModel(k=k, seed=d["seed"], assignment=assignment,
                        representatives=reps, vocab=vocab, sse=d["sse"])


def _beside(model_path, name):
    """The path of the persisted file `name` in model_path's directory."""
    return os.path.join(os.path.dirname(os.path.abspath(model_path)), name)


def _read(path, load=None):
    """load(path), or the JSON at path without `load`; BadModel naming path
    when it cannot be opened or its bytes are not what the loader reads."""
    try:
        if load:
            return load(path)
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise BadModel(path, e.strerror or e) from None
    except (ValueError, EOFError) as e:
        raise BadModel(path, e) from None


def load_model(path):
    """The ClusterModel persist wrote to model.json, with .vocab set and no
    centroids. BadModel naming the file when it is not JSON, lacks a
    field, or fails a check of _model_from_dict (a vocabulary carrying
    idf weights among them), and when it cannot be opened."""
    d = _read(path)
    try:
        return _model_from_dict(d)
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise BadModel(path, e) from None


def load_vectors(model_path, model, ids):
    """The persisted vectors of `ids` as one float64 matrix, a row per id:
    rows of the vectors.npy next to model_path, read in one np.load.
    BadModel naming that file when it is not the (id, values) table
    persist wrote, its vectors are not one value per gram of model.vocab,
    or it lacks an id."""
    path = _beside(model_path, "vectors.npy")
    table = _read(path, lambda p: np.load(p, allow_pickle=False))
    dt = table.dtype
    if (table.ndim != 1 or dt.names != ("id", "values")
            or dt["id"].kind != "U" or dt["values"].base.kind != "f"
            or dt["values"].ndim != 1):
        raise BadModel(path, f"not an (id, values) table: {dt}, "
                             f"shape {table.shape}")
    width, grams = dt["values"].shape[0], len(model.vocab.grams)
    if width != grams:
        raise BadModel(path, f"vectors of {width} values for {grams} grams")
    row = {pid: i for i, pid in enumerate(table["id"].tolist())}
    try:
        index = [row[pid] for pid in ids]
    except KeyError as e:
        raise BadModel(path, e) from None
    return table["values"][index].astype(np.float64, copy=False)


def load_labels(model_path, ids):
    """{id: label} for `ids`, read from the documents.json next to
    model_path. BadModel naming that file when it cannot be opened, is not
    JSON, or lacks an id or a string label for it."""
    path = _beside(model_path, "documents.json")
    documents = _read(path)
    labels = {}
    for pid in ids:
        record = documents.get(pid) if type(documents) is dict else None
        label = record.get("label") if type(record) is dict else None
        if type(label) is not str:
            raise BadModel(path, f"no label for {pid!r}")
        labels[pid] = label
    return labels


def write_projection(ids, X, path):
    """Write project_2d(ids, X) as id,x,y CSV. An id is a file name, so it
    is quoted where CSV needs it and written back to its own bytes, those
    that are not UTF-8 included."""
    with open(path, "w", encoding="utf-8", errors="surrogateescape",
              newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("id", "x", "y"))
        writer.writerows(project_2d(ids, X))


def project_2d(ids, X):
    """The rows of X, row i being program ids[i], on their top two
    principal axes: [(id, x, y), ...]. The axes are the eigenvectors of
    the two largest eigenvalues of the centred X's smaller Gram matrix:
    Xcᵀ Xc, or Xc Xcᵀ, whose eigenvector u gives the axis Xcᵀ u
    normalized (no SVD, whose LAPACK routine can stall on its first call
    in a process). Each axis is oriented so that its largest-magnitude
    component is positive; an axis with no variance gives 0.0, so one
    vector, like identical ones, projects to the origin."""
    Xc = X - X.mean(axis=0)
    wide = len(Xc) <= Xc.shape[1]
    eigvals, eigvecs = np.linalg.eigh(Xc @ Xc.T if wide else Xc.T @ Xc)
    coords = np.zeros((len(ids), 2))
    for a, i in enumerate(np.argsort(eigvals)[::-1][:2]):
        if eigvals[i] / len(ids) > 1e-15:
            v = eigvecs[:, i]
            if wide:
                v = Xc.T @ v
                v /= np.linalg.norm(v)
            v = v if v[np.argmax(np.abs(v))] > 0 else -v
            coords[:, a] = Xc @ v
    return [(pid, float(x), float(y)) for pid, (x, y) in zip(ids, coords)]


def tree_hash(root):
    """SHA-256 over every file under a directory: its path relative to root
    and its bytes, each preceded by its length, so that bytes moved between
    a path and a file's content change the hash."""
    h = hashlib.sha256()
    for dirpath, _, filenames in sorted(os.walk(root)):
        for fname in sorted(filenames):
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as f:
                data = f.read()
            for part in (os.path.relpath(path, root).encode(), data):
                h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()
