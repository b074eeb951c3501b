"""Corpus ingestion, per-program analysis, pipeline orchestration, artifact
persistence, and the 2-D projection export."""

import hashlib
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .anonymizer import anonymize, serialize_aast
from .clusterer import k_from_fraction, kmeans, purity
from .errors import EmptyCorpus, MissingTests, ProgramRejected, RuntimeFailure
from .invariants import detect, flatten
from .nodes import SourceProgram
from .parser import parse
from .renamer import rename
from .tracer import TestCase, run_suite
from .unparse import unparse
from .vectorizer import ProgramDocs, build_vocab_for_mode, represent

from .synth import generate_synthetic_corpus, write_corpus  # noqa: F401  (re-export)


@dataclass
class Assignment:
    label: str
    programs: list
    tests: list


@dataclass
class Corpus:
    assignments: dict = field(default_factory=dict)  # label -> Assignment


def read_source(path):
    """A submission's text. Bytes that are not UTF-8 decode to U+FFFD, which
    the lexer rejects outside comments, so a bad byte excludes one program
    with a syntax diagnostic instead of aborting the run."""
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def read_tests(path):
    """A flat directory of t<i>.in / t<i>.out pairs, in order of i."""
    if not os.path.isdir(path):
        raise MissingTests(path)
    pattern = re.compile(r"t(\d+)\.in$")
    cases = []
    for fname in sorted(os.listdir(path)):
        m = pattern.match(fname)
        if not m:
            continue
        out_path = os.path.join(path, f"t{m.group(1)}.out")
        if not os.path.exists(out_path):
            raise MissingTests(path)
        with open(os.path.join(path, fname)) as f:
            stdin_text = f.read()
        with open(out_path) as f:
            expected = f.read()
        cases.append((int(m.group(1)), TestCase(stdin_text, expected)))
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


@dataclass
class ProgramArtifacts:
    program_id: str
    label: str
    docs: ProgramDocs
    inv_by_point: dict
    verdicts: list
    correct: bool
    rename_map: object = None
    vector: object = None


@dataclass
class PipelineArtifacts:
    programs: dict = field(default_factory=dict)    # id -> ProgramArtifacts
    exclusions: dict = field(default_factory=dict)  # id -> diagnostic
    vocab: object = None
    model: object = None
    purity: float = 0.0
    clustered_ids: list = field(default_factory=list)


def analyze(program, tests, limits=None, min_samples=2):
    """parse -> rename -> trace -> detect -> documents for one
    SourceProgram. Raises ProgramRejected when the program cannot be used:
    a syntax, unsupported-construct or unresolved-name diagnostic, or
    RuntimeFailure when a test ends in a runtime error."""
    renamed, rmap = rename(parse(program))
    log, verdicts = run_suite(renamed, tests, limits)
    if "error" in verdicts:
        raise RuntimeFailure(log.errors[0])
    inv_set = detect(log, min_samples)
    docs = ProgramDocs(
        renamed_source=unparse(renamed),
        aast_text=serialize_aast(anonymize(renamed)).text,
        inv_text=flatten(inv_set),
    )
    return ProgramArtifacts(
        program_id=program.id, label=program.label, docs=docs,
        inv_by_point=inv_set.as_dict(), verdicts=verdicts,
        correct=all(v == "pass" for v in verdicts), rename_map=rmap)


def run_pipeline(corpus, mode="aast_inv", k=None, k_frac=0.1, seed=0,
                 subset="correct-only", n=3, idf=False, min_samples=2,
                 limits=None, out_dir=None, restarts=8):
    """analyze each program -> vectorize -> kmeans -> representatives.

    Clustering is restricted to programs passing every test when
    subset="correct-only"; every surviving program still gets a vector
    against the frozen vocabulary (for closest-program queries)."""
    arts = PipelineArtifacts()
    for label in sorted(corpus.assignments):
        asn = corpus.assignments[label]
        for prog in asn.programs:
            try:
                arts.programs[prog.id] = analyze(prog, asn.tests, limits,
                                                 min_samples)
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
        [arts.programs[i].docs for i in clustered], mode, n, idf)
    for i in ids:
        arts.programs[i].vector = represent(arts.programs[i].docs,
                                            arts.vocab, i)

    if k is None:
        k = k_from_fraction(len(clustered), k_frac)
    vectors = [arts.programs[i].vector for i in clustered]
    arts.model = kmeans(vectors, k, seed, mode=mode, restarts=restarts)
    arts.model.vocab = arts.vocab
    labels = {i: arts.programs[i].label for i in clustered}
    arts.purity = purity(arts.model.assignment, labels)

    if out_dir:
        persist(arts, out_dir)
    return arts


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def persist(arts, out_dir):
    """One file per stage per program, plus model/report/projection."""
    for pid in sorted(arts.programs):
        pa = arts.programs[pid]
        label, stem = pid.split("/", 1)
        pdir = os.path.join(out_dir, label)
        os.makedirs(pdir, exist_ok=True)
        with open(os.path.join(pdir, f"{stem}.renamed.c"), "w") as f:
            f.write(pa.docs.renamed_source)
        with open(os.path.join(pdir, f"{stem}.aast.txt"), "w") as f:
            f.write(pa.docs.aast_text + "\n")
        with open(os.path.join(pdir, f"{stem}.invariants.json"), "w") as f:
            f.write(_dump(pa.inv_by_point))
        with open(os.path.join(pdir, f"{stem}.vector.json"), "w") as f:
            f.write(_dump(pa.vector.as_dict()))
    with open(os.path.join(out_dir, "model.json"), "w") as f:
        f.write(_dump(arts.model.as_dict()))
    sizes = {}
    for c in arts.model.assignment.values():
        sizes[str(c)] = sizes.get(str(c), 0) + 1
    report = {
        "purity": arts.purity,
        "cluster_sizes": sizes,
        "clustered": arts.clustered_ids,
        "exclusions": arts.exclusions,
        "mode": arts.model.mode,
        "k": arts.model.k,
        "seed": arts.model.seed,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        f.write(_dump(report))
    write_projection([arts.programs[i].vector for i in arts.clustered_ids],
                     os.path.join(out_dir, "projection.csv"))


def write_projection(vectors, path):
    """Write project_2d(vectors) as id,x,y CSV; returns the row count."""
    rows = project_2d(vectors)
    with open(path, "w") as f:
        f.write("id,x,y\n")
        for pid, x, y in rows:
            f.write(f"{pid},{x!r},{y!r}\n")
    return len(rows)


def _power_iteration(cov, start, iters=200):
    v = start / np.linalg.norm(start)
    for _ in range(iters):
        w = cov @ v
        norm = np.linalg.norm(w)
        if norm < 1e-15:
            return v, 0.0
        v = w / norm
    lam = float(v @ cov @ v)
    # Deterministic orientation: largest-magnitude component positive.
    j = int(np.argmax(np.abs(v)))
    if v[j] < 0:
        v = -v
    return v, lam


def project_2d(vectors):
    """Top-2 principal components via power iteration; returns
    [(id, x, y), ...]."""
    if len(vectors) < 2:
        raise ValueError("need at least 2 vectors")
    X = np.asarray([v.values for v in vectors], dtype=float)
    X = X - X.mean(axis=0)
    cov = (X.T @ X) / len(X)
    d = X.shape[1]
    if float(np.abs(cov).sum()) < 1e-15:
        return [(v.program_id, 0.0, 0.0) for v in vectors]
    start = np.ones(d)
    v1, lam1 = _power_iteration(cov, start)
    cov2 = cov - lam1 * np.outer(v1, v1)
    start2 = np.ones(d)
    start2[0] += 1.0  # break symmetry with the first start vector
    v2, lam2 = _power_iteration(cov2, start2)
    xs = X @ v1
    ys = X @ v2 if lam2 > 1e-15 else np.zeros(len(X))
    return [(v.program_id, float(x), float(y))
            for v, x, y in zip(vectors, xs, ys)]


def tree_hash(root):
    """SHA-256 over every file's path and bytes under a directory."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for fname in sorted(filenames):
            path = os.path.join(dirpath, fname)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()
