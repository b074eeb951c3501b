"""Corpus ingestion, pipeline orchestration, synthetic generator, and
projection tests."""

import json
import math
import os

import numpy as np
import pytest

from invclust.corpus import (Corpus, Assignment, generate_synthetic_corpus,
                             ingest, project_2d, run_pipeline, tree_hash,
                             write_corpus)
from invclust.errors import EmptyCorpus, MissingTests
from invclust.nodes import SourceProgram
from invclust.synth import PAIR_FOR, PAIR_WHILE
from invclust.tracer import TestCase
from invclust.vectorizer import FeatureVector

from conftest import HOSTILE_SOURCES


def _write_corpus_tree(root, assignments):
    """assignments: {label: ([(name, src)], [(stdin, stdout)])}"""
    for label, (programs, tests) in assignments.items():
        pdir = os.path.join(root, label)
        os.makedirs(pdir)
        for name, src in programs:
            with open(os.path.join(pdir, f"{name}.c"), "w") as f:
                f.write(src)
        tdir = os.path.join(root, "tests", label)
        os.makedirs(tdir)
        for i, (stdin_text, stdout_text) in enumerate(tests):
            with open(os.path.join(tdir, f"t{i}.in"), "w") as f:
                f.write(stdin_text)
            with open(os.path.join(tdir, f"t{i}.out"), "w") as f:
                f.write(stdout_text)


_ECHO = ('int main() {\n  int v;\n  scanf("%d", &v);\n'
         '  printf("%d", v);\n}\n')
_DOUBLE = ('int main() {\n  int v;\n  scanf("%d", &v);\n'
           '  printf("%d", v + v);\n}\n')


def test_ingest_counts(tmp_path):
    progs = [(f"s{i}", _ECHO) for i in range(3)]
    _write_corpus_tree(str(tmp_path), {
        "alpha": (progs, [("1\n", "1")]),
        "beta": ([(f"s{i}", _DOUBLE) for i in range(3)], [("2\n", "4")]),
    })
    corpus = ingest(str(tmp_path))
    assert sorted(corpus.assignments) == ["alpha", "beta"]
    assert sum(len(a.programs) for a in corpus.assignments.values()) == 6


def test_ingest_missing_tests(tmp_path):
    os.makedirs(tmp_path / "alpha")
    with open(tmp_path / "alpha" / "s0.c", "w") as f:
        f.write(_ECHO)
    with pytest.raises(MissingTests):
        ingest(str(tmp_path))


def test_ingest_empty(tmp_path):
    with pytest.raises(EmptyCorpus):
        ingest(str(tmp_path))


def test_pipeline_excludes_unsupported_file(tmp_path):
    _write_corpus_tree(str(tmp_path), {
        "alpha": ([("good", _ECHO), ("bad", "int main() { int *p; }\n")],
                  [("1\n", "1"), ("2\n", "2")]),
    })
    arts = run_pipeline(ingest(str(tmp_path)), mode="syntax", k=1)
    assert "alpha/good" in arts.programs
    assert "alpha/bad" in arts.exclusions
    assert "pointer" in arts.exclusions["alpha/bad"]
    assert "alpha/bad" not in arts.programs


def test_pipeline_correct_only_excludes_failing_program(tmp_path):
    _write_corpus_tree(str(tmp_path), {
        "alpha": ([("ok1", _ECHO), ("ok2", _ECHO), ("wrong", _DOUBLE)],
                  [("3\n", "3")]),
    })
    arts = run_pipeline(ingest(str(tmp_path)), mode="syntax", k=1)
    assert arts.clustered_ids == ["alpha/ok1", "alpha/ok2"]
    # Incorrect programs still get a vector against the frozen vocabulary.
    assert arts.programs["alpha/wrong"].vector is not None


def test_pipeline_subset_all_keeps_failing_program(tmp_path):
    _write_corpus_tree(str(tmp_path), {
        "alpha": ([("ok1", _ECHO), ("wrong", _DOUBLE)], [("3\n", "3")]),
    })
    arts = run_pipeline(ingest(str(tmp_path)), mode="syntax", k=1,
                        subset="all")
    assert arts.clustered_ids == ["alpha/ok1", "alpha/wrong"]


def test_k_frac_rule():
    corpus = generate_synthetic_corpus(seed=0, assignments=3, variants_per=10)
    arts = run_pipeline(corpus, mode="aast_inv", k_frac=0.1, seed=0)
    assert len(arts.clustered_ids) == 30
    assert arts.model.k == 3


def test_synth_reproduces_motivating_pair():
    corpus = generate_synthetic_corpus(seed=0, assignments=3, variants_per=10)
    sum1n = corpus.assignments["sum1n"].programs
    texts = [p.text for p in sum1n[:2]]
    assert texts == [PAIR_WHILE, PAIR_FOR]


def test_synth_variants_all_pass_their_suites():
    corpus = generate_synthetic_corpus(seed=0, assignments=3, variants_per=10)
    arts = run_pipeline(corpus, mode="syntax", k=1)
    assert not arts.exclusions
    assert all(pa.correct for pa in arts.programs.values())


def test_synth_minimal_shape():
    corpus = generate_synthetic_corpus(seed=1, assignments=2, variants_per=2)
    assert len(corpus.assignments) == 2
    assert sum(len(a.programs) for a in corpus.assignments.values()) == 4
    from invclust.parser import parse
    for a in corpus.assignments.values():
        for p in a.programs:
            parse(p)


def test_synth_mutation_tags_present():
    corpus = generate_synthetic_corpus(seed=0, assignments=3, variants_per=10)
    tags = set()
    for a in corpus.assignments.values():
        for p in a.programs:
            tags |= set(getattr(p, "tags", ()))
    assert {"loop-conversion", "loop-reversal", "rename"} <= tags


def test_write_corpus_round_trips(tmp_path):
    corpus = generate_synthetic_corpus(seed=2, assignments=2, variants_per=3)
    write_corpus(corpus, str(tmp_path))
    back = ingest(str(tmp_path))
    assert sorted(back.assignments) == sorted(corpus.assignments)
    for label, a in corpus.assignments.items():
        assert [p.text for p in back.assignments[label].programs] == \
            [p.text for p in a.programs]


def test_persisted_artifact_layout(tmp_path):
    corpus = generate_synthetic_corpus(seed=0, assignments=2, variants_per=3)
    out = tmp_path / "out"
    run_pipeline(corpus, mode="aast_inv", k=2, out_dir=str(out))
    some_label = sorted(corpus.assignments)[0]
    for suffix in ("renamed.c", "aast.txt", "invariants.json", "vector.json"):
        assert (out / some_label / f"v00.{suffix}").exists()
    for fname in ("model.json", "report.json", "projection.csv"):
        assert (out / fname).exists()
    with open(out / "model.json") as f:
        model = json.load(f)
    assert set(model) >= {"k", "seed", "mode", "centroids", "assignment",
                          "representatives", "vocab"}
    with open(out / "report.json") as f:
        report = json.load(f)
    assert set(report) >= {"purity", "cluster_sizes", "exclusions"}


def test_pipeline_determinism(tmp_path):
    corpus = generate_synthetic_corpus(seed=0, assignments=2, variants_per=4)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_pipeline(corpus, mode="aast_inv", k=2, seed=0, out_dir=str(out1))
    run_pipeline(corpus, mode="aast_inv", k=2, seed=0, out_dir=str(out2))
    assert tree_hash(str(out1)) == tree_hash(str(out2))


def test_pipeline_fatal_when_nothing_survives():
    corpus = Corpus(assignments={"alpha": Assignment(
        label="alpha",
        programs=[SourceProgram(id="alpha/bad", label="alpha",
                                text="int main() { int *p; }\n")],
        tests=[TestCase("", "")])})
    with pytest.raises(EmptyCorpus):
        run_pipeline(corpus, mode="syntax", k=1)


def test_hostile_programs_become_exclusions(tmp_path):
    _write_corpus_tree(str(tmp_path), {
        "alpha": ([(f"s{i}", _ECHO) for i in range(3)], [("1\n", "1")]),
    })
    for kind, (data, _) in HOSTILE_SOURCES.items():
        with open(tmp_path / "alpha" / f"{kind}.c", "wb") as f:
            f.write(data)
    arts = run_pipeline(ingest(str(tmp_path)), mode="aast_inv", k=1)
    assert sorted(arts.exclusions) == sorted(
        f"alpha/{kind}" for kind in HOSTILE_SOURCES)
    for kind, (_, diagnostic) in HOSTILE_SOURCES.items():
        assert diagnostic in arts.exclusions[f"alpha/{kind}"]
    assert arts.clustered_ids == ["alpha/s0", "alpha/s1", "alpha/s2"]


def _fv(pid, values):
    return FeatureVector(program_id=pid, values=list(map(float, values)))


def test_project_2d_preserves_distances_for_2d_input():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (3.0, 1.0)]
    rows = project_2d([_fv(f"p{i}", p) for i, p in enumerate(pts)])
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            orig = math.dist(pts[i], pts[j])
            proj = math.dist(rows[i][1:], rows[j][1:])
            assert abs(orig - proj) < 1e-6


def test_project_2d_identical_points():
    rows = project_2d([_fv(f"p{i}", (2.0, 3.0, 4.0)) for i in range(3)])
    assert all(x == 0.0 and y == 0.0 for _, x, y in rows)


def test_project_2d_collinear_points_stay_collinear():
    pts = [(0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (2.0, 4.0, 6.0)]
    rows = project_2d([_fv(f"p{i}", p) for i, p in enumerate(pts)])
    coords = np.array([[x, y] for _, x, y in rows])
    u, v = coords[1] - coords[0], coords[2] - coords[0]
    area = u[0] * v[1] - u[1] * v[0]
    assert abs(float(area)) < 1e-9
