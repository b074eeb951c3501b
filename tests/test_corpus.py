"""Corpus ingestion, pipeline orchestration, synthetic generator, and
projection tests."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import invclust
from invclust import tracer
from invclust.cli import main
from invclust.clusterer import purity
from invclust.corpus import (Corpus, Assignment, Session, analyze, artifacts,
                             entry, generate_synthetic_corpus, ingest,
                             load_model, load_vectors, project_2d,
                             run_pipeline, token_key, tree_hash,
                             write_corpus)
from invclust.errors import (BadTestFile, EmptyCorpus, MissingTests,
                             ProgramRejected, RuntimeFailure)
from invclust.lexer import MAX_SOURCE_CHARS, lex
from invclust.nodes import SourceProgram
from invclust.parser import parse
from invclust.renamer import rename
from invclust.synth import PAIR_FOR, PAIR_WHILE
from invclust.tracer import TestCase, run_suite
from invclust.vectorizer import MODES, represent

from conftest import (HOSTILE_SOURCES, LEFT_SRC, count_calls, gen_program,
                      gen_suite, mutations_shown, sum_suite)


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


# No suite directory at all, then a suite whose t1.in has no t1.out: the
# error names what is missing.
def test_ingest_missing_tests(tmp_path):
    os.makedirs(tmp_path / "alpha")
    with open(tmp_path / "alpha" / "s0.c", "w") as f:
        f.write(_ECHO)
    suite = tmp_path / "tests" / "alpha"
    with pytest.raises(MissingTests) as exc:
        ingest(str(tmp_path))
    assert str(exc.value) == f"no test suite in '{suite}'"
    suite.mkdir(parents=True)
    with pytest.raises(MissingTests) as exc:
        ingest(str(tmp_path))  # a suite directory with no test in it
    assert str(exc.value) == f"no test suite in '{suite}'"
    for name in ("t0.in", "t0.out", "t1.in"):
        (suite / name).write_text("1\n")
    missing = re.escape(str(suite / "t1.out"))
    with pytest.raises(FileNotFoundError, match=missing):
        ingest(str(tmp_path))


def test_ingest_non_utf8_test_file(tmp_path):
    _write_corpus_tree(str(tmp_path), {"alpha": ([("s0", _ECHO)],
                                                 [("1\n", "1")])})
    bad = tmp_path / "tests" / "alpha" / "t0.out"
    bad.write_bytes(b"1\xff")
    with pytest.raises(BadTestFile) as info:
        ingest(str(tmp_path))
    assert info.value.path == str(bad)
    assert str(info.value).startswith(f"{bad}: not UTF-8 text")


def test_k_clamped_to_distinct_vectors_is_reported(tmp_path):
    corpus = Corpus(assignments={"alpha": Assignment(
        label="alpha",
        programs=[SourceProgram(id=f"alpha/s{i}", label="alpha", text=_ECHO)
                  for i in range(3)],
        tests=[TestCase("1\n", "1"), TestCase("5\n", "5")])})
    arts = run_pipeline(corpus, k=2, out_dir=str(tmp_path))
    assert arts.model.k == 1 and arts.k_requested == 2
    with open(tmp_path / "model.json") as f:
        model = json.load(f)
    assert (model["k"], model["k_requested"]) == (1, 2)


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
    # Only clustered programs are vectorized.
    assert arts.programs["alpha/wrong"].vector is None
    assert arts.programs["alpha/ok1"].vector is not None


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
            parse(p.text)


def test_synth_variants_show_each_mutation():
    corpus = generate_synthetic_corpus(seed=0, assignments=3, variants_per=10)
    assert mutations_shown(corpus) == {"loop-conversion", "loop-reversal",
                                       "rename"}


def test_write_corpus_round_trips(tmp_path):
    corpus = generate_synthetic_corpus(seed=2, assignments=2, variants_per=3)
    write_corpus(corpus, str(tmp_path))
    back = ingest(str(tmp_path))
    assert sorted(back.assignments) == sorted(corpus.assignments)
    for label, a in corpus.assignments.items():
        assert [p.text for p in back.assignments[label].programs] == \
            [p.text for p in a.programs]


# ingest decodes UTF-8, so write_corpus writes it, even where the locale's
# encoding is ASCII (the C locale, with neither coercion nor UTF-8 mode).
def test_write_corpus_writes_utf8_under_an_ascii_locale(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(
               [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = (
        "import sys\n"
        "from invclust.corpus import Assignment, Corpus, write_corpus\n"
        "from invclust.nodes import SourceProgram\n"
        "from invclust.tracer import TestCase\n"
        "text = 'int main() {\\n  /* caf\\u00e9 */\\n}\\n'\n"
        "write_corpus(Corpus(assignments={'a': Assignment(label='a', "
        "programs=[SourceProgram(id='a/p', label='a', text=text)], "
        "tests=[TestCase('1', '\\u00e9')])}), sys.argv[1])\n")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    back = ingest(str(tmp_path)).assignments["a"]
    assert back.programs[0].text == "int main() {\n  /* café */\n}\n"
    assert back.tests[0].expected_stdout == "é\n"


def test_write_corpus_writes_each_file_new(tmp_path):
    # Rewriting a corpus unlinks each old file instead of truncating it, so
    # a hard link to an old file keeps its bytes.
    root, links = tmp_path / "corpus", tmp_path / "links"
    write_corpus(generate_synthetic_corpus(seed=0, assignments=2,
                                           variants_per=3), str(root))
    old = {}
    for dirpath, _, fnames in os.walk(root):
        for fname in fnames:
            rel = os.path.relpath(os.path.join(dirpath, fname), root)
            link = links / rel
            link.parent.mkdir(parents=True, exist_ok=True)
            os.link(root / rel, link)
            old[rel] = link.read_bytes()
    write_corpus(generate_synthetic_corpus(seed=1, assignments=2,
                                           variants_per=3), str(root))
    assert any((root / rel).read_bytes() != data for rel, data in old.items())
    for rel, data in old.items():
        assert (links / rel).read_bytes() == data, rel
        assert not os.path.samefile(links / rel, root / rel), rel


# An id that `ingest` would not give back for the file written.
@pytest.mark.parametrize("pid", ["p0", "beta/p0", "alpha/", "alpha/a/b"])
def test_write_corpus_rejects_an_id_that_is_not_label_slash_stem(tmp_path,
                                                                 pid):
    corpus = Corpus()
    corpus.assignments["alpha"] = Assignment(
        label="alpha", tests=[TestCase("1", "1")], programs=[
            SourceProgram(id="alpha/ok", label="alpha", text=_ECHO),
            SourceProgram(id=pid, label="alpha", text=_ECHO)])
    with pytest.raises(ValueError, match=re.escape(repr(pid))):
        write_corpus(corpus, str(tmp_path))
    assert os.listdir(tmp_path) == []


# sha256 of every corpus of the grid below: each program's id, label and
# text and each test's stdin and expected output. perfbench's mutations are
# regular expressions over the raw text, so a change of layout alone, which
# no artifact pin sees, moves this one. The seeds are small ones and the
# same plus 1,000,003, the offset of perfbench's query stream.
RAW_CORPUS_PIN = (
    "16f4a651acf2bb1f85a1e9f81a79e331cc7ee2403605755f571ae1b432cc34c6")


def test_synthetic_corpora_are_pinned():
    h = hashlib.sha256()
    for base in (0, 1, 11, 59, 101):
        for seed in (base, base + 1_000_003):
            for assignments in (2, 3):
                for variants in (2, 10, 80):
                    corpus = generate_synthetic_corpus(seed, assignments,
                                                       variants)
                    h.update(json.dumps([
                        [[p.id, p.label, p.text] for p in a.programs]
                        + [[t.stdin_text, t.expected_stdout]
                           for t in a.tests]
                        for a in corpus.assignments.values()]).encode())
    assert h.hexdigest() == RAW_CORPUS_PIN


def test_persisted_artifact_layout(tmp_path):
    corpus = generate_synthetic_corpus(seed=0, assignments=2, variants_per=3)
    out = tmp_path / "out"
    arts = run_pipeline(corpus, mode="aast_inv", k=2, out_dir=str(out))
    assert sorted(os.listdir(out)) == [
        "documents.json", "model.json", "projection.csv", "vectors.npy"]
    assert all((out / name).is_file() for name in os.listdir(out))
    with open(out / "documents.json") as f:
        documents = json.load(f)
    assert documents == {
        pid: {"renamed_source": pa.docs.renamed_source,
              "aast_text": pa.docs.aast_text,
              "invariants": pa.inv_by_point, "label": pa.label,
              "verdicts": pa.verdicts}
        for pid, pa in arts.programs.items()}
    with open(out / "model.json") as f:
        model = json.load(f)
    assert set(model) == {"k", "k_requested", "seed", "assignment",
                          "representatives", "sse", "vocab"}
    assert model["k_requested"] == 2
    # The clustered ids are the assignment's keys, the cluster sizes the
    # counts of its values, and the purity is computed from it.
    assert sorted(model["assignment"]) == arts.clustered_ids
    assert model["assignment"] == arts.model.assignment
    assert purity(model["assignment"], {
        pid: documents[pid]["label"] for pid in model["assignment"]}) == \
        arts.purity


def _survivors(cases):
    """analyze of each (program, tests) in cases that survives it."""
    for prog, tests in cases:
        try:
            yield analyze(prog, tests)
        except ProgramRejected:
            pass


def test_entry_round_trips_through_artifacts():
    cases = [(prog, asn.tests) for seed in range(4)
             for asn in generate_synthetic_corpus(seed, 3, 10)
             .assignments.values() for prog in asn.programs]
    for seed in range(40):
        src, n_in = gen_program(seed)
        cases.append((SourceProgram(id=f"gen/p{seed}", label="gen", text=src),
                      gen_suite(seed, n_in)))
    survivors = list(_survivors(cases))
    for pa in survivors:
        record = json.loads(json.dumps(entry(pa)))
        assert artifacts(pa.program_id, record) == pa, pa.program_id
    # gen_suite expects no output, so a generated program that prints
    # fails its tests: those survivors cover `"fail"` and correct == False.
    assert {pa.correct for pa in survivors} == {True, False}
    assert any("fail" in pa.verdicts for pa in survivors)


@pytest.mark.parametrize("mode", MODES)
def test_documents_json_rebuilds_the_persisted_vectors(tmp_path, mode):
    for seed in range(4):
        out = tmp_path / str(seed)
        run_pipeline(generate_synthetic_corpus(seed, 3, 10), mode=mode, k=3,
                     out_dir=str(out))
        with open(out / "documents.json") as f:
            documents = json.load(f)
        vocab = load_model(str(out / "model.json")).vocab
        table = np.load(out / "vectors.npy", allow_pickle=False)
        for pid, row in zip(table["id"].tolist(), table["values"]):
            docs = artifacts(pid, documents[pid]).docs
            values = np.array(represent(docs, vocab).values, dtype="<f8")
            assert values.tobytes() == row.tobytes(), (seed, pid)


def test_centroids_are_member_means_of_persisted_vectors(tmp_path):
    corpus = generate_synthetic_corpus(seed=0, assignments=3, variants_per=4)
    arts = run_pipeline(corpus, mode="aast_inv", k=3, out_dir=str(tmp_path))
    table = np.load(tmp_path / "vectors.npy", allow_pickle=False)
    rows = dict(zip(table["id"].tolist(), table["values"]))
    with open(tmp_path / "model.json") as f:
        assignment = json.load(f)["assignment"]
    for c, centroid in enumerate(arts.model.centroids):
        members = [rows[pid] for pid, cc in assignment.items() if cc == c]
        assert np.allclose(np.mean(members, axis=0), centroid,
                           rtol=0, atol=1e-12)


def test_persist_takes_ids_without_a_slash(tmp_path):
    corpus = Corpus(assignments={"alpha": Assignment(
        label="alpha",
        programs=[SourceProgram(id=f"p{i}", label="alpha", text=src)
                  for i, src in enumerate((_ECHO, _ECHO, _DOUBLE))],
        tests=[TestCase("1\n", "1")])})
    out = tmp_path / "out"
    run_pipeline(corpus, k=1, out_dir=str(out))
    with open(out / "documents.json") as f:
        assert sorted(json.load(f)) == ["p0", "p1", "p2"]
    # p2 fails its test, so it is not clustered and has no vector.
    assert np.load(out / "vectors.npy")["id"].tolist() == ["p0", "p1"]


def test_pipeline_determinism(tmp_path):
    corpus = generate_synthetic_corpus(seed=0, assignments=2, variants_per=4)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_pipeline(corpus, mode="aast_inv", k=2, seed=0, out_dir=str(out1))
    run_pipeline(corpus, mode="aast_inv", k=2, seed=0, out_dir=str(out2))
    assert tree_hash(str(out1)) == tree_hash(str(out2))


def test_tree_hash_separates_paths_from_contents(tmp_path):
    trees = {"a": {"a": b"bc"}, "ab": {"ab": b"c"},
             "nested": {os.path.join("d", "e"): b""}, "flat": {"de": b""}}
    for tree, files in trees.items():
        for name, data in files.items():
            path = tmp_path / tree / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
    hashes = {tree: tree_hash(str(tmp_path / tree)) for tree in trees}
    assert len(set(hashes.values())) == len(trees), hashes


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


def test_too_large_source_becomes_an_exclusion(tmp_path):
    _write_corpus_tree(str(tmp_path), {
        "alpha": ([(f"s{i}", _ECHO) for i in range(3)], [("1\n", "1")]),
    })
    (tmp_path / "alpha" / "big.c").write_text(
        _ECHO + "/*" + " " * MAX_SOURCE_CHARS + "*/\n")
    arts = run_pipeline(ingest(str(tmp_path)), mode="aast_inv", k=1)
    size = len(_ECHO) + MAX_SOURCE_CHARS + 5
    assert arts.exclusions == {"alpha/big": (
        f"source too large: {size} characters (limit {MAX_SOURCE_CHARS})")}
    assert arts.clustered_ids == ["alpha/s0", "alpha/s1", "alpha/s2"]


# _ECHO relaid out, with its variable renamed; and a program that divides
# by zero on every test, with such a copy.
_ECHO_COPY = ('// echo\nint main()\n{\n\n  int value;   scanf("%d",&value);\n'
              '  printf( "%d" , value );\n}\n')
_DIV0 = ('int main() {\n  int v;\n  scanf("%d", &v);\n'
         '  printf("%d", v / (v - v));\n}\n')
_DIV0_COPY = ('int main() { int w; scanf("%d", &w);\n'
              '  /* zero */ printf("%d", w / (w - w)); }\n')


@pytest.mark.parametrize("mode", MODES)
def test_repeated_canonical_sources_match_standalone_analysis(
        tmp_path, monkeypatch, mode):
    sources = {"echo": _ECHO, "echo_copy": _ECHO_COPY, "echo_copy2": _ECHO,
               "double": _DOUBLE, "div0": _DIV0, "div0_copy": _DIV0_COPY}
    tests = [("3\n", "3"), ("4\n", "4")]
    _write_corpus_tree(str(tmp_path), {"alpha": (list(sources.items()),
                                                 tests)})
    parsed, traced = count_calls(monkeypatch)
    corpus = ingest(str(tmp_path))
    arts = run_pipeline(corpus, mode=mode, k=1, subset="all")
    # echo, double and div0: once each, since each copy has its group's
    # tokens up to layout, comments and variable names
    assert len(traced) == 3
    assert len(parsed) == 3
    monkeypatch.undo()

    asn = corpus.assignments["alpha"]
    ids = sorted(arts.programs)
    assert ids == ["alpha/double", "alpha/echo", "alpha/echo_copy",
                   "alpha/echo_copy2"]
    assert sorted(arts.exclusions) == ["alpha/div0", "alpha/div0_copy"]
    for prog in asn.programs:
        if prog.id in arts.exclusions:
            with pytest.raises(RuntimeFailure) as exc:
                analyze(prog, asn.tests)
            assert arts.exclusions[prog.id] == str(exc.value)
            assert "div-by-zero" in str(exc.value)
            continue
        alone, shared = analyze(prog, asn.tests), arts.programs[prog.id]
        assert (shared.program_id, shared.label) == (prog.id, "alpha")
        assert shared.docs == alone.docs
        assert shared.inv_by_point == alone.inv_by_point
        assert (shared.verdicts, shared.correct) == \
            (alone.verdicts, alone.correct)
        vector = represent(alone.docs, arts.vocab, prog.id)
        assert shared.vector == vector
        row = arts.clustered_ids.index(prog.id)
        assert arts.clustered_vectors[row].tolist() == vector.values
    assert arts.programs["alpha/echo_copy"].docs == \
        arts.programs["alpha/echo"].docs


_CALL = ('int {f}(int {a}) {{\n  return {a} + 1;\n}}\n\nint main() {{\n'
         '  int {v};\n  scanf("%d", &{v});\n  printf("%d", {f}({v}));\n}}\n')


def _call(f="f", a="a", v="v"):
    return _CALL.format(f=f, a=a, v=v)


@pytest.mark.parametrize("a, b, equal", [
    (_ECHO, _ECHO_COPY, True),
    (_DIV0, _DIV0_COPY, True),
    (_call(), "/* */ " + _call(a="n", v="count"), True),
    # another function name, or a double for an int
    (_call(), _call(f="g"), False),
    (_DOUBLE.replace("v + v", "v + 1"), _DOUBLE.replace("v + v", "v + 1.0"),
     False),
    # a variable named like a function keeps its name, wherever it is
    (_call(), _call(v="f"), False),
    (_call(v="f"), _call(a="n", v="f"), True),
], ids=["echo", "div0", "call", "function-name", "int-double",
        "variable-named-f", "variable-named-f-renamed"])
def test_token_key_ignores_layout_comments_and_variable_names(a, b, equal):
    assert (token_key(lex(a)) == token_key(lex(b))) is equal


def test_token_key_misses_fall_back_to_the_canonical_source(
        tmp_path, monkeypatch):
    # f_var's variable shares the function's name, so its tokens differ
    # from call's; renamed, both are the same program. g and one_double
    # differ from call and one in their canonical sources too.
    one = _DOUBLE.replace("v + v", "v + 1")
    sources = {"call": _call(), "f_var": _call(v="f"), "g": _call(f="g"),
               "one": one,
               "one_double": one.replace("v + 1", "v + 1.0")}
    _write_corpus_tree(str(tmp_path), {"alpha": (list(sources.items()),
                                                 [("3\n", "4")])})
    parsed, traced = count_calls(monkeypatch)
    corpus = ingest(str(tmp_path))
    arts = run_pipeline(corpus, mode="aast_inv", k=1)
    assert len(parsed) == 5
    assert len(traced) == 4  # f_var has call's canonical source
    monkeypatch.undo()
    assert not arts.exclusions
    docs = {p: a.docs for p, a in arts.programs.items()}
    assert docs["alpha/f_var"] == docs["alpha/call"]
    assert docs["alpha/one_double"] != docs["alpha/one"]
    for prog in corpus.assignments["alpha"].programs:
        if prog.id in arts.programs:
            assert analyze(prog, corpus.assignments["alpha"].tests).docs == \
                docs[prog.id]


def test_token_equivalent_rejections_report_their_own_names(
        tmp_path, monkeypatch):
    unresolved = ('int main() {\n  int v;\n  scanf("%d", &v);\n'
                  '  printf("%d", w);\n}\n')
    syntax = 'int main() {\n  int v;\n  v = ;\n}\n'
    sources = {"u0": unresolved,
               "u1": "\n// copy\n" + unresolved.replace("w", "total")
               .replace("v", "x"),
               "s0": syntax, "s1": "\n\n" + syntax.replace("v", "y"),
               "ok": _ECHO}
    _write_corpus_tree(str(tmp_path), {"alpha": (list(sources.items()),
                                                 [("3\n", "3")])})
    corpus = ingest(str(tmp_path))
    assert token_key(lex(sources["u0"])) == token_key(lex(sources["u1"]))
    assert token_key(lex(sources["s0"])) == token_key(lex(sources["s1"]))
    parsed, _ = count_calls(monkeypatch)
    arts = run_pipeline(corpus, mode="syntax", k=1)
    assert len(parsed) == 5  # rejections are never stored
    monkeypatch.undo()
    assert arts.exclusions == {
        "alpha/u0": "line 4: unresolved identifier 'w'",
        "alpha/u1": "line 6: unresolved identifier 'total'",
        "alpha/s0": "3:7: expected expression, found ';'",
        "alpha/s1": "5:7: expected expression, found ';'",
    }
    for prog in corpus.assignments["alpha"].programs[1:]:  # all but ok
        with pytest.raises(ProgramRejected) as exc:
            analyze(prog, corpus.assignments["alpha"].tests)
        assert arts.exclusions[prog.id] == str(exc.value)


def test_analyze_without_a_memo_computes_no_token_key(monkeypatch):
    def no_key(tokens):
        raise AssertionError("token_key called")

    monkeypatch.setattr("invclust.corpus.token_key", no_key)
    prog = SourceProgram(id="a/echo", label="a", text=_ECHO)
    assert analyze(prog, [TestCase("3\n", "3")]).correct


# The first test divides by zero; the others would loop to the step limit.
_ERROR_FIRST = ('int main() {\n  int v;\n  scanf("%d", &v);\n'
                "  while (v > 0) {\n    v = v + 0;\n  }\n"
                '  printf("%d", 1 / v);\n}\n')
_ERROR_FIRST_TESTS = [TestCase("0", "0"), TestCase("1", "1"),
                      TestCase("2", "2")]


def test_analyze_stops_the_suite_at_its_first_error(monkeypatch):
    ran = []
    run = tracer._Program.run
    monkeypatch.setattr(tracer._Program, "run",
                        lambda self, test: ran.append(test) or run(self, test))
    prog = SourceProgram(id="a/err", label="a", text=_ERROR_FIRST)
    with pytest.raises(RuntimeFailure, match="div-by-zero"):
        analyze(prog, _ERROR_FIRST_TESTS, max_steps=20_000)
    assert ran == _ERROR_FIRST_TESTS[:1]


def test_the_exclusion_is_the_whole_suites_first_error():
    prog = SourceProgram(id="a/err", label="a", text=_ERROR_FIRST)
    with pytest.raises(RuntimeFailure) as exc:
        analyze(prog, _ERROR_FIRST_TESTS, max_steps=20_000)
    log, verdicts = run_suite(rename(parse(_ERROR_FIRST))[0],
                              _ERROR_FIRST_TESTS, 20_000)
    assert verdicts == ["error"] * 3
    assert str(exc.value) == str(RuntimeFailure(log.errors[0]))


def _ids(n):
    return [f"p{i}" for i in range(n)]


def _max_distance_error(pts, rows):
    return max(abs(math.dist(pts[i], pts[j])
                   - math.dist(rows[i][1:], rows[j][1:]))
               for i in range(len(pts)) for j in range(i + 1, len(pts)))


def test_project_2d_preserves_distances_for_2d_input():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (3.0, 1.0)]
    rows = project_2d(_ids(4), np.array(pts))
    assert _max_distance_error(pts, rows) < 1e-6


def test_project_2d_preserves_distances_on_the_simplex():
    # Every row sums to 1, as an L1-normalized vector does, so every
    # centred row is orthogonal to the all-ones vector; the points span a
    # plane, which two principal axes must keep exactly.
    pts = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0)]
    rows = project_2d(_ids(4), np.array(pts))
    assert _max_distance_error(pts, rows) < 1e-9


def test_project_2d_identical_points():
    rows = project_2d(_ids(3), np.tile([2.0, 3.0, 4.0], (3, 1)))
    assert all(x == 0.0 and y == 0.0 for _, x, y in rows)


def test_project_2d_collinear_points_stay_collinear():
    pts = [(0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (2.0, 4.0, 6.0)]
    rows = project_2d(_ids(3), np.array(pts))
    coords = np.array([[x, y] for _, x, y in rows])
    u, v = coords[1] - coords[0], coords[2] - coords[0]
    area = u[0] * v[1] - u[1] * v[0]
    assert abs(float(area)) < 1e-9


def _pca_oracle(X):
    """X centred, on the covariance's eigenvectors of the two largest
    eigenvalues, each with its largest-magnitude component positive."""
    Xc = X - X.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(Xc.T @ Xc / len(Xc))
    axes = eigvecs[:, np.argsort(eigvals)[::-1][:2]]
    axes *= np.sign(axes[np.abs(axes).argmax(axis=0), [0, 1]])
    return Xc @ axes


def test_projection_csv_is_the_top_two_principal_components(tmp_path):
    corpus = generate_synthetic_corpus(0, 3, 10)
    arts = run_pipeline(corpus, mode="aast_inv", k=3, seed=0,
                        out_dir=str(tmp_path))
    with open(tmp_path / "projection.csv") as f:
        assert f.readline() == "id,x,y\n"
        rows = [line.rstrip("\n").split(",") for line in f]
    assert [r[0] for r in rows] == arts.clustered_ids
    got = np.array([[float(x), float(y)] for _, x, y in rows])
    assert (got.std(axis=0) > 1e-9).all()
    X = np.array([arts.programs[i].vector.values for i in arts.clustered_ids])
    assert (arts.clustered_vectors == X).all()
    assert np.abs(got - _pca_oracle(X)).max() < 1e-12


def test_vectors_npy_round_trip(tmp_path):
    _write_corpus_tree(str(tmp_path / "corpus"), {
        "alpha": ([("ok1", _ECHO), ("ok2", _ECHO), ("wrong", _DOUBLE)],
                  [("3\n", "3")]),
        "beta": ([("s0", _DOUBLE), ("s1", _DOUBLE)], [("2\n", "4")]),
    })
    out = tmp_path / "out"
    arts = run_pipeline(ingest(str(tmp_path / "corpus")), mode="aast_inv",
                        k=2, out_dir=str(out))
    table = np.load(out / "vectors.npy", allow_pickle=False)
    ids = arts.clustered_ids
    assert "alpha/wrong" in arts.programs and "alpha/wrong" not in ids
    assert table["id"].tolist() == ids
    assert table["values"].dtype == np.float64
    for pid, row in zip(ids, table["values"]):
        assert row.tolist() == arts.programs[pid].vector.values


@pytest.mark.parametrize("subset", ["correct-only", "all"])
def test_vectors_npy_holds_the_clustered_programs(tmp_path, subset):
    _write_corpus_tree(str(tmp_path / "corpus"), {
        "alpha": ([("ok1", _ECHO), ("ok2", _ECHO), ("wrong", _DOUBLE)],
                  [("3\n", "3")]),
        "beta": ([("s0", _DOUBLE), ("s1", _ECHO)], [("2\n", "4")]),
    })
    out = tmp_path / "out"
    run_pipeline(ingest(str(tmp_path / "corpus")), k=2, subset=subset,
                 out_dir=str(out))
    with open(out / "model.json") as f:
        assignment = json.load(f)["assignment"]
    with open(out / "documents.json") as f:
        documents = json.load(f)
    ids = np.load(out / "vectors.npy", allow_pickle=False)["id"].tolist()
    assert ids == sorted(assignment)
    assert len(documents) == 5
    assert len(ids) == (3 if subset == "correct-only" else 5)


@pytest.mark.parametrize("mode", MODES)
def test_load_model_round_trip(tmp_path, mode):
    corpus = generate_synthetic_corpus(seed=0, assignments=2, variants_per=4)
    arts = run_pipeline(corpus, mode=mode, k=2, out_dir=str(tmp_path))
    path = str(tmp_path / "model.json")
    model = load_model(path)
    assert (model.k, model.seed, model.assignment, model.representatives,
            model.sse, model.vocab) == (
        arts.model.k, arts.model.seed, arts.model.assignment,
        arts.model.representatives, arts.model.sse, arts.model.vocab)
    X = load_vectors(path, model, arts.clustered_ids)
    assert X.dtype == np.float64
    assert X.shape == arts.clustered_vectors.shape
    assert X.tobytes() == arts.clustered_vectors.tobytes()


_BAD_SUM = ('int main() {\n  int n, s = 0, i;\n  scanf("%d", &n);\n'
            "  for (i = 1; i < n; i++) {\n    s = s + i;\n  }\n"
            '  printf("%d", s);\n}\n')


# A process reuses its last parse of model.json and vectors.npy only while
# the bytes are equal: a vectors.npy rewritten in place at the same size
# is parsed again. What a load returns is the caller's own.
def test_loaders_reparse_changed_bytes_and_return_fresh_objects(tmp_path,
                                                                capsys):
    corpus = generate_synthetic_corpus(seed=0, assignments=2, variants_per=4)
    write_corpus(corpus, str(tmp_path / "corpus"))
    out = tmp_path / "out"
    arts = run_pipeline(corpus, k=2, out_dir=str(out))
    path = str(out / "model.json")
    query = tmp_path / "bad.c"
    query.write_text(_BAD_SUM)
    tests = tmp_path / "corpus" / "tests" / "sum1n"
    argv = ["closest", "--model", path, "--program", str(query), "--tests",
            str(tests), "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["distance"] > 0.0

    model = load_model(path)
    ids = sorted(model.representatives.values())
    rep = next(pid for pid in ids if pid != first["closest"])
    pa = analyze(SourceProgram(id="q", label="", text=_BAD_SUM),
                 ingest(str(tmp_path / "corpus")).assignments["sum1n"].tests)
    vectors = out / "vectors.npy"
    size = vectors.stat().st_size
    table = np.load(vectors, allow_pickle=False)
    table["values"][table["id"] == rep] = represent(pa.docs,
                                                    model.vocab).values
    np.save(vectors, table, allow_pickle=False)
    assert vectors.stat().st_size == size
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"closest": rep,
                                                   "distance": 0.0}

    X = load_vectors(path, model, arts.clustered_ids)
    kept = X.copy()
    model.assignment.clear()
    model.representatives[0] = "changed"
    model.vocab.grams.reverse()
    model.vocab.segments.append((0, 0))
    X[:] = -1.0
    again = load_model(path)
    assert again == load_model(path) != model
    assert (again.assignment, again.representatives, again.vocab) == (
        arts.model.assignment, arts.model.representatives, arts.model.vocab)
    assert load_vectors(path, again, arts.clustered_ids).tobytes() == (
        kept.tobytes())


def _count_parses(monkeypatch):
    """{name: calls} of the functions that parse a model.json's and a
    vectors.npy's bytes."""
    calls = {}
    for name in ("_model_from_dict", "_parse_vectors"):
        def counted(arg, real=getattr(invclust.corpus, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(arg)
        monkeypatch.setattr(invclust.corpus, name, counted)
    return calls


# A loader without a session parses its file at every call. A session
# parses each file once while its bytes are equal and again once they are
# rewritten in place; another session parses them anew.
def test_a_session_parses_each_persisted_file_once_per_bytes(tmp_path,
                                                             monkeypatch):
    corpus = generate_synthetic_corpus(seed=0, assignments=2, variants_per=4)
    ids = run_pipeline(corpus, k=2, out_dir=str(tmp_path)).clustered_ids
    path = str(tmp_path / "model.json")
    calls = _count_parses(monkeypatch)

    def load(session):
        model = load_model(path, session)
        return model, load_vectors(path, model, ids, session)

    for _ in range(3):
        model, X = load(None)
    assert calls == {"_model_from_dict": 3, "_parse_vectors": 3}
    session = Session()
    for _ in range(3):
        got, Y = load(session)
        assert got == model and Y.tobytes() == X.tobytes()
    assert calls == {"_model_from_dict": 4, "_parse_vectors": 4}

    d = json.loads((tmp_path / "model.json").read_text())
    (tmp_path / "model.json").write_text(json.dumps(d, indent=1))
    table = np.load(tmp_path / "vectors.npy", allow_pickle=False)
    table["values"] *= 2
    np.save(tmp_path / "vectors.npy", table, allow_pickle=False)
    for _ in range(3):
        again, doubled = load(session)
        assert again == model and doubled.tobytes() == (2 * X).tobytes()
    assert calls == {"_model_from_dict": 5, "_parse_vectors": 5}
    load(Session())
    assert calls == {"_model_from_dict": 6, "_parse_vectors": 6}


# Two sessions share no analysis: a program kept by one is parsed and
# traced again by the other, and then kept by it.
def test_sessions_share_no_analysis(monkeypatch):
    parsed, traced = count_calls(monkeypatch)
    answers = [session.analyze(SourceProgram("p", "", LEFT_SRC), sum_suite())
               for session in (Session(), Session()) for _ in range(2)]
    assert len(parsed) == len(traced) == 2
    assert all(pa == answers[0] for pa in answers)
