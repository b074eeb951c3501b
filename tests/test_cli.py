"""CLI subcommand tests: thin-wrapper golden checks and exit codes."""

import csv
import importlib
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import invclust
from invclust import cli, invariants
from invclust.cli import build_parser, main
from invclust.corpus import (Session, analyze, generate_synthetic_corpus,
                             load_model, read_source, read_tests,
                             run_pipeline, write_corpus)
from invclust.errors import RuntimeFailure
from invclust.lexer import MAX_SOURCE_CHARS
from invclust.nodes import Assignment, Corpus, SourceProgram
from invclust.tracer import TestCase
from invclust.vectorizer import MODES, represent

from conftest import HOSTILE_SOURCES, LEFT_SRC, count_calls

_ECHO = ('int main() {\n  int v;\n  scanf("%d", &v);\n'
         '  printf("%d", v);\n}\n')
# 2v - 1, which is also 1 on stdin 1.
_DOUBLE_PLUS_ONE = ('int main() {\n  int v;\n  scanf("%d", &v);\n'
                    '  printf("%d", v + v - 1);\n}\n')

BAD_SUM = ('int main() {\n  int n, s = 0, i;\n  scanf("%d", &n);\n'
           "  for (i = 1; i < n; i++) {\n    s = s + i;\n  }\n"
           '  printf("%d", s);\n}\n')
# BAD_SUM laid out and commented anew, with its variables renamed.
BAD_SUM_RENAMED = ('/* resubmitted */\nint main()\n{\n'
                   '\tint count, total = 0, k;\n\n'
                   '\tscanf("%d", &count);  // n\n'
                   "\tfor (k = 1; k < count; k++) { total = total + k; }\n"
                   '\tprintf("%d", total);\n}\n')
# n * 50 iterations: a --max-steps of 200 stops it on the sum1n tests.
SLOW_SUM = ('int main() {\n  int n, s = 0, i;\n  scanf("%d", &n);\n'
            "  for (i = 0; i < n * 50; i++) {\n    s = s + 1;\n  }\n"
            '  printf("%d", s);\n}\n')


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    out = root / "out"
    assert main(["synth", "--out", str(corpus), "--seed", "0",
                 "--assignments", "3", "--variants-per", "10"]) == 0
    assert main(["cluster", "--corpus", str(corpus),
                 "--tests", str(corpus / "tests"), "--mode", "aast+inv",
                 "--k-frac", "0.1", "--seed", "0", "--out", str(out)]) == 0
    left = root / "left.c"
    left.write_text(LEFT_SRC)
    bad = root / "bad.c"
    bad.write_text(BAD_SUM)
    return root


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_cluster_writes_model(workspace):
    assert sorted(os.listdir(workspace / "out")) == [
        "documents.json", "model.json", "projection.csv", "vectors.npy"]


# A rerun into the same --out writes each artifact as a new file, so a hard
# link to an old one keeps the old bytes.
def test_rerun_leaves_linked_old_artifacts_alone(workspace, tmp_path):
    corpus, out, old = workspace / "corpus", tmp_path / "out", tmp_path / "old"
    args = ["cluster", "--corpus", str(corpus), "--tests",
            str(corpus / "tests"), "--k-frac", "0.1", "--seed", "0",
            "--out", str(out)]
    assert main(args + ["--mode", "aast+inv"]) == 0
    names = sorted(os.listdir(out))
    old.mkdir()
    for name in names:
        os.link(out / name, old / name)
    before = {name: (old / name).read_bytes() for name in names}
    assert main(args + ["--mode", "aast"]) == 0
    assert sorted(os.listdir(out)) == names
    for name in names:
        assert not os.path.samefile(out / name, old / name), name
        assert (old / name).read_bytes() == before[name], name
    assert (out / "model.json").read_bytes() != before["model.json"]


def test_rename_matches_library(workspace, capsys):
    assert main(["rename", str(workspace / "left.c"), "--json"]) == 0
    payload = _json_out(capsys)
    from invclust.parser import parse
    from invclust.renamer import rename
    from invclust.unparse import unparse
    renamed, rmap = rename(parse(LEFT_SRC))
    assert payload["renamed"] == unparse(renamed)
    assert payload["mapping"] == rmap.as_dict()


def test_rename_map_gives_each_declaration_its_line(workspace, tmp_path,
                                                    capsys):
    src = ("int main() {\n  int x = 1;\n  if (x > 0) {\n    int x = 2;\n"
           '    printf("%d", x);\n  }\n}\n')
    path = tmp_path / "shadow.c"
    path.write_text(src)
    assert main(["rename", str(path), "--json"]) == 0
    payload = _json_out(capsys)
    from invclust.parser import parse
    from invclust.renamer import rename
    _, rmap = rename(parse(src))
    assert rmap.entries == [("x", 2, "int0"), ("x", 4, "int1")]
    assert payload["mapping"] == rmap.as_dict() == {"entries": [
        {"original": "x", "line": 2, "new_name": "int0"},
        {"original": "x", "line": 4, "new_name": "int1"}]}
    assert main(["rename", "--json",
                 str(workspace / "corpus" / "sum1n" / "v00.c")]) == 0
    assert _json_out(capsys)["mapping"]["entries"] == [
        {"original": "sum", "line": 2, "new_name": "int0"},
        {"original": "n", "line": 2, "new_name": "int1"},
        {"original": "i", "line": 2, "new_name": "int2"}]


def test_aast_matches_library(workspace, capsys):
    assert main(["aast", str(workspace / "left.c"), "--json"]) == 0
    payload = _json_out(capsys)
    from invclust.anonymizer import anonymize, serialize_aast
    from invclust.parser import parse
    from invclust.renamer import rename
    renamed, _ = rename(parse(LEFT_SRC))
    assert payload["aast"] == serialize_aast(anonymize(renamed)).text


# A trace names each point's kind by the last segment of its id.
def test_trace_verdicts(workspace, capsys):
    tests = workspace / "corpus" / "tests" / "sum1n"
    for program in ("left.c", "corpus/sum1n/v00.c"):
        assert main(["trace", str(workspace / program),
                     "--tests", str(tests), "--json"]) == 0
        payload = _json_out(capsys)
        assert set(payload["verdicts"]) == {"pass"}
        assert json.loads(payload["trace"])["point_kinds"] == {
            "main/entry": "function-entry", "main/exit": "function-exit",
            "main/loop0/body": "loop-body"}


def test_invariants_json(workspace, capsys):
    tests = workspace / "corpus" / "tests" / "sum1n"
    assert main(["invariants", str(workspace / "left.c"),
                 "--tests", str(tests), "--json"]) == 0
    payload = _json_out(capsys)
    body = [p for p in payload["invariants"] if p.endswith("/body")]
    assert len(body) == 1
    assert "int2 <= int1" in payload["invariants"][body[0]]


def test_invariants_bound_no_column_that_holds_a_nan(workspace, tmp_path,
                                                     capsys):
    """`float1` is inf - inf, a nan, at main/exit: in C every ordered
    comparison with a nan is false, so no bound on it holds."""
    src = tmp_path / "nan.c"
    src.write_text("int main() {\n  double x = 1e308;\n  double y;\n"
                   "  x = x * 10;\n  y = x - x;\n}\n")
    tests = workspace / "corpus" / "tests" / "sum1n"
    assert main(["invariants", str(src), "--tests", str(tests),
                 "--json"]) == 0
    facts = _json_out(capsys)["invariants"]["main/exit"]
    assert [f for f in facts if f.startswith("float1 ")] == ["float1 != 0"]
    assert "float0 == inf" in facts


def test_representatives_listing(workspace, capsys):
    assert main(["representatives", "--model",
                 str(workspace / "out" / "model.json"), "--json"]) == 0
    payload = _json_out(capsys)
    assert len(payload["representatives"]) == 3


def test_purity_of_model(workspace, capsys):
    assert main(["purity", "--model",
                 str(workspace / "out" / "model.json"), "--json"]) == 0
    assert _json_out(capsys)["purity"] == 1.0


def test_purity_reads_the_labels_of_documents(tmp_path, capsys):
    """Ids that carry no assignment prefix: `purity` labels each program
    as run_pipeline does, by its label, not by its id."""
    corpus = Corpus(assignments={
        label: Assignment(
            label=label,
            programs=[SourceProgram(id=f"{prefix}{i}", label=label, text=src)
                      for i in range(3)],
            tests=[TestCase("1\n", "1")])
        for label, prefix, src in (("alpha", "p", _ECHO),
                                   ("beta", "q", _DOUBLE_PLUS_ONE))})
    arts = run_pipeline(corpus, k=2, out_dir=str(tmp_path))
    assert main(["purity", "--model", str(tmp_path / "model.json"),
                 "--json"]) == 0
    assert _json_out(capsys)["purity"] == arts.purity == 1.0


def test_closest_prints_id_and_distance(workspace, capsys):
    tests = workspace / "corpus" / "tests" / "sum1n"
    assert main(["closest", "--model", str(workspace / "out" / "model.json"),
                 "--program", str(workspace / "bad.c"),
                 "--tests", str(tests)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"closest", "distance"}
    assert payload["closest"].startswith("sum1n/")
    assert payload["distance"] >= 0.0


def test_closest_all_candidates_scans_everything(workspace, capsys):
    out = workspace / "out"
    tests = workspace / "corpus" / "tests" / "sum1n"
    assert main(["closest", "--model", str(out / "model.json"),
                 "--program", str(workspace / "bad.c"),
                 "--tests", str(tests), "--all-candidates", "--json"]) == 0
    payload = _json_out(capsys)
    # Rebuild the query exactly as the CLI does.
    with open(out / "model.json") as f:
        model = json.load(f)
    pa = analyze(SourceProgram(id="query", label="",
                               text=read_source(str(workspace / "bad.c"))),
                 read_tests(str(tests)))
    vocab = load_model(str(out / "model.json")).vocab
    q = np.asarray(represent(pa.docs, vocab, "query").values)
    # Brute force over every clustered row of the persisted matrix.
    table = np.load(out / "vectors.npy", allow_pickle=False)
    scanned = [(float(np.linalg.norm(row - q)), pid)
               for pid, row in zip(table["id"].tolist(), table["values"])
               if pid in model["assignment"]]
    assert len(scanned) == len(model["assignment"])
    distance, closest = min(scanned)
    assert payload == {"closest": closest, "distance": distance}
    assert main(["closest", "--model", str(out / "model.json"),
                 "--program", str(workspace / "bad.c"),
                 "--tests", str(tests), "--json"]) == 0
    rep_payload = _json_out(capsys)
    assert payload["distance"] <= rep_payload["distance"]
    # A clustered program is its own closest.
    assert main(["closest", "--model", str(out / "model.json"),
                 "--program", str(workspace / "corpus" / "sum1n" / "v03.c"),
                 "--tests", str(tests), "--all-candidates", "--json"]) == 0
    assert _json_out(capsys) == {"closest": "sum1n/v03", "distance": 0.0}


def test_unknown_mode_exit_1(workspace, capsys):
    code = main(["cluster", "--corpus", str(workspace / "corpus"),
                 "--mode", "bogus"])
    capsys.readouterr()
    assert code == 1


def test_missing_file_exit_2(workspace, capsys):
    code = main(["rename", str(workspace / "nope.c")])
    capsys.readouterr()
    assert code == 2


def test_missing_test_suite_exit_2(workspace, capsys):
    suite = workspace / "nosuchdir"
    code = main(["trace", str(workspace / "left.c"), "--tests", str(suite)])
    assert code == 2
    assert capsys.readouterr().err == f"error: no test suite in '{suite}'\n"


def test_unsupported_program_exit_2(workspace, capsys):
    bad = workspace / "ptr.c"
    bad.write_text("int main() { int *p; }\n")
    code = main(["rename", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "pointer" in err
    # A line comment that ends the text: the error is at its end.
    bad.write_text("int main() { // x")
    assert main(["rename", str(bad)]) == 2
    assert capsys.readouterr().err == "error: 1:18: unterminated block\n"


@pytest.mark.parametrize("kind", sorted(HOSTILE_SOURCES))
def test_hostile_closest_exit_2(workspace, capsys, kind):
    data, diagnostic = HOSTILE_SOURCES[kind]
    prog = workspace / f"{kind}.c"
    prog.write_bytes(data)
    code = main(["closest", "--model", str(workspace / "out" / "model.json"),
                 "--program", str(prog),
                 "--tests", str(workspace / "corpus" / "tests" / "sum1n")])
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert code == 2
    assert len(errors) == 1 and diagnostic in errors[0]


@pytest.mark.parametrize("kind", sorted(HOSTILE_SOURCES))
def test_hostile_invariants_exit_2(workspace, capsys, kind):
    data, diagnostic = HOSTILE_SOURCES[kind]
    prog = workspace / f"{kind}.c"
    prog.write_bytes(data)
    code = main(["invariants", str(prog),
                 "--tests", str(workspace / "corpus" / "tests" / "sum1n")])
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert code == 2
    assert len(errors) == 1 and diagnostic in errors[0]


@pytest.mark.parametrize("command", ["rename", "aast", "trace", "invariants",
                                     "closest"])
def test_too_large_source_exit_2(workspace, capsys, command):
    prog = workspace / "too-large.c"
    prog.write_text(LEFT_SRC + "/*" + " " * MAX_SOURCE_CHARS + "*/\n")
    tests = ["--tests", str(workspace / "corpus" / "tests" / "sum1n")]
    argv = {
        "rename": ["rename", str(prog)],
        "aast": ["aast", str(prog)],
        "trace": ["trace", str(prog), *tests],
        "invariants": ["invariants", str(prog), *tests],
        "closest": ["closest", "--model", str(workspace / "out" / "model.json"),
                    "--program", str(prog), *tests],
    }[command]
    code = main(argv)
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    size = len(LEFT_SRC) + MAX_SOURCE_CHARS + 5
    assert code == 2
    assert errors == [f"error: source too large: {size} characters "
                      f"(limit {MAX_SOURCE_CHARS})"]


@pytest.mark.parametrize("command", ["invariants", "closest"])
def test_runtime_error_prints_its_diagnostic(workspace, capsys, command):
    prog = workspace / "divzero.c"
    prog.write_text('int main() {\n  int n;\n  scanf("%d", &n);\n'
                    '  printf("%d", n / 0);\n}\n')
    argv = {"invariants": ["invariants", str(prog)],
            "closest": ["closest", "--program", str(prog), "--model",
                        str(workspace / "out" / "model.json")]}[command]
    # The second run is answered from what the first kept, and the kept
    # failure holds no traceback, which would keep the frames of its call.
    for _ in range(2):
        code = main(argv + ["--tests",
                            str(workspace / "corpus" / "tests" / "sum1n")])
        assert code == 2
        assert capsys.readouterr().err == "error: div-by-zero at main/entry\n"
    [kept] = {id(o): o for memo in cli._session.memos.values()
              for o in memo.values()}.values()
    assert isinstance(kept, RuntimeFailure) and kept.__traceback__ is None


def test_no_command_exit_1(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 1


def test_project_is_a_usage_error(workspace, capsys):
    # projection.csv has one writer, cluster --out.
    code = main(["project", "--artifacts", str(workspace / "out")])
    assert code == 1
    assert "invalid choice: 'project'" in capsys.readouterr().err


# k below 1 is a usage error: test_numeric_flag_below_one_is_usage_error.
# A --k-frac of 1e308 makes n * frac + 0.5 infinite, which no int holds.
@pytest.mark.parametrize("flag,value", [
    ("--k", "50"), ("--k-frac", "5"), ("--k-frac", "1e308"),
], ids=["50", "k-frac-5", "k-frac-1e308"])
def test_k_out_of_range_exit_2(workspace, capsys, flag, value):
    code = main(["cluster", "--corpus", str(workspace / "corpus"),
                 flag, value])
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert code == 2
    assert len(errors) == 1 and errors[0].endswith(" 30 points")
    assert "Traceback" not in captured.err


def test_old_vectors_with_unclustered_rows_answer_closest(workspace,
                                                         tmp_path, capsys):
    # Trees written before vectors.npy held the clustered programs only
    # also hold a row for each surviving program that failed its tests.
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    shutil.copy(workspace / "bad.c", corpus / "sum1n" / "zbad.c")
    out = tmp_path / "out"
    assert main(["cluster", "--corpus", str(corpus), "--k", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    documents = json.loads((out / "documents.json").read_text())
    table = np.load(out / "vectors.npy", allow_pickle=False)
    assert "sum1n/zbad" in documents
    assert "sum1n/zbad" not in table["id"].tolist()
    model = str(out / "model.json")
    queries = [["closest", "--model", model, "--program",
                str(workspace / "bad.c"), "--tests",
                str(corpus / "tests" / "sum1n"), *flag]
               for flag in ([], ["--all-candidates"])]

    def answers():
        got = [(main(argv), capsys.readouterr()) for argv in queries]
        return [(code, cap.out, cap.err) for code, cap in got]

    before = answers()
    # The row the old pipeline wrote for zbad is the query's own vector,
    # at distance 0: reading it as a candidate would change the answer.
    pa = analyze(SourceProgram(id="sum1n/zbad", label="sum1n",
                               text=read_source(str(workspace / "bad.c"))),
                 read_tests(str(corpus / "tests" / "sum1n")))
    extra = np.empty(1, dtype=table.dtype)
    extra["id"] = "sum1n/zbad"
    extra["values"] = represent(pa.docs, load_model(model).vocab).values
    old = np.sort(np.concatenate([table, extra]), order="id")
    np.save(out / "vectors.npy", old, allow_pickle=False)
    assert np.load(out / "vectors.npy")["id"].tolist() == sorted(documents)
    assert answers() == before
    assert all(code == 0 and json.loads(stdout)["distance"] > 0
               for code, stdout, _ in before)


def test_model_in_the_older_format_answers_closest(workspace, tmp_path,
                                                  capsys):
    # model.json once held a copy of the vocabulary's mode at the top level
    # and no k_requested.
    out = tmp_path / "out"
    shutil.copytree(workspace / "out", out)
    model = out / "model.json"
    d = json.loads(model.read_text())
    d["mode"] = d["vocab"]["mode"]
    del d["k_requested"]
    old = tmp_path / "old" / "model.json"
    old.parent.mkdir()
    old.write_text(json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n")
    shutil.copy(out / "vectors.npy", old.parent / "vectors.npy")
    assert load_model(str(old)) == load_model(str(model))
    answers = []
    for path in (model, old):
        for flag in ([], ["--all-candidates"]):
            assert main(["closest", "--model", str(path), "--program",
                         str(workspace / "bad.c"), "--tests",
                         str(workspace / "corpus" / "tests" / "sum1n"),
                         "--json", *flag]) == 0
            answers.append(capsys.readouterr().out)
    assert answers[:2] == answers[2:]


# A query is analyzed with the MIN_SAMPLES its model's documents were, so
# a clustered program is at distance 0 from its own row. These three have
# points with fewer than 6 snapshots: analyzed with 2 against documents
# detected with 6, they would be at 0.0794, 0.0470 and 0.0719.
def test_closest_analyzes_with_the_clustered_min_samples(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(invariants, "MIN_SAMPLES", 6)
    corpus = generate_synthetic_corpus(0, 3, 10)
    write_corpus(corpus, tmp_path / "corpus")
    out = tmp_path / "out"
    run_pipeline(corpus, k=3, seed=0, out_dir=str(out))
    model = out / "model.json"
    for pid in ("sum1n/v03", "maxseq/v02", "factorial/v02"):
        label = pid.split("/")[0]
        assert main(["closest", "--model", str(model),
                     "--program", str(tmp_path / "corpus" / f"{pid}.c"),
                     "--tests", str(tmp_path / "corpus" / "tests" / label),
                     "--all-candidates", "--json"]) == 0
        assert _json_out(capsys) == {"closest": pid, "distance": 0.0}


# The snapshot gate is the constant invariants.MIN_SAMPLES, so no command
# takes --min-samples (for values below one, see
# test_numeric_flag_below_one_is_usage_error).
@pytest.mark.parametrize("command,value", [
    ("trace", "2"), ("closest", "2"), ("cluster", "6"),
], ids=["trace", "closest", "cluster"])
def test_min_samples_is_a_usage_error(workspace, tmp_path, capsys, command,
                                      value):
    program, out = str(workspace / "left.c"), tmp_path / "out"
    tests = ["--tests", str(workspace / "corpus" / "tests" / "sum1n")]
    model = str(workspace / "out" / "model.json")
    argv = {"trace": ["trace", program, *tests],
            "closest": ["closest", "--model", model, "--program", program,
                        *tests],
            "cluster": ["cluster", "--corpus", str(workspace / "corpus"),
                        "--k", "3", "--seed", "0", "--out", str(out)]}[command]
    code = main(argv + ["--min-samples", value])
    err = capsys.readouterr().err
    assert code == 1
    assert "--min-samples" in err and "Traceback" not in err
    assert not out.exists()


# Vectors are term frequencies, so cluster takes no --idf.
def test_idf_is_a_usage_error(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["cluster", "--corpus", str(workspace / "corpus"), "--idf",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "--idf" in err and "Traceback" not in err
    assert not out.exists()


def test_exclusions_are_entries_of_documents(workspace, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    # Copies of a submission: relaid out, renamed and commented, and one
    # that fails its tests.
    v03 = (corpus / "sum1n" / "v03.c").read_text()
    copies = {"v03relaid": v03.replace("{", "{\n\n// relaid"),
              "v03renamed": "// a renamed copy\n" + re.sub(r"\bres\b",
                                                             "total", v03),
              "v03wrong": v03.replace('printf("%d", res)',
                                      'printf("%d", res + 1)')}
    assert "total" in copies["v03renamed"] and "+ 1" in copies["v03wrong"]
    for name, text in copies.items():
        (corpus / "sum1n" / f"{name}.c").write_text(text)
    planted = {"sum1n/xpointer": "pointer"}
    (corpus / "sum1n" / "xpointer.c").write_text("int main() { int *p; }\n")
    for kind, (data, diagnostic) in HOSTILE_SOURCES.items():
        (corpus / "sum1n" / f"x{kind}.c").write_bytes(data)
        planted[f"sum1n/x{kind}"] = diagnostic
    out = tmp_path / "out"
    assert main(["cluster", "--corpus", str(corpus), "--k", "3",
                 "--out", str(out), "--json"]) == 0
    exclusions = _json_out(capsys)["exclusions"]
    assert sorted(exclusions) == sorted(planted)
    assert all(planted[pid] in diag for pid, diag in exclusions.items())
    documents = json.loads((out / "documents.json").read_text())
    assert {pid: documents.pop(pid) for pid in planted} == {
        pid: {"exclusion": diag, "label": "sum1n"}
        for pid, diag in exclusions.items()}
    # The copies get the original's documents and vector; the failing one
    # has documents and no vector.
    table = np.load(out / "vectors.npy", allow_pickle=False)
    row = dict(zip(table["id"].tolist(), table["values"]))
    for pid in ("sum1n/v03relaid", "sum1n/v03renamed"):
        assert documents.pop(pid) == documents["sum1n/v03"]
        assert (row[pid] == row["sum1n/v03"]).all()
    assert set(documents["sum1n/v03"]["verdicts"]) == {"pass"}
    assert "fail" in documents.pop("sum1n/v03wrong")["verdicts"]
    assert "sum1n/v03wrong" not in row
    # The other entries are those of a run without the planted files.
    assert documents == json.loads(
        (workspace / "out" / "documents.json").read_text())


# A clustered program, and a copy of it with a blank line and a comment
# after each `{`, are at distance 0.0 from its own row in every mode.
@pytest.mark.parametrize("mode", MODES)
def test_layout_moves_no_closest_distance(workspace, tmp_path, capsys, mode):
    corpus, out = workspace / "corpus", tmp_path / "out"
    v03, relaid = corpus / "sum1n" / "v03.c", tmp_path / "v03-relaid.c"
    relaid.write_text(v03.read_text().replace("{", "{\n\n// relaid"))
    assert main(["cluster", "--corpus", str(corpus), "--k", "3", "--seed",
                 "0", "--mode", mode, "--n", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    for program in (v03, relaid):
        assert main(["closest", "--model", str(out / "model.json"),
                     "--program", str(program), "--tests",
                     str(corpus / "tests" / "sum1n"), "--all-candidates",
                     "--json"]) == 0
        assert _json_out(capsys)["distance"] == 0.0, program


def test_k_above_distinct_vectors_is_clamped(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    (corpus / "echo").mkdir(parents=True)
    (corpus / "tests" / "echo").mkdir(parents=True)
    for i in range(3):
        (corpus / "echo" / f"s{i}.c").write_text(
            'int main() {\n  int v;\n  scanf("%d", &v);\n'
            '  printf("%d", v);\n}\n')
    (corpus / "tests" / "echo" / "t0.in").write_text("1\n")
    (corpus / "tests" / "echo" / "t0.out").write_text("1")
    out = tmp_path / "out"
    assert main(["cluster", "--corpus", str(corpus), "--k", "3",
                 "--out", str(out), "--json"]) == 0
    assert _json_out(capsys)["k"] == 1
    model = json.loads((out / "model.json").read_text())
    assert model["k"] == 1 and model["k_requested"] == 3


def test_cluster_one_program_projects_to_origin(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    (corpus / "echo").mkdir(parents=True)
    (corpus / "tests" / "echo").mkdir(parents=True)
    (corpus / "echo" / "s0.c").write_text(
        'int main() {\n  int v;\n  scanf("%d", &v);\n'
        '  printf("%d", v);\n}\n')
    (corpus / "tests" / "echo" / "t0.in").write_text("1\n")
    (corpus / "tests" / "echo" / "t0.out").write_text("1")
    out = tmp_path / "out"
    assert main(["cluster", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "projection.csv").read_text() == "id,x,y\necho/s0,0.0,0.0\n"


# A program id is its file name: one with a comma is quoted, one that is not
# UTF-8 is written back as its own bytes, and each row reads as three fields.
def test_projection_rows_keep_file_names(workspace, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    names = ["Smith, John.c", os.fsdecode(b"bad\xff.c")]
    for name in names:
        shutil.copy(corpus / "sum1n" / "v03.c", corpus / "sum1n" / name)
    out = tmp_path / "out"
    assert main(["cluster", "--corpus", str(corpus), "--k", "3",
                 "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    model = json.loads((out / "model.json").read_text())
    assert {f"sum1n/{name[:-2]}" for name in names} <= set(model["assignment"])
    with open(out / "projection.csv", encoding="utf-8",
              errors="surrogateescape", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["id", "x", "y"]
    assert all(len(row) == 3 for row in rows)
    assert [row[0] for row in rows[1:]] == sorted(model["assignment"])


@pytest.mark.parametrize("fname", ["t0.in", "t0.out"])
def test_non_utf8_test_file_exit_2(workspace, capsys, fname):
    tests = workspace / f"bad-tests-{fname}"
    tests.mkdir()
    (tests / "t0.in").write_bytes(b"3\n")
    (tests / "t0.out").write_bytes(b"6")
    (tests / fname).write_bytes(b"3\xff")
    code = main(["trace", str(workspace / "left.c"), "--tests", str(tests)])
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert code == 2
    assert len(errors) == 1 and str(tests / fname) in errors[0]


def test_non_utf8_test_file_in_corpus_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    (corpus / "echo").mkdir(parents=True)
    (corpus / "tests" / "echo").mkdir(parents=True)
    (corpus / "echo" / "s0.c").write_text("int main() { }\n")
    (corpus / "tests" / "echo" / "t0.in").write_bytes(b"1\xff")
    (corpus / "tests" / "echo" / "t0.out").write_text("1")
    code = main(["cluster", "--corpus", str(corpus)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "t0.in: not UTF-8" in err


@pytest.mark.parametrize("argv", [
    ["rename", "{corpus}"],
    ["cluster", "--corpus", "{left}"],
    ["synth", "--out", "{left}"],
    ["cluster", "--corpus", "{corpus}", "--k", "3", "--out", "{left}"],
], ids=["rename-dir", "cluster-corpus-file", "synth-out-file",
        "cluster-out-file"])
def test_path_the_os_refuses_exit_2(workspace, capsys, argv):
    paths = {"corpus": workspace / "corpus", "left": workspace / "left.c"}
    code = main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert code == 2
    assert len(errors) == 1
    assert "Traceback" not in captured.err


def test_restarts_below_one_is_usage_error(workspace, capsys):
    code = main(["cluster", "--corpus", str(workspace / "corpus"),
                 "--restarts", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert "--restarts" in err and "Traceback" not in err


_BELOW_ONE = ["0", "-1", "nan", "inf", "-inf"]


# --seed may be 0, so it takes every value but that one. --min-samples is
# no flag of any command, so every value of it is a usage error too.
@pytest.mark.parametrize("value,command,flag", [
    (value, command, flag)
    for command, flag in [
        ("cluster", "--n"), ("cluster", "--min-samples"),
        ("cluster", "--k-frac"), ("cluster", "--k"),
        ("invariants", "--min-samples"), ("invariants", "--max-steps")]
    for value in _BELOW_ONE
] + [(value, "cluster", "--seed") for value in _BELOW_ONE[1:]])
def test_numeric_flag_below_one_is_usage_error(workspace, capsys, command,
                                               flag, value):
    if command == "cluster":
        argv = ["cluster", "--corpus", str(workspace / "corpus")]
    else:
        argv = ["invariants", str(workspace / "left.c"),
                "--tests", str(workspace / "corpus" / "tests" / "sum1n")]
    code = main(argv + [flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("flag,value", [
    ("--assignments", "0"), ("--assignments", "1"), ("--assignments", "4"),
    ("--assignments", "99"), ("--assignments", "-1"),
    ("--variants-per", "1"), ("--variants-per", "0"),
    ("--variants-per", "-1")])
def test_synth_size_out_of_range_is_usage_error(tmp_path, capsys, flag,
                                                value):
    code = main(["synth", "--out", str(tmp_path / "corpus"), flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert flag in err and "Traceback" not in err
    assert not (tmp_path / "corpus").exists()


# sum1n's variants run out at 363 distinct texts for seed 0.
def test_synth_past_the_distinct_variants_exit_2(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "corpus"), "--seed", "0",
                 "--variants-per", "400"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: could not generate 400 distinct variants for "
                   "sum1n: reached 363\n")
    assert not (tmp_path / "corpus").exists()


def _truncate(path):
    path.write_bytes(path.read_bytes()[:40])


def _edit_model(path, edit):
    """Rewrite model.json in place as persist formats it, so an edit that
    moves no byte count (swapping two grams) keeps the file's size."""
    d = json.loads(path.read_text())
    edit(d)
    path.write_text(json.dumps(d, sort_keys=True, separators=(",", ":"))
                    + "\n")


def _edit_vocab(edit):
    return lambda path: _edit_model(path, lambda d: edit(d["vocab"]))


def _overlap_segments(v):
    (_, split), (_, end) = v["segments"]
    v["segments"] = [[0, split + 1], [split, end]]


def _swap_grams(v):
    v["grams"][0], v["grams"][1] = v["grams"][1], v["grams"][0]


def _replace_with_directory(path):
    os.remove(path)
    os.mkdir(path)


def _move_representative(d):
    rep = d["representatives"]["0"]
    d["assignment"][rep] = 1


_MODEL_DAMAGE = {
    "truncated": _truncate,
    "no-vocab": lambda path: _edit_model(path, lambda d: d.pop("vocab")),
    "unknown-mode": _edit_vocab(lambda v: v.update(mode="tokens")),
    "extra-segment": _edit_vocab(lambda v: v["segments"].append([0, 0])),
    "gram-size": _edit_vocab(lambda v: v.update(n="3")),
    "no-clusters": lambda path: _edit_model(
        path, lambda d: d.update(assignment={})),
    "segment-gap": _edit_vocab(lambda v: v.update(
        segments=[[0, 1], [2, len(v["grams"])]])),
    "segment-overlap": _edit_vocab(_overlap_segments),
    "short-cover": _edit_vocab(lambda v: v.update(segments=[[0, 1], [1, 2]])),
    "unsorted-grams": _edit_vocab(_swap_grams),
    "idf": _edit_vocab(lambda v: v.update(idf=[1.0] * len(v["grams"]))),
    "cluster-index": lambda path: _edit_model(
        path, lambda d: d["assignment"].update(
            {sorted(d["assignment"])[0]: 7})),
    "moved-representative": lambda path: _edit_model(
        path, _move_representative),
    "missing-model": os.remove,
    "model-directory": _replace_with_directory,
}


def _rewrite_vectors(path, ids=None, width=None):
    """vectors.npy again with only the rows `ids` and the first `width`
    values of each."""
    table = np.load(path, allow_pickle=False)
    if ids is not None:
        table = table[np.isin(table["id"], ids)]
    values = table["values"][:, :width]
    short = np.empty(len(table), dtype=[("id", table.dtype["id"]),
                                        ("values", "<f8", values.shape[1:])])
    short["id"], short["values"] = table["id"], values
    np.save(path, short, allow_pickle=False)


def _drop_representative(path):
    model = json.loads((path.parent / "model.json").read_text())
    rep = sorted(model["representatives"].values())[0]
    _rewrite_vectors(path, ids=[i for i in np.load(path)["id"].tolist()
                                if i != rep])


def _duplicate_first_row(path):
    table = np.load(path, allow_pickle=False)
    np.save(path, np.concatenate([table, table[:1]]), allow_pickle=False)


_VECTOR_DAMAGE = {
    "truncated-vector": _truncate,
    "duplicate-id": _duplicate_first_row,
    "short-vector": lambda path: _rewrite_vectors(path, width=3),
    "missing-vectors": os.remove,
    "unknown-id": _drop_representative,
    "pickled-vectors": lambda path: np.save(
        path, np.array([{"id": "sum1n/v00"}], dtype=object),
        allow_pickle=True),
    "plain-matrix": lambda path: np.save(path, np.load(path)["values"]),
}


def _edit_clustered_entry(edit):
    """Apply edit(documents, id) for the first clustered id."""
    def damage(path):
        documents = json.loads(path.read_text())
        model = json.loads((path.parent / "model.json").read_text())
        edit(documents, sorted(model["assignment"])[0])
        path.write_text(json.dumps(documents))
    return damage


_DOCUMENTS_DAMAGE = {
    "truncated-documents": _truncate,
    "missing-documents": os.remove,
    "unknown-program": _edit_clustered_entry(lambda d, pid: d.pop(pid)),
    "unlabelled": _edit_clustered_entry(lambda d, pid: d[pid].pop("label")),
}


@pytest.mark.parametrize("command,damage", [
    (command, damage)
    for command in ("closest", "representatives", "purity")
    for damage in _MODEL_DAMAGE
] + [("closest", damage) for damage in _VECTOR_DAMAGE]
  + [("purity", damage) for damage in _DOCUMENTS_DAMAGE])
def test_malformed_model_exit_2(workspace, tmp_path, capsys, command, damage):
    out = tmp_path / "out"
    shutil.copytree(workspace / "out", out)
    model = out / "model.json"
    argv = [command, "--model", str(model)]
    if command == "closest":
        argv += ["--program", str(workspace / "bad.c"), "--tests",
                 str(workspace / "corpus" / "tests" / "sum1n")]
    # The loaders now hold the undamaged files' parse; damage in place
    # (unsorted-grams keeps model.json's size) must not reuse it.
    assert main(argv) == 0
    capsys.readouterr()
    if damage in _VECTOR_DAMAGE:
        bad = out / "vectors.npy"
        _VECTOR_DAMAGE[damage](bad)
    elif damage in _DOCUMENTS_DAMAGE:
        bad = out / "documents.json"
        _DOCUMENTS_DAMAGE[damage](bad)
    else:
        bad = model
        _MODEL_DAMAGE[damage](bad)
    code = main(argv)
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert code == 2
    assert len(errors) == 1 and str(bad) in errors[0]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


# What a process keeps between queries lives in one session, the CLI's: no
# other module holds one a caller did not create.
def test_the_only_module_level_session_is_the_clis():
    held = []
    for info in pkgutil.iter_modules(invclust.__path__):
        module = importlib.import_module(f"invclust.{info.name}")
        held += [f"{module.__name__}.{name}"
                 for name, value in vars(module).items()
                 if isinstance(value, Session)]
    assert held == ["invclust.cli._session"]


# `python -m invclust` runs main: the same exit codes and output, a usage
# error and a missing file included. A query repeated in one process, and
# one under a --max-steps its earlier analysis did not have, print what a
# fresh process does.
def test_repeated_main_calls_match_fresh_processes(workspace, tmp_path,
                                                   capsys):
    model = str(workspace / "out" / "model.json")
    tests = ["--tests", str(workspace / "corpus" / "tests" / "sum1n")]
    slow = tmp_path / "slow.c"
    slow.write_text(SLOW_SUM)
    closest = ["closest", "--model", model, "--program",
               str(workspace / "bad.c"), *tests, "--all-candidates"]
    slow_closest = ["closest", "--model", model, "--program", str(slow),
                    *tests]
    runs = [["representatives", "--model", model, "--json"],
            ["purity", "--model", model],
            closest,
            closest,
            ["invariants", str(workspace / "bad.c"), *tests, "--json"],
            slow_closest,
            slow_closest + ["--max-steps", "200"],
            ["cluster", "--corpus", str(workspace / "corpus"), "--bogus"],
            ["rename", str(workspace / "nope.c")]]
    in_process = []
    for argv in runs:
        code = main(argv)
        in_process.append((code, *capsys.readouterr()))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    fresh = []
    for argv in runs:
        done = subprocess.run([sys.executable, "-m", "invclust", *argv],
                              capture_output=True, text=True, env=env)
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert in_process == fresh
    # --json of the first call does not carry over to the second.
    assert in_process[1] == (0, "purity 1.0000\n", "")
    assert [code for code, _, _ in fresh[2:]] == [0, 0, 0, 0, 2, 1, 2]
    assert fresh[6][2].startswith("error: step-limit")
    err = fresh[-1][2]
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nope.c" in err and "Traceback" not in err


def _suite_dir(root, cases):
    """A tests directory of t<i>.in / t<i>.out for (input, output) cases."""
    root.mkdir()
    for i, (stdin, expected) in enumerate(cases):
        (root / f"t{i}.in").write_text(stdin)
        (root / f"t{i}.out").write_text(expected)
    return root


# A query repeated in one process, and a copy differing only in layout,
# comments and variable names, are neither parsed nor traced, and print
# the same bytes.
def test_repeated_and_renamed_queries_trace_nothing(workspace, tmp_path,
                                                    capsys, monkeypatch):
    renamed = tmp_path / "renamed.c"
    renamed.write_text(BAD_SUM_RENAMED)
    model = str(workspace / "out" / "model.json")
    tests = ["--tests", str(workspace / "corpus" / "tests" / "sum1n")]

    def outputs(program):
        argvs = [["closest", "--model", model, "--program", program, *tests,
                  "--json", *flag] for flag in ([], ["--all-candidates"])]
        argvs.append(["invariants", program, *tests, "--json"])
        printed = []
        for argv in argvs:
            assert main(argv) == 0
            printed.append(capsys.readouterr())
        return printed

    first = outputs(str(workspace / "bad.c"))
    parsed, traced = count_calls(monkeypatch)
    assert outputs(str(workspace / "bad.c")) == first
    assert outputs(str(renamed)) == first
    assert parsed == [] and traced == []


# The suite is keyed by its files' text, so a t0.out rewritten in place at
# the same path is another suite, and changing it back finds the first.
def test_rewritten_test_file_changes_the_verdicts(tmp_path, capsys):
    tests = _suite_dir(tmp_path / "tests", [("3\n", "3\n")])
    program = tmp_path / "echo.c"
    program.write_text(_ECHO)
    verdicts = []
    for expected in ("3\n", "4\n", "3\n"):
        (tests / "t0.out").write_text(expected)
        assert main(["invariants", str(program), "--tests", str(tests),
                     "--json"]) == 0
        verdicts.append(_json_out(capsys)["verdicts"])
    assert verdicts == [["pass"], ["fail"], ["pass"]]


# max_steps is part of what a query reuses: the program a small limit
# stops is analyzed again under it, and the kept analysis without a limit
# stands.
def test_max_steps_is_part_of_the_reuse(tmp_path, capsys):
    tests = _suite_dir(tmp_path / "tests", [("5\n", "250\n")])
    program = tmp_path / "slow.c"
    program.write_text(SLOW_SUM)
    codes = []
    for limit in ([], ["--max-steps", "200"], [], ["--max-steps", "200"]):
        codes.append(main(["invariants", str(program), "--tests",
                           str(tests), *limit]))
        err = capsys.readouterr().err
        assert err == ("" if codes[-1] == 0 else
                       "error: step-limit at main/loop0/body\n")
    assert codes == [0, 2, 0, 2]


def _closest_json(workspace, capsys, path):
    """What `closest --all-candidates --json` prints for the program at
    path against the workspace model and the sum1n tests."""
    assert main(["closest", "--model", str(workspace / "out" / "model.json"),
                 "--program", str(path), "--tests",
                 str(workspace / "corpus" / "tests" / "sum1n"),
                 "--all-candidates", "--json"]) == 0
    return capsys.readouterr().out


# With a small budget the store empties itself, never holds more than the
# budget after a query, and answers as a process that kept nothing; a
# budget below one suite keeps nothing at all.
@pytest.mark.parametrize("programs_kept", [2, 0])
def test_store_stays_within_its_budget(workspace, capsys, monkeypatch,
                                       programs_kept):
    suite_chars = sum(
        len(t.stdin_text) + len(t.expected_stdout)
        for t in read_tests(str(workspace / "corpus" / "tests" / "sum1n")))
    paths = [workspace / "bad.c", workspace / "left.c"] + [
        workspace / "corpus" / "sum1n" / f"v0{i}.c" for i in range(4)]
    charges = []
    for path in paths:
        cli._session.clear()
        _closest_json(workspace, capsys, path)
        charges.append(cli._session.chars - suite_chars)
    cli._session.clear()
    budget = suite_chars + programs_kept * max(charges) - (not programs_kept)
    monkeypatch.setattr("invclust.corpus.STORE_BUDGET_CHARS", budget)

    queries = [p for p in paths for _ in range(2)] + paths
    _, traced = count_calls(monkeypatch)
    kept_answers = []
    for path in queries:
        kept_answers.append(_closest_json(workspace, capsys, path))
        assert cli._session.chars <= budget
    if programs_kept:
        assert len(paths) < len(traced) < len(queries)
    else:
        assert len(traced) == len(queries) and cli._session.memos == {}
    fresh_answers = []
    for path in queries:
        cli._session.clear()
        fresh_answers.append(_closest_json(workspace, capsys, path))
    assert kept_answers == fresh_answers


# A query answered from the store adds nothing, so it never empties the
# store, even one filled to its budget; a new program that takes the store
# past it is answered, and then the store is emptied.
def test_a_kept_query_at_a_full_store_traces_nothing(workspace, tmp_path,
                                                     capsys, monkeypatch):
    renamed = tmp_path / "renamed.c"
    renamed.write_text(BAD_SUM_RENAMED)
    first = _closest_json(workspace, capsys, workspace / "bad.c")
    full = cli._session.chars
    monkeypatch.setattr("invclust.corpus.STORE_BUDGET_CHARS", full)
    parsed, traced = count_calls(monkeypatch)
    assert _closest_json(workspace, capsys, workspace / "bad.c") == first
    assert _closest_json(workspace, capsys, renamed) == first
    assert parsed == [] and traced == [] and cli._session.chars == full
    _closest_json(workspace, capsys, workspace / "left.c")
    assert len(traced) == 1 and cli._session.memos == {}
    assert _closest_json(workspace, capsys, workspace / "bad.c") == first
    assert len(traced) == 2
