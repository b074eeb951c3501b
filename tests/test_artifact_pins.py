"""The artifact tree of one fixed run, pinned file by file, and the
`closest` queries answered from it.

`generate_synthetic_corpus(0, 3, 10)` clustered with k=3 and seed 0 in
each mode. `documents.json` and `vectors.npy` are pinned byte for byte.
`projection.csv` and the `sse` of `model.json` come out of numpy's linear
algebra, whose last bits may follow the BLAS build and its thread count,
so those numbers are rounded to PLACES decimal places before hashing.
"""

import hashlib
import json
import os

import pytest

from invclust import cli
from invclust.corpus import (generate_synthetic_corpus, run_pipeline,
                             tree_hash, write_corpus)
from invclust.vectorizer import MODES

from conftest import HOSTILE_SOURCES

PLACES = 12

# tree_hash of the corpus `invclust synth` writes for the same arguments.
CORPUS_PIN = (
    "03ac183e5eac5fedd23b6a478a65184dbb914c0c2a84d4858cc8ef9758e67561")

PINS = {
    "syntax": {
        "documents.json":
            "8aa6c26f855035b6a4f75dcbae38e3484a9bdbe92feba5d829cb0d90573614b3",
        "vectors.npy":
            "1eac3baffac0cf58d0ca16b169533c3be4d728e02db64f610edbbbad22ff0203",
        "projection.csv":
            "8cb96a7ff8e2d95120aa2c616a17b84c708cd0320bcf3d3371f79f9fe861c67f",
        "model.json":
            "0fde820a4c3727db528f05ffa106f3cffd371ff65602fd9872404fc9f80ae545",
    },
    "aast": {
        "documents.json":
            "8aa6c26f855035b6a4f75dcbae38e3484a9bdbe92feba5d829cb0d90573614b3",
        "vectors.npy":
            "fd2d60ca64f95701f82c65b74e89b118ad2437cd5e814dfe8dd72a2dcc06eae2",
        "projection.csv":
            "18da5fed38bf52fefb56a62a4f89301d2eb0bde3e2758ed189fe671def1a4594",
        "model.json":
            "128dfb88e9c16d3824789eedf71bb5b10784613f67cde8e13984055d07356159",
    },
    "inv": {
        "documents.json":
            "8aa6c26f855035b6a4f75dcbae38e3484a9bdbe92feba5d829cb0d90573614b3",
        "vectors.npy":
            "82139179c1ee3fffc0f0ed66ac329ecd2cf1a8b391bed4c97fbce80864227c1c",
        "projection.csv":
            "7b5b50224e35072b8620ad8968dcbf2f09ba4ae36e1c6d2ff1ac3e7b653a1855",
        "model.json":
            "2292d59b16334f8d585c4486834a0d77823b2f2ec62ade8b798a8d00d69eca5d",
    },
    "aast_inv": {
        "documents.json":
            "8aa6c26f855035b6a4f75dcbae38e3484a9bdbe92feba5d829cb0d90573614b3",
        "vectors.npy":
            "09e4731e1fc2f90774bffd6abbe48c8590515e7a60c77cdc2198bd45329df25e",
        "projection.csv":
            "ba014e8f5ec6ba642ab79b88a549ced3e70d5a1c03edc5f2b79ce59cbccf541d",
        "model.json":
            "c5956359ad71a021ac87aeb54e66499b0065003df9a316aec9ce4b078b192bca",
    },
}


def _rounded(x):
    # + 0.0 turns a -0.0 left by rounding into 0.0.
    return round(x, PLACES) + 0.0


def _projection_bytes(data):
    header, *rows = data.decode().splitlines()
    lines = [header]
    for row in rows:
        pid, x, y = row.split(",")
        lines.append(f"{pid},{_rounded(float(x))!r},{_rounded(float(y))!r}")
    return "\n".join(lines).encode()


def _model_bytes(data):
    model = json.loads(data)
    model["sse"] = _rounded(model["sse"])
    return json.dumps(model, sort_keys=True).encode()


NORMALIZE = {"projection.csv": _projection_bytes, "model.json": _model_bytes}


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(0, 3, 10)


@pytest.fixture(scope="module")
def artifacts(corpus, tmp_path_factory):
    """mode -> the artifact directory of that mode's run, made once."""
    made = {}

    def out_dir(mode):
        if mode not in made:
            made[mode] = tmp_path_factory.mktemp(mode)
            run_pipeline(corpus, mode=mode, k=3, seed=0,
                         out_dir=str(made[mode]))
        return made[mode]
    return out_dir


def test_synth_writes_the_pinned_corpus(tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path), "--seed", "0",
                     "--assignments", "3", "--variants-per", "10"]) == 0
    assert tree_hash(str(tmp_path)) == CORPUS_PIN


@pytest.mark.parametrize("mode", MODES)
def test_each_artifact_file_is_pinned(artifacts, mode):
    out = artifacts(mode)
    assert sorted(os.listdir(out)) == sorted(PINS[mode])
    got = {}
    for name in PINS[mode]:
        data = (out / name).read_bytes()
        data = NORMALIZE.get(name, lambda b: b)(data)
        got[name] = hashlib.sha256(data).hexdigest()
    assert got == PINS[mode]


# sha256 of the JSON list of (exit code, stdout, stderr) of every query of
# test_closest_outputs_are_pinned, with the temporary directory written as
# "<tmp>" and each distance rounded as `sse` is, since it is a BLAS dot
# product.
CLOSEST_PIN = (
    "c5eec1d9301447b9c808585c1ad9b200cdb42a4d12c6147fdd76baa88662ea52")


def test_closest_outputs_are_pinned(artifacts, tmp_path, capsys):
    """`closest` on the aast_inv model: each program of another synthetic
    corpus in both modes, and each hostile submission against sum1n's
    tests under a step budget."""
    model = str(artifacts("aast_inv") / "model.json")
    queries = generate_synthetic_corpus(1, 3, 6)
    write_corpus(queries, tmp_path)
    runs = []
    for label in sorted(queries.assignments):
        tests = str(tmp_path / "tests" / label)
        for prog in queries.assignments[label].programs:
            path = str(tmp_path / f"{prog.id}.c")
            for flags in ([], ["--all-candidates"]):
                runs.append(["--program", path, "--tests", tests, *flags])
    for name, (source, _) in sorted(HOSTILE_SOURCES.items()):
        path = tmp_path / f"{name}.c"
        path.write_bytes(source)
        runs.append(["--program", str(path), "--tests",
                     str(tmp_path / "tests" / "sum1n"),
                     "--max-steps", "20000"])
    results = []
    for argv in runs:
        code = cli.main(["closest", "--model", model, "--json", *argv])
        out, err = capsys.readouterr()
        if code == 0:
            answer = json.loads(out)
            answer["distance"] = _rounded(answer["distance"])
            out = json.dumps(answer, sort_keys=True)
        results.append([code] + [text.replace(str(tmp_path), "<tmp>")
                                 for text in (out, err)])
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == CLOSEST_PIN, results
