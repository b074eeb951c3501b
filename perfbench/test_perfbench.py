"""The benchmark's own tests: every workload in smoke mode, traced and
untraced, prints a well-formed result whose checks pass."""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
HOSTILE = ("recursion-390", "parens-2000", "non-utf8", "syntax-error",
           "unsupported", "infinite-loop")


def bench(cwd, workload, trace, seed=3):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_well_formed_and_correct(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    # Only hostile submissions may fail; their outcome is the program's.
    failed = [json.loads(line[len("failed: "):]) for line in lines
              if line.startswith("failed: ")]
    escapes = failed[0] if failed else {}
    assert sum(escapes.values()) == result["failed"]
    assert all(key.split(":")[0] in HOSTILE for key in escapes)


def test_same_seed_gives_same_inputs(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import inputs

    def generated(seed):
        tests = inputs.long_tests(random.Random(seed), smoke=False)
        corpus, expected = inputs.cluster_corpus(seed, 10, tests)
        return ([(p.id, p.text) for a in corpus.assignments.values()
                 for p in a.programs],
                expected,
                {label: [(t.stdin_text, t.expected_stdout) for t in ts]
                 for label, ts in tests.items()},
                inputs.stream_mutants(seed, 12))

    assert generated(7) == generated(7)
    assert generated(7) != generated(8)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "cluster-dup", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
