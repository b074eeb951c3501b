"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line to the real terminal (bypassing
pytest capture) so the run log shows per-criterion outcomes at a glance.
"""

import random
import time

import numpy as np
import pytest

from invclust.anonymizer import anonymize, serialize_aast
from invclust.clusterer import closest_program, kmeans
from invclust.corpus import (analyze, generate_synthetic_corpus,
                             run_pipeline, tree_hash)
from invclust.invariants import detect, flatten
from invclust.nodes import SourceProgram
from invclust.parser import parse
from invclust.renamer import rename
from invclust.tracer import run_suite
from invclust.unparse import unparse
from invclust.vectorizer import (MODES, FeatureVector, ProgramDocs,
                                 build_vocab, build_vocab_for_mode,
                                 represent, vectorize)

from conftest import (LEFT_SRC, RIGHT_SRC, brute_force_sse,
                      clusterable_instance, gen_program, gen_suite,
                      inv_holds, mutations_shown, oracle_point_invariants,
                      sum_suite)

REQUIRED_FOUR = {"int1 > 0", "int0 >= 0", "int2 >= 0", "int2 <= int1"}


def _report(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def _pair_artifacts(src):
    renamed, _ = rename(parse(src))
    log, verdicts = run_suite(renamed, sum_suite())
    assert verdicts == ["pass"] * 3
    inv = detect(log)
    return renamed, inv, log.point_kinds


def test_criterion_1_pair_reproduction(capsys):
    t0 = time.perf_counter()
    try:
        left_tree, left_inv, left_kinds = _pair_artifacts(LEFT_SRC)
        right_tree, right_inv, right_kinds = _pair_artifacts(RIGHT_SRC)
        # (a) alpha-inequivalent, structurally different AASTs
        left_aast = serialize_aast(anonymize(left_tree)).text
        right_aast = serialize_aast(anonymize(right_tree)).text
        assert left_aast != right_aast

        # (b) loop-body invariant sets contain the four canonical strings
        def loop_body(inv, kinds):
            pts = [p for p, k in kinds.items() if k == "loop-body"]
            assert len(pts) == 1
            return set(inv.by_point[pts[0]])

        assert REQUIRED_FOUR <= loop_body(left_inv, left_kinds)
        assert REQUIRED_FOUR <= loop_body(right_inv, right_kinds)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
    except AssertionError:
        _report(capsys, "criterion 1 (pair reproduction): FAIL")
        raise
    _report(capsys, f"criterion 1 (pair reproduction): PASS "
                    f"({elapsed:.3f}s; required invariants present, "
                    f"AASTs differ)")


@pytest.mark.xfail(
    strict=True,
    reason="full-set identity of the pair's loop-body invariants (and hence "
           "identical inv-mode vectors) is unattainable with sound "
           "tightest-bound templates: the down-counting loop observes the "
           "counter at 0 with the completed sum, giving different observed "
           "extrema (e.g. int0 <= 10 vs int0 <= 15 on n in {1,2,5}); only "
           "the four canonical strings are common — see the project notes "
           "for the full argument")
def test_criterion_1_full_identity_and_inv_vectors(capsys):
    left_tree, left_inv, _ = _pair_artifacts(LEFT_SRC)
    right_tree, right_inv, _ = _pair_artifacts(RIGHT_SRC)
    identical = left_inv.by_point == right_inv.by_point
    docs = [ProgramDocs(renamed_source=unparse(t),
                        aast_text=serialize_aast(anonymize(t)).text,
                        inv_text=flatten(i.by_point))
            for t, i in ((left_tree, left_inv), (right_tree, right_inv))]
    vocab = build_vocab_for_mode(docs, "inv")
    same_vec = (represent(docs[0], vocab).values
                == represent(docs[1], vocab).values)
    if not (identical and same_vec):
        _report(capsys, "criterion 1 (full set identity + inv vectors): "
                        "FAIL (expected; see xfail reason)")
    assert identical and same_vec


def test_criterion_2_bow_worked_example(capsys):
    try:
        vocab = build_vocab(["a a", "e i", "a e i o u", "o i"], "inv", n=1)
        vec = vectorize("a i a u", vocab)
        assert vec.values == [0.5, 0.0, 0.25, 0.0, 0.25]
    except AssertionError:
        _report(capsys, "criterion 2 (BoW worked example): FAIL")
        raise
    _report(capsys, "criterion 2 (BoW worked example): PASS "
                    "(vector [0.5, 0.0, 0.25, 0.0, 0.25])")


def test_criterion_3_synthetic_purity(capsys):
    t0 = time.perf_counter()
    try:
        corpus = generate_synthetic_corpus(seed=0, assignments=3,
                                           variants_per=10)
        purities = [run_pipeline(corpus, mode="aast_inv", k=3, seed=s).purity
                    for s in range(5)]
        perfect = sum(1 for p in purities if p == 1.0)
        elapsed = time.perf_counter() - t0
        assert perfect >= 4, purities
        assert elapsed < 30.0
    except AssertionError:
        _report(capsys, "criterion 3 (synthetic-corpus purity): FAIL")
        raise
    _report(capsys, f"criterion 3 (synthetic-corpus purity): PASS "
                    f"({perfect}/5 seeds at purity 1.0, {elapsed:.2f}s)")


def test_criterion_4_representation_ordering(capsys):
    t0 = time.perf_counter()
    try:
        corpus = generate_synthetic_corpus(seed=0, assignments=3,
                                           variants_per=10)
        assert mutations_shown(corpus) == {"loop-conversion",
                                           "loop-reversal", "rename"}

        def mean_purity(mode):
            return float(np.mean([
                run_pipeline(corpus, mode=mode, k=3, seed=s).purity
                for s in range(5)]))

        combined = mean_purity("aast_inv")
        syntax = mean_purity("syntax")
        elapsed = time.perf_counter() - t0
        assert combined >= syntax
        assert elapsed < 60.0
    except AssertionError:
        _report(capsys, "criterion 4 (representation ordering): FAIL")
        raise
    _report(capsys, f"criterion 4 (representation ordering): PASS "
                    f"(mean purity aast+inv {combined:.3f} >= syntax "
                    f"{syntax:.3f}, {elapsed:.2f}s)")


def test_criterion_5_kmeans_oracle(capsys):
    rng = random.Random(1000)
    try:
        for trial in range(50):
            pts, k = clusterable_instance(rng)
            ids, X = [f"p{i}" for i in range(len(pts))], np.array(pts)
            best = min(kmeans(ids, X, k=k, seed=s).sse for s in range(5))
            assert best <= brute_force_sse(pts, k) + 1e-9, f"instance {trial}"
    except AssertionError:
        _report(capsys, "criterion 5 (kmeans oracle): FAIL")
        raise
    _report(capsys, "criterion 5 (kmeans oracle): PASS "
                    "(50/50 instances at the exhaustive optimum)")


def test_criterion_6_closest_program_oracle(capsys):
    rng = random.Random(2000)
    try:
        for trial in range(100):
            d = rng.randint(1, 4)
            n = rng.randint(1, 8)
            # Half-integer coordinates make distance ties common, which
            # exercises the lexicographic tie rule.
            cands = [FeatureVector(f"c{rng.randint(0, 99):02d}_{i}",
                                   [rng.randint(-2, 2) / 2 for _ in range(d)])
                     for i in range(n)]
            query = FeatureVector("q", [rng.randint(-2, 2) / 2
                                        for _ in range(d)])
            got_id, got_dist = closest_program(
                np.array(query.values), [c.program_id for c in cands],
                np.array([c.values for c in cands]))
            want = min(cands, key=lambda c: (
                float(np.linalg.norm(np.array(c.values) - query.values)),
                c.program_id))
            want_dist = float(np.linalg.norm(
                np.array(want.values) - query.values))
            assert got_id == want.program_id, f"trial {trial}"
            assert abs(got_dist - want_dist) < 1e-12
    except AssertionError:
        _report(capsys, "criterion 6 (closest-program oracle): FAIL")
        raise
    _report(capsys, "criterion 6 (closest-program oracle): PASS "
                    "(100/100 agree with brute-force scan)")


def test_criterion_7_invariant_oracle(capsys):
    try:
        for seed in range(100):
            src, n_in = gen_program(3000 + seed)
            renamed, _ = rename(parse(src))
            log, _ = run_suite(renamed, gen_suite(3000 + seed, n_in),
                               record=True)
            inv = detect(log)
            for pid, snaps in log.snapshots().items():
                if len(snaps) < 2:
                    assert pid not in inv.by_point
                    continue
                strings = inv.by_point[pid]
                for s in strings:
                    for snap in snaps:
                        assert inv_holds(s, snap), (seed, pid, s)
                assert strings == oracle_point_invariants(snaps), (seed, pid)
    except AssertionError:
        _report(capsys, "criterion 7 (invariant soundness + maximality): "
                        "FAIL")
        raise
    _report(capsys, "criterion 7 (invariant soundness + maximality): PASS "
                    "(100/100 programs match the template oracle)")


def test_criterion_8_pipeline_determinism(capsys, tmp_path):
    try:
        corpus = generate_synthetic_corpus(seed=0, assignments=3,
                                           variants_per=10)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        run_pipeline(corpus, mode="aast_inv", k=3, seed=0, out_dir=str(out1))
        run_pipeline(corpus, mode="aast_inv", k=3, seed=0, out_dir=str(out2))
        h1, h2 = tree_hash(str(out1)), tree_hash(str(out2))
        assert h1 == h2
    except AssertionError:
        _report(capsys, "criterion 8 (determinism): FAIL")
        raise
    _report(capsys, f"criterion 8 (determinism): PASS "
                    f"(identical output trees, sha256 {h1[:12]}...)")


def test_criterion_9_renaming_alpha_invariance(capsys):
    try:
        for seed in range(100):
            s1, _ = gen_program(seed, names=["a", "b", "c", "d", "e"])
            s2, _ = gen_program(seed, names=["zz", "q", "val", "w", "top"])
            r1, _ = rename(parse(s1))
            r2, _ = rename(parse(s2))
            src1, src2 = unparse(r1), unparse(r2)
            assert src1 == src2, f"seed {seed}"
            docs = [ProgramDocs(renamed_source=t, aast_text="", inv_text="")
                    for t in (src1, src2)]
            vocab = build_vocab_for_mode(docs, "syntax")
            v1 = represent(docs[0], vocab).values
            v2 = represent(docs[1], vocab).values
            assert v1 == v2, f"seed {seed}"
    except AssertionError:
        _report(capsys, "criterion 9 (renaming alpha-invariance): FAIL")
        raise
    _report(capsys, "criterion 9 (renaming alpha-invariance): PASS "
                    "(100/100 permutation pairs identical)")


def _relaid(src, rng):
    """src with random blank lines, comments and indentation."""
    lines = []
    for line in src.splitlines():
        lines += [""] * rng.randint(0, 2)
        lines.append(rng.choice(["", " ", "\t", "      "]) + line.strip()
                     + rng.choice(["", " // note", " /* { } */"]))
    return "\n".join(lines) + "\n"


def test_layout_leaves_documents_and_vectors_unchanged():
    rng = random.Random(0)
    cases = [(LEFT_SRC, sum_suite()), (RIGHT_SRC, sum_suite())]
    for seed in range(40):
        src, n_in = gen_program(seed)
        cases.append((src, gen_suite(seed, n_in)))
    for i, (src, tests) in enumerate(cases):
        relaid = _relaid(src, rng)
        memo = {}
        base = analyze(SourceProgram(id="p", label="", text=src), tests,
                       memo=memo)
        vocabs = [build_vocab_for_mode([base.docs], mode, n=1)
                  for mode in MODES]
        # Line ends LF, CRLF and lone CR, each analyzed alone and through
        # the memo that holds the original.
        for end in ("\n", "\r\n", "\r"):
            text = relaid.replace("\n", end)
            for m in (None, memo):
                moved = analyze(SourceProgram(id="p", label="", text=text),
                                tests, memo=m)
                case = (i, end, m is memo)
                assert moved.docs == base.docs, case
                assert moved.inv_by_point == base.inv_by_point, case
                assert moved.verdicts == base.verdicts, case
                for vocab in vocabs:
                    assert (represent(moved.docs, vocab).values
                            == represent(base.docs, vocab).values), (
                        case, vocab.mode)
