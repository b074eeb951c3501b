"""KMeans, representative selection, purity, and closest-program tests."""

import random

import numpy as np
import pytest

from invclust.clusterer import (closest_program, k_from_fraction, kmeans,
                                purity, select_representatives)
from invclust.errors import (DimensionMismatch, EmptyCandidates, KTooLarge,
                             MissingLabel)
from invclust.vectorizer import FeatureVector

from conftest import brute_force_sse


def _vecs(points, prefix="p"):
    return [FeatureVector(program_id=f"{prefix}{i}", values=list(map(float, v)))
            for i, v in enumerate(points)]


def test_two_clear_clusters_every_seed():
    vectors = _vecs([(0.0, 0.0), (0.1, 0.0), (0.9, 0.0), (1.0, 0.0)])
    for seed in range(10):
        model = kmeans(vectors, k=2, seed=seed)
        groups = {}
        for pid, c in model.assignment.items():
            groups.setdefault(c, set()).add(pid)
        assert {frozenset(g) for g in groups.values()} == \
            {frozenset({"p0", "p1"}), frozenset({"p2", "p3"})}


def test_k_equals_n_zero_sse():
    vectors = _vecs([(0, 0), (1, 0), (2, 0), (3, 0)])
    model = kmeans(vectors, k=4, seed=0)
    assert model.sse < 1e-12
    assert len(set(model.assignment.values())) == 4


def test_k_one_centroid_is_mean():
    vectors = _vecs([(0, 0), (2, 4), (4, 2)])
    model = kmeans(vectors, k=1, seed=0)
    assert np.allclose(model.centroids[0], [2.0, 2.0])


def test_k_too_large():
    with pytest.raises(KTooLarge):
        kmeans(_vecs([(0, 0)]), k=2, seed=0)


def test_default_k():
    # The default k is 10% of the programs (the --k-frac default).
    assert k_from_fraction(100, 0.1) == 10
    assert k_from_fraction(1, 0.1) == 1
    assert k_from_fraction(25, 0.1) == 3


def test_k_from_fraction():
    assert k_from_fraction(30, 0.1) == 3
    assert k_from_fraction(4, 0.1) == 1
    assert k_from_fraction(25, 0.1) == 3


def test_singleton_cluster_representative():
    vectors = _vecs([(0, 0), (5, 5)])
    model = kmeans(vectors, k=2, seed=0)
    reps = select_representatives(model, vectors)
    assert set(reps.values()) == {"p0", "p1"}


def test_representative_nearest_to_centroid():
    vectors = _vecs([(0, 0), (0, 2), (0, 3)])
    model = kmeans(vectors, k=1, seed=0)
    reps = select_representatives(model, vectors)
    assert reps[0] == "p1"  # centroid (0, 5/3) is nearest to (0, 2)


def test_representative_tie_lexicographic():
    vectors = _vecs([(0, 1), (0, -1)])
    model = kmeans(vectors, k=1, seed=0)
    reps = select_representatives(model, vectors)
    assert reps[0] == "p0"


def test_representatives_match_brute_force_randomized():
    rng = random.Random(5)
    for trial in range(20):
        pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]
        vectors = _vecs(pts, prefix=f"t{trial}_")
        model = kmeans(vectors, k=rng.randint(1, 3), seed=trial)
        reps = select_representatives(model, vectors)
        for c, rep in reps.items():
            centroid = np.asarray(model.centroids[c])
            members = [v for v in vectors if model.assignment[v.program_id] == c]
            best = min(members,
                       key=lambda v: (float(np.linalg.norm(
                           np.asarray(v.values) - centroid)), v.program_id))
            assert rep == best.program_id


def test_purity_perfect():
    assignment = {"a1": 0, "a2": 0, "b1": 1}
    labels = {"a1": "A", "a2": "A", "b1": "B"}
    assert purity(assignment, labels) == 1.0


def test_purity_mixed():
    assignment = {"x1": 0, "x2": 0, "x3": 0, "y1": 1, "y2": 1}
    labels = {"x1": "A", "x2": "A", "x3": "B", "y1": "B", "y2": "B"}
    assert purity(assignment, labels) == pytest.approx(0.8)


def test_purity_single_cluster():
    assignment = {f"p{i}": 0 for i in range(4)}
    labels = {"p0": "A", "p1": "A", "p2": "A", "p3": "B"}
    assert purity(assignment, labels) == pytest.approx(0.75)


def test_purity_missing_label():
    with pytest.raises(MissingLabel):
        purity({"p": 0}, {})


def test_purity_bounds_randomized():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(4, 12)
        n_labels = rng.randint(2, 3)
        labels = {f"p{i}": f"L{i % n_labels}" for i in range(n)}
        assignment = {f"p{i}": rng.randint(0, 2) for i in range(n)}
        p = purity(assignment, labels)
        assert 1.0 / n_labels <= p <= 1.0


def test_closest_exact_match():
    cands = _vecs([(0, 0), (1, 0)])
    pid, dist = closest_program(FeatureVector("q", [1.0, 0.0]), cands)
    assert pid == "p1" and dist == 0.0


def test_closest_simple_argmin():
    cands = _vecs([(0, 0), (1, 0)])
    pid, dist = closest_program(FeatureVector("q", [0.4, 0.0]), cands)
    assert pid == "p0"
    assert dist == pytest.approx(0.4)


def test_closest_tie_lexicographic():
    cands = [FeatureVector("b", [1.0, 0.0]), FeatureVector("a", [-1.0, 0.0])]
    pid, _ = closest_program(FeatureVector("q", [0.0, 0.0]), cands)
    assert pid == "a"


def test_closest_empty_candidates():
    with pytest.raises(EmptyCandidates):
        closest_program(FeatureVector("q", [0.0]), [])


def test_closest_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        closest_program(FeatureVector("q", [0.0, 1.0]),
                        [FeatureVector("c", [0.0])])


def test_representatives_vs_all_can_disagree():
    # Three programs in one cluster; the representative is the middle one,
    # but the query is nearest to an edge member.
    vectors = _vecs([(0, 0), (1, 0), (2, 0)])
    model = kmeans(vectors, k=1, seed=0)
    reps = select_representatives(model, vectors)
    rep_vecs = [v for v in vectors if v.program_id in reps.values()]
    query = FeatureVector("q", [2.1, 0.0])
    rep_pick, _ = closest_program(query, rep_vecs)
    all_pick, _ = closest_program(query, vectors)
    assert rep_pick == "p1" and all_pick == "p2"


def test_kmeans_determinism():
    rng = random.Random(7)
    pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(10)]
    a = kmeans(_vecs(pts), k=3, seed=42).as_dict()
    b = kmeans(_vecs(pts), k=3, seed=42).as_dict()
    assert a == b


def test_kmeans_near_optimal_small_instances():
    from conftest import clusterable_instance
    rng = random.Random(17)
    for trial in range(10):
        pts, k = clusterable_instance(rng)
        model = kmeans(_vecs(pts, prefix=f"r{trial}_"), k=k, seed=0,
                       restarts=5)
        assert model.sse <= brute_force_sse(pts, k) + 1e-9


def test_empty_cluster_reseeding_keeps_k_nonempty_when_possible():
    # Duplicated points force a degenerate seeding; reseeding must still
    # produce k non-empty clusters because distinct points exist.
    vectors = _vecs([(0, 0), (0, 0), (0, 0), (9, 9)])
    model = kmeans(vectors, k=2, seed=0)
    assert len(set(model.assignment.values())) == 2
