"""KMeans, representative selection, purity, and closest-program tests."""

import random

import numpy as np
import pytest

from invclust import clusterer
from invclust.clusterer import (closest_program, k_from_fraction, kmeans,
                                purity, select_representatives)
from invclust.errors import (DimensionMismatch, EmptyCandidates, KTooLarge,
                             MissingLabel)

from conftest import brute_force_sse, clusterable_instance


def _ids(n, prefix="p"):
    return [f"{prefix}{i}" for i in range(n)]


def test_two_clear_clusters_every_seed():
    X = np.array([(0.0, 0.0), (0.1, 0.0), (0.9, 0.0), (1.0, 0.0)])
    for seed in range(10):
        model = kmeans(_ids(4), X, k=2, seed=seed)
        groups = {}
        for pid, c in model.assignment.items():
            groups.setdefault(c, set()).add(pid)
        assert {frozenset(g) for g in groups.values()} == \
            {frozenset({"p0", "p1"}), frozenset({"p2", "p3"})}


def test_k_equals_n_zero_sse():
    X = np.array([(0, 0), (1, 0), (2, 0), (3, 0)], dtype=float)
    model = kmeans(_ids(4), X, k=4, seed=0)
    assert model.sse < 1e-12
    assert len(set(model.assignment.values())) == 4


def test_k_one_centroid_is_mean():
    X = np.array([(0, 0), (2, 4), (4, 2)], dtype=float)
    model = kmeans(_ids(3), X, k=1, seed=0)
    assert np.allclose(model.centroids[0], [2.0, 2.0])


def test_k_too_large():
    with pytest.raises(KTooLarge):
        kmeans(_ids(1), np.zeros((1, 2)), k=2, seed=0)
    with pytest.raises(KTooLarge):
        kmeans(_ids(3), np.zeros((3, 2)), k=4, seed=0)
    with pytest.raises(KTooLarge):
        kmeans(_ids(1), np.zeros((1, 2)), k=0, seed=0)


@pytest.mark.parametrize("restarts", [0, -1])
def test_restarts_below_one_rejected(restarts):
    with pytest.raises(ValueError, match="restarts"):
        kmeans(_ids(2), np.eye(2), k=1, seed=0, restarts=restarts)


def test_default_k():
    # The default k is 10% of the programs (the --k-frac default).
    assert k_from_fraction(100, 0.1) == 10
    assert k_from_fraction(1, 0.1) == 1
    assert k_from_fraction(25, 0.1) == 3


def test_k_from_fraction():
    assert k_from_fraction(30, 0.1) == 3
    assert k_from_fraction(4, 0.1) == 1
    assert k_from_fraction(25, 0.1) == 3
    assert k_from_fraction(6, 1.0) == 6


@pytest.mark.parametrize("frac", [1.1, 5.0, 1e308, float("inf")])
def test_k_from_fraction_above_n_raises(frac):
    with pytest.raises(KTooLarge, match="k > 6 points"):
        k_from_fraction(6, frac)


def test_singleton_cluster_representative():
    X = np.array([(0, 0), (5, 5)], dtype=float)
    model = kmeans(_ids(2), X, k=2, seed=0)
    reps = select_representatives(model, _ids(2), X)
    assert set(reps.values()) == {"p0", "p1"}


def test_representative_nearest_to_centroid():
    X = np.array([(0, 0), (0, 2), (0, 3)], dtype=float)
    model = kmeans(_ids(3), X, k=1, seed=0)
    reps = select_representatives(model, _ids(3), X)
    assert reps[0] == "p1"  # centroid (0, 5/3) is nearest to (0, 2)


def test_representative_tie_lexicographic():
    X = np.array([(0, 1), (0, -1)], dtype=float)
    model = kmeans(_ids(2), X, k=1, seed=0)
    assert select_representatives(model, _ids(2), X)[0] == "p0"
    # The rule is on the ids, whatever order they come in.
    assert select_representatives(model, ["p1", "p0"], X[::-1])[0] == "p0"


def test_representatives_match_brute_force_randomized():
    rng = random.Random(5)
    for trial in range(20):
        pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]
        ids, X = _ids(8, prefix=f"t{trial}_"), np.array(pts)
        model = kmeans(ids, X, k=rng.randint(1, 3), seed=trial)
        reps = select_representatives(model, ids, X)
        for c, rep in reps.items():
            centroid = np.asarray(model.centroids[c])
            members = [(pid, x) for pid, x in zip(ids, X)
                       if model.assignment[pid] == c]
            best = min(members,
                       key=lambda m: (float(np.linalg.norm(m[1] - centroid)),
                                      m[0]))
            assert rep == best[0]


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
    X = np.array([(0.0, 0.0), (1.0, 0.0)])
    pid, dist = closest_program(np.array([1.0, 0.0]), _ids(2), X)
    assert pid == "p1" and dist == 0.0


def test_closest_simple_argmin():
    X = np.array([(0.0, 0.0), (1.0, 0.0)])
    pid, dist = closest_program(np.array([0.4, 0.0]), _ids(2), X)
    assert pid == "p0"
    assert dist == pytest.approx(0.4)


def test_closest_tie_lexicographic():
    pid, _ = closest_program(np.zeros(2), ["b", "a"],
                             np.array([(1.0, 0.0), (-1.0, 0.0)]))
    assert pid == "a"


def test_closest_empty_candidates():
    with pytest.raises(EmptyCandidates):
        closest_program(np.zeros(1), [], np.zeros((0, 1)))


def test_closest_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        closest_program(np.array([0.0, 1.0]), ["c"], np.zeros((1, 1)))


# The row norms are taken for all rows in one call; each must be exactly
# what np.linalg.norm gives for its one vector, whatever the row's scale.
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("shape", [(200, 50), (240, 331), (22, 331),
                                   (150, 366), (1000, 1342), (3, 5)],
                         ids="{0[0]}x{0[1]}".format)
def test_closest_distance_is_the_norm_of_one_vector(shape, scale):
    rng = np.random.default_rng(3)
    m, n = shape
    X = rng.random(shape) * scale * 10 ** rng.uniform(-3, 3, (m, 1))
    q, ids = rng.random(n) * scale, _ids(m)
    pid, dist = closest_program(q, ids, X)
    want = min((float(np.linalg.norm(x - q)), p) for p, x in zip(ids, X))
    assert (dist, pid) == want
    labels = rng.integers(0, 3, m)
    model = clusterer.ClusterModel(
        k=3, seed=0, centroids=rng.random((3, n)) * scale,
        assignment={p: int(c) for p, c in zip(ids, labels)}, sse=0.0)
    nearest = {}
    for p, x, c in zip(ids, X, labels):
        d = float(np.linalg.norm(x - model.centroids[c]))
        nearest[int(c)] = min(nearest.get(int(c), (d, p)), (d, p))
    assert select_representatives(model, ids, X) == \
        {c: p for c, (_, p) in nearest.items()}


def test_representatives_vs_all_can_disagree():
    # Three programs in one cluster; the representative is the middle one,
    # but the query is nearest to an edge member.
    ids, X = _ids(3), np.array([(0, 0), (1, 0), (2, 0)], dtype=float)
    model = kmeans(ids, X, k=1, seed=0)
    reps = select_representatives(model, ids, X)
    rep_rows = [i for i, pid in enumerate(ids) if pid in reps.values()]
    query = np.array([2.1, 0.0])
    rep_pick, _ = closest_program(query, [ids[i] for i in rep_rows],
                                  X[rep_rows])
    all_pick, _ = closest_program(query, ids, X)
    assert rep_pick == "p1" and all_pick == "p2"


def test_kmeans_determinism():
    rng = random.Random(7)
    X = np.array([(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(10)])
    a = kmeans(_ids(10), X, k=3, seed=42)
    b = kmeans(_ids(10), X.copy(), k=3, seed=42)
    assert a == b
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_near_optimal_small_instances():
    rng = random.Random(17)
    for trial in range(10):
        pts, k = clusterable_instance(rng)
        model = kmeans(_ids(len(pts), prefix=f"r{trial}_"),
                       np.array(pts, dtype=float), k=k, seed=0, restarts=5)
        assert model.sse <= brute_force_sse(pts, k) + 1e-9


def test_empty_cluster_reseeding_keeps_k_nonempty_when_possible():
    # Duplicated points force a degenerate seeding; reseeding must still
    # produce k non-empty clusters because distinct points exist.
    X = np.array([(0, 0), (0, 0), (0, 0), (9, 9)], dtype=float)
    model = kmeans(_ids(4), X, k=2, seed=0)
    assert len(set(model.assignment.values())) == 2


def _partition(model, ids, X):
    """Cluster -> frozenset of the distinct points in it."""
    groups = {}
    for pid, x in zip(ids, X):
        groups.setdefault(model.assignment[pid], set()).add(tuple(x))
    return {c: frozenset(g) for c, g in groups.items()}


def test_repeated_points_give_the_same_clustering():
    rng = random.Random(23)
    for trial in range(10):
        pts, k = clusterable_instance(rng)
        once = (_ids(len(pts), prefix="a"), np.array(pts, dtype=float))
        thrice = (_ids(3 * len(pts), prefix="b"),
                  np.array([p for p in pts for _ in range(3)], dtype=float))
        m1 = kmeans(*once, k=k, seed=trial, restarts=5)
        m3 = kmeans(*thrice, k=k, seed=trial, restarts=5)
        p1, p3 = _partition(m1, *once), _partition(m3, *thrice)
        assert set(p1.values()) == set(p3.values()), f"trial {trial}"
        by_members = {g: c for c, g in p3.items()}
        for c, g in p1.items():
            assert np.allclose(m1.centroids[c], m3.centroids[by_members[g]])
        assert m3.sse == pytest.approx(3 * m1.sse, abs=1e-9)


def _dup_instance():
    """240 vectors over 22 distinct points, in shuffled order: (ids, X)."""
    rng = random.Random(31)
    distinct = [[rng.random() for _ in range(12)] for _ in range(22)]
    pts = [distinct[i % 22] for i in range(240)]
    rng.shuffle(pts)
    return _ids(240), np.array(pts)


def test_k_above_distinct_points_is_clamped():
    ids, X = _dup_instance()
    model = kmeans(ids, X, k=24, seed=5, restarts=8)
    assert model.k == 22 and len(model.centroids) == 22
    assert model.sse == pytest.approx(0.0, abs=1e-12)
    groups = _partition(model, ids, X)
    assert len(groups) == 22
    assert all(len(g) == 1 for g in groups.values())


def test_duplicates_stop_on_a_stable_assignment(monkeypatch):
    iterations = []
    lloyd = clusterer._lloyd

    def counting(*args):
        result = lloyd(*args)
        iterations.append(result[3])
        return result

    monkeypatch.setattr(clusterer, "_lloyd", counting)
    # k is clamped to the 22 distinct points, so the first run reaches
    # SSE 0, and no later restart could replace it.
    kmeans(*_dup_instance(), k=24, seed=5, restarts=8)
    assert len(iterations) == 1
    for seed in range(5, 13):
        kmeans(*_dup_instance(), k=24, seed=seed, restarts=1)
    assert len(iterations) == 9
    assert max(iterations) <= 3


def test_every_restart_runs_while_sse_is_above_zero(monkeypatch):
    sses = []
    lloyd = clusterer._lloyd

    def counting(*args):
        result = lloyd(*args)
        sses.append(result[2])
        return result

    monkeypatch.setattr(clusterer, "_lloyd", counting)
    model = kmeans(*_dup_instance(), k=5, seed=0, restarts=8)
    assert len(sses) == 8 and min(sses) > 1e-12
    assert model.sse < min(sses) + 1e-12
