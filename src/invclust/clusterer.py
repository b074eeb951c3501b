"""KMeans clustering, representative selection, purity, and
closest-correct-program lookup.

Lloyd's algorithm with k-means++ seeding from an explicit seed; squared
Euclidean assignment with ties broken toward the lowest cluster index;
empty clusters reseeded with the point farthest from its centroid. Fully
deterministic given the seed.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, EmptyCandidates, KTooLarge,
                     MissingLabel)


@dataclass
class ClusterModel:
    k: int
    seed: int
    mode: str
    centroids: list                      # k lists of floats
    assignment: dict                     # program_id -> cluster index
    representatives: dict = field(default_factory=dict)  # cluster -> id
    vocab: object = None
    sse: float = 0.0

    def as_dict(self):
        d = {
            "k": self.k,
            "seed": self.seed,
            "mode": self.mode,
            "centroids": self.centroids,
            "assignment": self.assignment,
            "representatives": {str(c): p for c, p in self.representatives.items()},
            "sse": self.sse,
        }
        if self.vocab is not None:
            d["vocab"] = self.vocab.as_dict()
        return d


def _matrix(vectors):
    X = np.asarray([v.values for v in vectors], dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch("vectors have differing dimensions")
    return X


def _kmeanspp(X, k, rng):
    """Greedy k-means++: per step, sample several D^2-weighted candidates
    and keep the one minimizing the resulting potential."""
    n = X.shape[0]
    n_candidates = 2 + int(np.log(k))
    centers = np.empty((k, X.shape[1]))
    first = int(rng.integers(n))
    centers[0] = X[first]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All points coincide with chosen centers; pick uniformly.
            best = int(rng.integers(n))
            best_d2 = d2
        else:
            candidates = rng.choice(n, size=n_candidates, p=d2 / total)
            best, best_d2 = None, None
            for idx in candidates:
                cand_d2 = np.minimum(d2, np.sum((X - X[idx]) ** 2, axis=1))
                pot = cand_d2.sum()
                if best is None or pot < best_pot:
                    best, best_pot, best_d2 = int(idx), pot, cand_d2
        centers[c] = X[best]
        d2 = best_d2
    return centers


def _assign(X, centers):
    dists = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(dists, axis=1), dists


def _sse(dists, labels):
    return float(dists[np.arange(len(labels)), labels].sum())


def _lloyd(X, k, seed, max_iters, tol):
    rng = np.random.default_rng(seed)
    centers = _kmeanspp(X, k, rng)
    labels, dists = _assign(X, centers)
    prev_sse = _sse(dists, labels)
    for _ in range(max_iters):
        new_centers = centers.copy()
        reseeded = False
        for c in range(k):
            members = X[labels == c]
            if len(members):
                new_centers[c] = members.mean(axis=0)
            else:
                # Reseed with the point farthest from its own centroid.
                gaps = dists[np.arange(len(labels)), labels]
                far = int(np.argmax(gaps))
                new_centers[c] = X[far]
                labels[far] = c
                reseeded = True
        shift = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        labels, dists = _assign(X, centers)
        sse = _sse(dists, labels)
        if not reseeded:
            assert sse <= prev_sse + 1e-9, "Lloyd SSE increased"
        prev_sse = sse
        if shift < tol:
            break
    return centers, labels, prev_sse


def kmeans(vectors, k, seed, max_iters=300, tol=1e-6, mode="", restarts=1):
    if k > len(vectors):
        raise KTooLarge(f"k={k} exceeds {len(vectors)} points")
    if k < 1:
        raise KTooLarge("k must be >= 1")
    X = _matrix(vectors)
    best = None
    for r in range(restarts):
        centers, labels, sse = _lloyd(X, k, seed + r, max_iters, tol)
        if best is None or sse < best[2] - 1e-12:
            best = (centers, labels, sse)
    centers, labels, sse = best
    model = ClusterModel(
        k=k, seed=seed, mode=mode,
        centroids=[list(map(float, c)) for c in centers],
        assignment={v.program_id: int(c) for v, c in zip(vectors, labels)},
        sse=sse,
    )
    model.representatives = select_representatives(model, vectors)
    return model


def k_from_fraction(n, frac):
    import math
    return max(1, math.floor(n * frac + 0.5))


def select_representatives(model, vectors):
    """Per cluster, the member nearest (Euclidean) to the centroid; ties go
    to the lexicographically smaller program id."""
    centers = np.asarray(model.centroids)
    reps = {}
    for v in sorted(vectors, key=lambda v: v.program_id):
        c = model.assignment[v.program_id]
        d = float(np.linalg.norm(np.asarray(v.values) - centers[c]))
        if c not in reps or d < reps[c][0]:
            reps[c] = (d, v.program_id)
    return {c: pid for c, (d, pid) in reps.items()}


def purity(assignment, labels):
    """Sum over clusters of the majority label count, over total."""
    clusters = {}
    for pid, c in assignment.items():
        if pid not in labels:
            raise MissingLabel(pid)
        clusters.setdefault(c, []).append(labels[pid])
    total = sum(len(v) for v in clusters.values())
    if total == 0:
        return 0.0
    hits = 0
    for members in clusters.values():
        hits += max(members.count(lbl) for lbl in set(members))
    return hits / total


def closest_program(incorrect, candidates):
    """Candidate with the smallest Euclidean distance; ties by lexicographic
    program id. Returns (program_id, distance)."""
    if not candidates:
        raise EmptyCandidates("no candidate programs")
    q = np.asarray(incorrect.values, dtype=float)
    best = None
    for cand in sorted(candidates, key=lambda v: v.program_id):
        x = np.asarray(cand.values, dtype=float)
        if x.shape != q.shape:
            raise DimensionMismatch(
                f"{cand.program_id}: dimension {x.shape} vs query {q.shape}")
        d = float(np.linalg.norm(x - q))
        if best is None or d < best[0]:
            best = (d, cand.program_id)
    return best[1], best[0]
