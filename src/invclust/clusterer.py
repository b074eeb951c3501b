"""KMeans clustering, representative selection, purity, and
closest-correct-program lookup.

k-means runs on weighted distinct points: the N input vectors are collapsed
with np.unique (rows in sorted order) into M distinct points, each weighted
by how many programs share it, and the labels are mapped back to every
program through the inverse index. Weights enter the k-means++ seeding (the
first-centre draw, the D^2 sampling and the candidate potentials), the
centroid means and the SSE, so the result is that of k-means on the
repeated vectors at a cost set by M.

k is clamped to M when N >= k > M: there are no more distinct groups to
find, and model.k is the k used. k > N or k < 1 raises KTooLarge.

Lloyd's algorithm runs from greedy k-means++ seeding with an explicit seed;
squared Euclidean assignment with ties broken toward the lowest cluster
index. A cluster left empty takes the point farthest from its centroid,
drawn from a cluster with at least two distinct points (one always exists
while k <= M). Lloyd stops when an iteration that did no reseeding changes
no label, or after MAX_ITERS. Fully deterministic given the seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, EmptyCandidates, KTooLarge,
                     MissingLabel)

# The most Lloyd iterations one seeded run makes.
MAX_ITERS = 300


@dataclass
class ClusterModel:
    k: int
    seed: int
    assignment: dict                     # program_id -> cluster index
    # The k x d float64 centres of the best run; in memory only: model.json
    # omits them, and each row is the mean of its members' rows in
    # vectors.npy. An array has no truth value, so == on models skips them.
    centroids: np.ndarray = field(default=None, compare=False)
    representatives: dict = field(default_factory=dict)  # cluster -> id
    vocab: object = None
    sse: float = 0.0


def _sq_dists(P, C):
    """Exact squared Euclidean distances, one row per point of P."""
    return ((P[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)


def _kmeanspp(P, w, k, rng):
    """Greedy k-means++ on points P with weights w: per step, sample several
    w*D^2-weighted candidates and keep the one minimizing the resulting
    weighted potential."""
    m = P.shape[0]
    n_candidates = 2 + int(np.log(k))
    by_weight = w / w.sum()
    centers = np.empty((k, P.shape[1]))
    centers[0] = P[rng.choice(m, p=by_weight)]
    d2 = _sq_dists(P, centers[:1])[:, 0]
    for c in range(1, k):
        total = w @ d2
        if total <= 0:
            # Every point coincides with a chosen center (only reachable
            # through underflow); draw by weight alone.
            centers[c] = P[rng.choice(m, p=by_weight)]
            continue
        candidates = rng.choice(m, size=n_candidates, p=w * d2 / total)
        cand_d2 = np.minimum(d2, _sq_dists(P[candidates], P))
        best = int(np.argmin(cand_d2 @ w))
        centers[c] = P[candidates[best]]
        d2 = cand_d2[best]
    return centers


def _assign(P, centers):
    """Nearest center per point (ties to the lowest index) and its squared
    distance."""
    dists = _sq_dists(P, centers)
    labels = np.argmin(dists, axis=1)
    return labels, dists[np.arange(len(labels)), labels]


def _reseed_empty(labels, gaps, k):
    """Give every empty cluster the farthest point (by gap to its own
    centroid; ties to the lowest index) among clusters that keep at least
    one other point. Returns whether any cluster was reseeded."""
    sizes = np.bincount(labels, minlength=k)
    empty = np.flatnonzero(sizes == 0)
    for c in empty:
        movable = sizes[labels] > 1
        far = int(np.argmax(np.where(movable, gaps, -1.0)))
        sizes[labels[far]] -= 1
        labels[far] = c
        sizes[c] = 1
    return len(empty) > 0


def _lloyd(P, w, k, seed):
    """One seeded run on weighted points; returns the centers, the labels,
    the weighted SSE and the number of Lloyd iterations."""
    rng = np.random.default_rng(seed)
    centers = _kmeanspp(P, w, k, rng)
    labels, gaps = _assign(P, centers)
    sse = float(w @ gaps)
    iters = 0
    while iters < MAX_ITERS:
        iters += 1
        reseeded = _reseed_empty(labels, gaps, k)
        mass = np.bincount(labels, weights=w, minlength=k)
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, w[:, None] * P)
        centers = sums / mass[:, None]
        new_labels, gaps = _assign(P, centers)
        new_sse = float(w @ gaps)
        if not reseeded:
            assert new_sse <= sse + 1e-9, "Lloyd SSE increased"
        sse = new_sse
        stable = not reseeded and np.array_equal(new_labels, labels)
        labels = new_labels
        if stable:
            break
    return centers, labels, sse, iters


def kmeans(ids, X, k, seed, restarts=1):
    """k-means on the rows of X, row i being program ids[i]: the best of
    `restarts` seeded runs by SSE (seeds seed, seed+1, ...), stopping at
    the first whose SSE is at most 1e-12; k is clamped to the number of
    distinct rows and model.k is the k used."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if k > len(ids):
        raise KTooLarge(f"k={k} exceeds {len(ids)} points")
    if k < 1:
        raise KTooLarge("k must be >= 1")
    P, inverse, counts = np.unique(X, axis=0, return_inverse=True,
                                   return_counts=True)
    w = counts.astype(float)
    k = min(k, len(P))
    best = None
    for r in range(restarts):
        centers, labels, sse, _ = _lloyd(P, w, k, seed + r)
        if best is None or sse < best[2] - 1e-12:
            best = (centers, labels, sse)
        if best[2] <= 1e-12:
            break  # SSE is never negative: no later run can be 1e-12 lower
    centers, labels, sse = best
    model = ClusterModel(
        k=k, seed=seed,
        centroids=centers,
        assignment={pid: int(labels[i])
                    for pid, i in zip(ids, inverse.reshape(-1))},
        sse=sse,
    )
    model.representatives = select_representatives(model, ids, X)
    return model


def k_from_fraction(n, frac):
    """n * frac rounded half up, at least 1. KTooLarge when that exceeds
    n, checked before rounding, which an infinite n * frac would overflow."""
    k = n * frac + 0.5
    if not k < n + 1:
        raise KTooLarge(f"k-frac {frac} gives k > {n} points")
    return max(1, math.floor(k))


def _norms(D):
    """The Euclidean length of each row of D as a list of floats, as
    np.linalg.norm computes it for one vector: the square root of the row's
    dot product with itself. matmul takes each (1, n) @ (n, 1) item of the
    stack by the same dot product as `d @ d` for a 1-D row, in one call."""
    return np.sqrt(np.matmul(D[:, None, :], D[:, :, None])
                   .reshape(len(D))).tolist()


def select_representatives(model, ids, X):
    """Per cluster, the member nearest (Euclidean) to the centroid; ties go
    to the lexicographically smaller program id."""
    labels = [model.assignment[pid] for pid in ids]
    dists = _norms(X - model.centroids[labels])
    reps = {}
    for d, c, pid in sorted(zip(dists, labels, ids), key=lambda t: t[2]):
        if c not in reps or d < reps[c][0]:
            reps[c] = (d, pid)
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


def closest_program(query, ids, X):
    """The candidate, row i of X being program ids[i], with the smallest
    Euclidean distance to the 1-D array `query`; ties by lexicographic
    program id. Returns (program_id, distance)."""
    if not ids:
        raise EmptyCandidates("no candidate programs")
    if X.shape[1:] != query.shape:
        raise DimensionMismatch(
            f"candidates of dimension {X.shape[1:]} vs query {query.shape}")
    d, pid = min(zip(_norms(X - query), ids))
    return pid, float(d)
