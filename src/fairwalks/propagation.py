"""Similarity-graph construction and label propagation over embeddings.

The similarity graph is a union-kNN graph (an edge survives when either
endpoint lists the other among its k nearest) with RBF weights
exp(-d^2 / sigma^2). Propagation iterates Y <- D^-1 W Y with labeled rows
clamped to their one-hot targets, the harmonic-function scheme for
semi-supervised classification.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from fairwalks.graph import component_labels


@dataclass
class PropagationGraph:
    """Symmetric weighted similarity graph in COO form, sorted by row.

    Graph-only results are computed on first use and kept for every fold.
    """

    node_count: int
    k: int
    sigma: float
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    @cached_property
    def transition(self) -> np.ndarray:
        """Edge weights divided by their row's sum (0 where the sum is 0)."""
        denom = np.bincount(self.rows, weights=self.weights, minlength=self.node_count)[self.rows]
        return np.divide(self.weights, denom, out=np.zeros_like(self.weights), where=denom > 0)

    @cached_property
    def degree(self) -> np.ndarray:
        """Edge count of every node."""
        return np.bincount(self.rows, minlength=self.node_count)

    @cached_property
    def components(self) -> np.ndarray:
        """Component label of every node over the positive-weight edges."""
        positive = self.weights > 0
        return component_labels(self.node_count, self.rows[positive], self.cols[positive])


KNN_BLOCK_CELLS = 1 << 22  # distance entries per row block of build_propagation_graph


def build_propagation_graph(vectors, k: int = 10, sigma=None) -> PropagationGraph:
    """Union-kNN graph with RBF edge weights.

    ``sigma=None`` selects the bandwidth automatically as the mean distance
    to the k-th nearest neighbor. Duplicate points get weight 1 edges.

    Distances are computed in row blocks of ``max(1, KNN_BLOCK_CELLS // n)``
    rows, never as one n x n array. Up to 2,048 points that is one block,
    the full Gram product. A row-blocked Gram product can differ from it in
    the last bits, so larger graphs may pick a different neighbor at a
    near-tie; an edge's distance is the one its lower endpoint's row
    computed when that row lists it, else the other row's.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = len(vectors)
    if n < 2:
        raise ValueError("need at least 2 points")
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, n - 1)

    sq_norm = np.einsum("ij,ij->i", vectors, vectors)
    b = max(1, KNN_BLOCK_CELLS // n)
    kth = np.empty(n)
    src, dst, dist = [], [], []
    for lo in range(0, n, b):
        hi = min(lo + b, n)
        d2 = sq_norm[lo:hi, None] + sq_norm[None, :] - 2.0 * (vectors[lo:hi] @ vectors.T)
        np.clip(d2, 0.0, None, out=d2)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf

        # the k nearest of each row are those below its k-th smallest
        # distance plus, at that distance, the lowest column indices: the
        # first k of a stable sort, without sorting
        cut = np.partition(d2, k - 1, axis=1)[:, k - 1].copy()  # frees the partitioned block
        kth[lo:hi] = cut
        nearest = d2 <= cut[:, None]
        over = np.flatnonzero(nearest.sum(axis=1) > k)
        if len(over):
            closer = d2[over] < cut[over, None]
            tied = d2[over] == cut[over, None]
            tied &= np.cumsum(tied, axis=1) <= k - closer.sum(axis=1)[:, None]
            nearest[over] = closer | tied
        r, c = np.nonzero(nearest)
        src.append(r + lo)
        dst.append(c)
        dist.append(d2[r, c])
    if sigma is None:
        sigma = float(np.sqrt(kth).mean())
        if sigma == 0.0:
            sigma = 1.0  # all points identical
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    # pairs are in row order, so an edge's first entry is from its lower row
    src, dst, dist = np.concatenate(src), np.concatenate(dst), np.concatenate(dist)
    undirected, first = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst),
                                  return_index=True)
    lo, hi = undirected // n, undirected % n

    w = np.exp(-dist[first] / (sigma * sigma))
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    weights = np.concatenate([w, w])
    sort = np.lexsort((cols, rows))
    return PropagationGraph(n, k, sigma, rows[sort], cols[sort], weights[sort])


def propagate(
    pg: PropagationGraph,
    labels,
    n_classes: int,
    max_iters: int = 1000,
    tol: float = 1e-6,
):
    """Spread clamped seed labels until the distributions stop moving.

    ``labels`` holds a class index per node, -1 for unlabeled. Returns
    (probabilities (n, C), warnings). Unlabeled nodes with no path to any
    seed get the uniform distribution. Stopping at ``max_iters`` before the
    change falls below ``tol`` adds a warning.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = pg.node_count
    if len(labels) != n:
        raise ValueError("labels length must match the graph")
    bad = labels[(labels < -1) | (labels >= n_classes)]
    if len(bad):
        raise ValueError(f"label {bad[0]} outside [-1, {n_classes}) (-1 marks unlabeled)")
    labeled = labels >= 0
    if not labeled.any():
        raise ValueError("at least one labeled node is required")

    warnings = [f"class {c} has no labeled seed and cannot be predicted"
                for c in np.setdiff1d(np.arange(n_classes), labels[labeled])]

    # Only unlabeled rows with edges change. They come first in the node
    # order (pos maps a node to its place), so a sweep sums just their
    # edges, in row order as a full sweep would, straight into the head of
    # the next class-major buffer; the tail holds the fixed rows.
    free = ~labeled & (pg.degree > 0)
    active = np.flatnonzero(free)
    a = len(active)
    pos = np.empty(n, dtype=np.int64)
    pos[np.concatenate([active, np.flatnonzero(~free)])] = np.arange(n)
    on_free = free[pg.rows]
    cols, scale = pos[pg.cols[on_free]], pg.transition[on_free]
    starts = np.cumsum(pg.degree[active]) - pg.degree[active]
    cur = np.zeros((n_classes, n), dtype=np.float64)
    cur[labels[labeled], pos[labeled]] = 1.0  # clamped: never rewritten
    nxt = cur.copy()
    gathered = np.empty((n_classes, len(cols)))
    diff = np.empty((n_classes, a))
    delta = np.inf
    for _ in range(max_iters):
        np.multiply(np.take(cur, cols, axis=1, out=gathered), scale, out=gathered)
        np.add.reduceat(gathered, starts, axis=1, out=nxt[:, :a])
        delta = np.abs(np.subtract(nxt[:, :a], cur[:, :a], out=diff), out=diff).max(initial=0.0)
        cur, nxt = nxt, cur
        if delta < tol:
            break
    if delta >= tol:
        warnings.append(
            f"propagation did not converge in {max_iters} iterations "
            f"(last max change {delta:.3g}, tol {tol:g})"
        )
    y = cur.T[pos]

    component = pg.components
    seeded = np.zeros(n, dtype=bool)
    seeded[component[labeled]] = True
    stranded = ~seeded[component] & ~labeled
    if stranded.any():
        y[stranded] = 1.0 / n_classes
        warnings.append(
            f"{int(stranded.sum())} nodes unreachable from any seed; set to uniform"
        )
    return y, warnings


def predict(probabilities) -> np.ndarray:
    """Argmax class per node; ties go to the lowest class index."""
    return np.asarray(probabilities).argmax(axis=1)
