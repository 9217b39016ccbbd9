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
    def components(self) -> np.ndarray:
        """Component label of every node over the positive-weight edges."""
        positive = self.weights > 0
        return component_labels(self.node_count, self.rows[positive], self.cols[positive])


def build_propagation_graph(vectors, k: int = 10, sigma=None) -> PropagationGraph:
    """Union-kNN graph with RBF edge weights.

    ``sigma=None`` selects the bandwidth automatically as the mean distance
    to the k-th nearest neighbor. Duplicate points get weight 1 edges.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = len(vectors)
    if n < 2:
        raise ValueError("need at least 2 points")
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, n - 1)

    sq_norm = np.einsum("ij,ij->i", vectors, vectors)
    d2 = sq_norm[:, None] + sq_norm[None, :] - 2.0 * (vectors @ vectors.T)
    np.clip(d2, 0.0, None, out=d2)
    np.fill_diagonal(d2, np.inf)

    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    if sigma is None:
        kth = np.sqrt(d2[np.arange(n), order[:, k - 1]])
        sigma = float(kth.mean())
        if sigma == 0.0:
            sigma = 1.0  # all points identical
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    src = np.repeat(np.arange(n), k)
    dst = order.ravel()
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    undirected = np.unique(lo * n + hi)
    lo, hi = undirected // n, undirected % n

    w = np.exp(-d2[lo, hi] / (sigma * sigma))
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
    y = np.zeros((n, n_classes), dtype=np.float64)
    y[labeled, labels[labeled]] = 1.0  # clamped: labeled rows are never rewritten

    # Only unlabeled rows with edges change: sum just their edges, in row
    # order as a full sweep would. prev == y[active], and no other row moves.
    degree = np.bincount(pg.rows, minlength=n)
    free = ~labeled & (degree > 0)
    active, on_free = np.flatnonzero(free), free[pg.rows]
    cols, scale = pg.cols[on_free], pg.transition[on_free, None]
    starts = np.cumsum(degree[active]) - degree[active]
    gathered = np.empty((len(cols), n_classes))
    acc, prev, diff = (np.zeros((len(active), n_classes)) for _ in range(3))
    delta = np.inf
    for _ in range(max_iters):
        np.multiply(np.take(y, cols, axis=0, out=gathered), scale, out=gathered)
        np.add.reduceat(gathered, starts, axis=0, out=acc)
        delta = np.abs(np.subtract(acc, prev, out=diff), out=diff).max(initial=0.0)
        y[active] = acc
        acc, prev = prev, acc
        if delta < tol:
            break
    if delta >= tol:
        warnings.append(
            f"propagation did not converge in {max_iters} iterations "
            f"(last max change {delta:.3g}, tol {tol:g})"
        )

    component = pg.components
    stranded = ~np.isin(component, component[labeled]) & ~labeled
    if stranded.any():
        y[stranded] = 1.0 / n_classes
        warnings.append(
            f"{int(stranded.sum())} nodes unreachable from any seed; set to uniform"
        )
    return y, warnings


def predict(probabilities) -> np.ndarray:
    """Argmax class per node; ties go to the lowest class index."""
    return np.asarray(probabilities).argmax(axis=1)
