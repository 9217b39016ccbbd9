"""Similarity-graph construction and label propagation over embeddings.

The similarity graph is a union-kNN graph (an edge survives when either
endpoint lists the other among its k nearest) with RBF weights
exp(-d^2 / sigma^2). Propagation iterates Y <- D^-1 W Y with labeled rows
clamped to their one-hot targets, the harmonic-function scheme for
semi-supervised classification.
"""

from dataclasses import dataclass

import numpy as np

from fairwalks.graph import component_labels


@dataclass
class PropagationGraph:
    """Symmetric weighted similarity graph in COO form, sorted by row."""

    node_count: int
    k: int
    sigma: float
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray


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
    labeled = labels >= 0
    if not labeled.any():
        raise ValueError("at least one labeled node is required")

    warnings = []
    present = np.unique(labels[labeled])
    for c in range(n_classes):
        if c not in present:
            warnings.append(f"class {c} has no labeled seed and cannot be predicted")

    row_sum = np.bincount(pg.rows, weights=pg.weights, minlength=n)
    denom = row_sum[pg.rows]
    norm = np.divide(
        pg.weights, denom, out=np.zeros_like(pg.weights), where=denom > 0
    )
    row_starts = np.searchsorted(pg.rows, np.arange(n + 1))
    empty_rows = row_starts[:-1] == row_starts[1:]
    pad = np.zeros((1, n_classes), dtype=np.float64)

    clamp = np.zeros((n, n_classes), dtype=np.float64)
    clamp[labeled, labels[labeled]] = 1.0
    y = clamp.copy()

    delta = np.inf
    for _ in range(max_iters):
        # a zero pad row keeps reduceat boundaries valid when trailing
        # nodes have no edges; empty middle segments are zeroed below
        contrib = np.concatenate([norm[:, None] * y[pg.cols], pad])
        y_next = np.add.reduceat(contrib, row_starts[:-1], axis=0)
        y_next[empty_rows] = 0.0
        y_next[labeled] = clamp[labeled]
        delta = np.abs(y_next - y).max()
        y = y_next
        if delta < tol:
            break
    if delta >= tol:
        warnings.append(
            f"propagation did not converge in {max_iters} iterations "
            f"(last max change {delta:.3g}, tol {tol:g})"
        )

    positive = pg.weights > 0
    component = component_labels(n, pg.rows[positive], pg.cols[positive])
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
