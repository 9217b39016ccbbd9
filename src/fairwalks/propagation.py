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

from fairwalks.graph import atomic_writer, component_labels


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

    def save(self, path):
        """Write the graph to ``path`` as one int64 ``.npy`` array, through
        ``atomic_writer``: node count, k and sigma's bits, then the rows,
        the cols and the weights' bits, so ``load`` returns it bit for bit."""
        header = np.array([self.node_count, self.k, 0], dtype=np.int64)
        header[2:].view(np.float64)[0] = self.sigma
        packed = np.concatenate([header, self.rows, self.cols, self.weights.view(np.int64)])
        # a handle, because np.save appends .npy to bare file names
        with atomic_writer(path, "wb") as f:
            np.save(f, packed, allow_pickle=False)

    @classmethod
    def load(cls, path):
        """The graph ``save`` wrote to ``path``, or None if there is no file."""
        try:
            f = open(path, "rb")
        except FileNotFoundError:
            return None
        with f:
            packed = np.load(f, allow_pickle=False)
        if packed.dtype != np.int64 or packed.ndim != 1 or len(packed) % 3:
            raise ValueError(f"{path} does not hold a propagation graph")
        rows, cols, weights = packed[3:].reshape(3, -1)
        return cls(int(packed[0]), int(packed[1]), float(packed[2:3].view(np.float64)[0]),
                   rows, cols, weights.view(np.float64))


KNN_BLOCK_CELLS = 1 << 22  # distance entries per row block of build_propagation_graph
KNN_SELECT_CELLS = 1 << 16  # distance entries per row chunk of a block's later passes


def check_knn(k, sigma):
    """Raise unless k >= 1 and sigma is None (automatic) or finite and positive."""
    if not k >= 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if sigma is not None and not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma!r}")


def _block_nearest(vectors, sq_norm, lo: int, hi: int, k: int):
    """The k nearest of rows lo:hi: (k-th distance per row, rows - lo, cols,
    squared distances).

    The Gram block is the one (hi - lo) x n temporary: each chunk of
    ``max(1, KNN_SELECT_CELLS // n)`` rows is turned into distances in
    place and its neighbors are picked before the next chunk, so every
    pass after the Gram product runs on a chunk. The block is freed on
    return, before the next one is built."""
    n = len(sq_norm)
    block = vectors[lo:hi] @ vectors.T
    step = max(1, KNN_SELECT_CELLS // n)
    cut = np.empty(hi - lo)
    rows, cols = [], []
    for top in range(0, hi - lo, step):
        bottom = min(top + step, hi - lo)
        # (s_i + s_j) - 2 G, rounded as one add.outer and one subtraction
        d2 = block[top:bottom]
        d2 *= 2.0
        np.subtract(np.add.outer(sq_norm[lo + top:lo + bottom], sq_norm), d2, out=d2)
        np.clip(d2, 0.0, None, out=d2)
        d2[np.arange(bottom - top), np.arange(lo + top, lo + bottom)] = np.inf

        # the k nearest of each row are those below its k-th smallest
        # distance plus, at that distance, the lowest column indices: the
        # first k of a stable sort, without sorting
        cut[top:bottom] = np.partition(d2, k - 1, axis=1)[:, k - 1]
        kth = cut[top:bottom, None]
        nearest = d2 <= kth
        over = np.flatnonzero(nearest.sum(axis=1) > k)
        if len(over):
            closer = d2[over] < kth[over]
            tied = d2[over] == kth[over]
            tied &= np.cumsum(tied, axis=1) <= k - closer.sum(axis=1)[:, None]
            nearest[over] = closer | tied
        r, c = np.nonzero(nearest)
        rows.append(r + top)
        cols.append(c)
    r, c = np.concatenate(rows), np.concatenate(cols)
    return cut, r, c, block[r, c]


def build_propagation_graph(vectors, k: int = 10, sigma=None) -> PropagationGraph:
    """Union-kNN graph with RBF edge weights.

    ``sigma=None`` selects the bandwidth automatically as the mean distance
    to the k-th nearest neighbor. Duplicate points get weight 1 edges.

    Distances are computed in row blocks of ``max(1, KNN_BLOCK_CELLS // n)``
    rows, never as one n x n array. Up to 2,048 points that is one block,
    the full Gram product. A row-blocked Gram product can differ from it in
    the last bits, so larger graphs may pick a different neighbor at a
    near-tie; an edge's distance is the one its lower endpoint's row
    computed when that row lists it, else the other row's. Each block's
    Gram product is the one block-sized array: it is turned into distances
    in place and its neighbors picked ``max(1, KNN_SELECT_CELLS // n)``
    rows at a time. That chunking changes no arithmetic, so its size moves
    no bit.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = len(vectors)
    if n < 2:
        raise ValueError("need at least 2 points")
    check_knn(k, sigma)
    k = min(k, n - 1)

    sq_norm = np.einsum("ij,ij->i", vectors, vectors)
    if not np.isfinite(sq_norm).all():
        row = int(np.argmin(np.isfinite(sq_norm)))
        if np.isfinite(vectors[row]).all():
            raise ValueError(f"row {row} of the vectors has a squared norm that overflows")
        raise ValueError(f"row {row} of the vectors is not finite")
    b = max(1, KNN_BLOCK_CELLS // n)
    kth = np.empty(n)
    src, dst, dist = [], [], []
    for lo in range(0, n, b):
        hi = min(lo + b, n)
        cut, r, c, d = _block_nearest(vectors, sq_norm, lo, hi, k)
        kth[lo:hi] = cut
        src.append(r + lo)
        dst.append(c)
        dist.append(d)
    if sigma is None:
        sigma = float(np.sqrt(kth).mean())
        if sigma == 0.0:
            sigma = 1.0  # all points identical

    # pairs are in row order, so an edge's first entry is from its lower row
    src, dst, dist = np.concatenate(src), np.concatenate(dst), np.concatenate(dist)
    undirected, first = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst),
                                  return_index=True)
    lo, hi = undirected // n, undirected % n

    w = np.exp(-dist[first] / (sigma * sigma))
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    weights = np.concatenate([w, w])
    sort = np.argsort(rows * n + cols, kind="stable")  # distinct keys: the lexsort order
    return PropagationGraph(n, k, sigma, rows[sort], cols[sort], weights[sort])


def propagate(
    pg: PropagationGraph,
    labels,
    n_classes: int | list[int],
    max_iters: int = 1000,
    tol: float = 1e-6,
):
    """Spread clamped seed labels until the distributions stop moving.

    ``labels`` holds a class index per node, -1 for unlabeled. Returns
    (probabilities (n, C), warnings). Unlabeled nodes with no path to any
    seed get the uniform distribution. Stopping at ``max_iters`` before the
    change falls below ``tol`` adds a warning.

    Labels of shape (k, n), with -1 at the same nodes in every row, and a
    sequence of k class counts propagate k attributes over one labeled
    set and return a list of k such pairs, each bitwise what the row's own
    1-D call returns.
    """
    labels = np.asarray(labels, dtype=np.int64)
    single = labels.ndim == 1
    if single:
        labels, n_classes = labels[None], [n_classes]
    n = pg.node_count
    if labels.ndim != 2 or labels.shape[1] != n:
        raise ValueError("labels length must match the graph")
    if len(n_classes) != len(labels):
        raise ValueError(f"{len(labels)} label rows need {len(labels)} class counts, "
                         f"got {len(n_classes)}")
    bad = (labels < -1) | (labels >= np.asarray(n_classes)[:, None])
    if bad.any():
        row, node = np.argwhere(bad)[0]
        raise ValueError(f"label {labels[row, node]} outside [-1, {n_classes[row]}) "
                         "(-1 marks unlabeled)")
    labeled = labels[0] >= 0
    if ((labels[1:] >= 0) != labeled).any():
        raise ValueError("every label row must leave the same nodes unlabeled")
    if not labeled.any():
        raise ValueError("at least one labeled node is required")

    # Only unlabeled rows with edges change. They come first in the node
    # order (pos maps a node to its place), so a sweep sums just their
    # edges, in row order as a full sweep would, straight into the head of
    # the next class-major buffer; the tail holds the fixed rows. The
    # attributes' classes are stacked on the class axis: attribute i owns
    # channels bounds[i]:bounds[i + 1].
    free = ~labeled & (pg.degree > 0)
    active = np.flatnonzero(free)
    a = len(active)
    pos = np.empty(n, dtype=np.int64)
    pos[np.concatenate([active, np.flatnonzero(~free)])] = np.arange(n)
    on_free = free[pg.rows]
    cols, scale = pos[pg.cols[on_free]], pg.transition[on_free]
    degree = pg.degree[active]
    starts = np.cumsum(degree) - degree
    bounds = np.cumsum([0, *n_classes])
    # the channel of every seed, attribute by attribute
    channels = bounds[:-1, None] + labels.compress(labeled, axis=1)
    cur = np.zeros((bounds[-1], n), dtype=np.float64)
    cur[channels, pos[labeled]] = 1.0  # clamped: never rewritten
    unseeded = np.flatnonzero(np.bincount(channels.ravel(), minlength=bounds[-1]) == 0)
    warnings = [[f"class {c - lo} has no labeled seed and cannot be predicted"
                 for c in unseeded if lo <= c < hi] for lo, hi in zip(bounds, bounds[1:])]
    nxt = cur.copy()
    gathered = np.empty((bounds[-1], len(cols)))
    diff = np.empty((bounds[-1], a))

    # Each attribute stops at its own first sweep with max change < tol;
    # later sweeps cover only the channels of the attributes still moving.
    # Channels hold no cross terms, so every result is the 1-D call's. A
    # sweep makes one convergence reduction: the max change per channel,
    # then per attribute over its channels (marks). The buffer views are
    # rebuilt only when the set of moving attributes changes.
    k = len(labels)
    moving = list(range(k))
    out = [None] * k
    change, first, stale = np.full(k, np.inf), 0, True
    for _ in range(max_iters):
        if stale:
            first, last = moving[0], moving[-1] + 1
            lo, hi = bounds[first], bounds[last]
            g, d, marks = gathered[lo:hi], diff[lo:hi], bounds[first:last] - lo
            here, there = (cur[lo:hi], cur[lo:hi, :a]), (nxt[lo:hi], nxt[lo:hi, :a])
            stale = False
        # indices are in range by construction; "clip" skips the copy of out
        np.multiply(np.take(here[0], cols, axis=1, out=g, mode="clip"), scale, out=g)
        np.add.reduceat(g, starts, axis=1, out=there[1])
        np.abs(np.subtract(there[1], here[1], out=d), out=d)
        change = np.maximum.reduceat(d.max(axis=1, initial=0.0), marks)
        cur, nxt, here, there = nxt, cur, there, here
        if (change < tol).any():
            for i in moving:
                if change[i - first] < tol:
                    out[i] = cur[bounds[i]:bounds[i + 1]].T[pos]
            still = [i for i in moving if out[i] is None]
            stale, moving = still != moving, still
            if not moving:
                break
    for i in moving:
        out[i] = cur[bounds[i]:bounds[i + 1]].T[pos]
        warnings[i].append(
            f"propagation did not converge in {max_iters} iterations "
            f"(last max change {change[i - first]:.3g}, tol {tol:g})"
        )

    component = pg.components
    seeded = np.zeros(n, dtype=bool)
    seeded[component[labeled]] = True
    stranded = ~seeded[component] & ~labeled
    if stranded.any():
        for y, count, warn in zip(out, n_classes, warnings):
            y[stranded] = 1.0 / count
            warn.append(
                f"{int(stranded.sum())} nodes unreachable from any seed; set to uniform"
            )
    results = list(zip(out, warnings))
    return results[0] if single else results


def predict(probabilities) -> np.ndarray:
    """Argmax class per node; ties go to the lowest class index."""
    return np.asarray(probabilities).argmax(axis=1)
