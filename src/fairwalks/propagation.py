"""Similarity-graph construction and label propagation over embeddings.

The similarity graph is a union-kNN graph (an edge survives when either
endpoint lists the other among its k nearest) with RBF weights
exp(-d^2 / sigma^2). Propagation iterates Y <- D^-1 W Y with labeled rows
clamped to their one-hot targets, the harmonic-function scheme for
semi-supervised classification.

Certified stop. From the zero start, a free node's iterate F_c after t
sweeps is the chance that a random walk from it reaches a class-c seed
within t steps (the absorbing-walk reading of Zhu, Ghahramani & Lafferty,
ICML 2003). So every F_c only grows, and no class can gain more than the
node's unassigned mass r = 1 - sum_c F_c. Once the top-two margin exceeds
r, the node's argmax is its argmax at every later sweep, the one where
the ``tol`` stop fires included. ``propagate(certify=True)`` checks the
still-unproven free nodes of every moving attribute's seeded components
each ``CERTIFY_EVERY`` sweeps. Stranded nodes are never checked: they keep
the uniform rule.

The attribute stops once every node is proven and the ``tol`` stop is
sure to fire within ``max_iters`` sweeps, so that its warnings, and with
them an audit's report bytes, are the ``tol`` stop's in every case. From
the zero start, the unassigned masses after s sweeps are the row sums of
P^s, P the transition among the seeded free nodes, and the change of
sweep s' + s is P^s times the change of sweep s'. So with R the largest
unassigned mass after s sweeps, the max change falls by the factor R at
least every s sweeps, and with J = floor(N / s) - 1 (N = ``max_iters``),
(R + guard)^J (change + guard) + guard < tol proves that the ``tol`` stop
fires by sweep (J + 1) s <= N. A node trapped in a near-duplicate pair
that reaches a seed through one faint edge keeps R near 1: its attribute
runs on to the ``tol`` stop, or to ``max_iters`` and its warning.

Rounding guard. The certificate holds for exact iterates; the computed
ones drift from them. Let eps = 2^-52 be float64's machine epsilon,
u = eps / 2 the unit roundoff, D the largest edge count of a free row,
N = ``max_iters`` and C the attribute's class count. A row's normalized
weights carry a relative error of at most about (D + 1)u and a sweep's
products and sum about D u more, so a sweep adds at most (2D + 1)u max|F|
to any entry's distance from the exact iterate, and the sweep, a
substochastic matrix over the free rows, does not grow the distance it
inherits: after t <= N sweeps every entry is within
E = N (2D + 1) u (1 + O(N D u)). The computed margin can then exceed the
exact one by 2E, the computed r fall short of the exact one by C E plus
about C u for its own sum, and the iterate that the ``tol`` stop returns
lies within E of its exact one. A node is proven only once

    margin > r + guard,  guard = (C + 4) (N + 1) (2D + 1) eps,

which covers those (C + 4) E and the roundings of the test itself twice
over. It also covers the error of the computed R and change, and the 2E
by which a computed change may exceed the exact one. On eval_warm's
graphs (D <= 63, N = 1000, C = 3) it is at most 2e-10.
An exact tie, margin 0, is never proven, since the computed r is above
-guard; it runs to the ``tol`` stop and keeps the lowest-class argmax.
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


CERTIFY_EVERY = 4  # sweeps between two certificate checks of propagate(certify=True)
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
    *,
    certify: bool = False,
):
    """Spread clamped seed labels until the distributions stop moving.

    ``labels`` holds a class index per node, -1 for unlabeled. Returns
    (probabilities (n, C), warnings). Unlabeled nodes with no path to any
    seed get the uniform distribution. Stopping at ``max_iters`` before the
    change falls below ``tol`` adds a warning.

    ``certify=True`` also stops an attribute once the argmax of every free
    node in a seeded component is proven final and the ``tol`` stop is
    proven to fire within ``max_iters`` (module docstring). Its
    probabilities are then an earlier sweep's, but ``predict`` of them, the
    stranded rows and the warnings are the ``tol`` stop's: "propagation did
    not converge ..." keeps its text and is written only when neither stop
    fires within ``max_iters`` sweeps, which is when the ``tol`` stop alone
    writes it. The default path is the ``tol`` loop alone.

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
    # nodes in a component that holds a seed: the certificate checks the
    # free ones, and the unlabeled others are stranded, set to uniform last
    component = pg.components
    seeded = np.zeros(n, dtype=bool)
    seeded[component[labeled]] = True
    seeded = seeded[component]

    # Each attribute stops at its own first sweep with max change < tol or,
    # with certify, at its first check that leaves no node unproven and
    # proves the tol stop due; later sweeps cover only the channels of the
    # attributes still moving.
    # Channels hold no cross terms, so every result is the 1-D call's. A
    # sweep makes one convergence reduction: the max change per channel,
    # then per attribute over its channels (marks). The buffer views are
    # rebuilt only when the set of moving attributes changes.
    k = len(labels)
    reached = np.flatnonzero(seeded[active])
    unproven = [reached] * k
    # the certificate's rounding guard per attribute (module docstring)
    guard = ((np.diff(bounds) + 4) * (max_iters + 1) * (2 * degree.max(initial=0) + 1)
             * np.finfo(np.float64).eps)
    moving = list(range(k))
    out = [None] * k
    change, first, stale = np.full(k, np.inf), 0, True
    for sweep in range(max_iters):
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
        done = change < tol
        if certify and sweep % CERTIFY_EVERY == CERTIFY_EVERY - 1:
            for i in moving:
                y = cur[bounds[i]:bounds[i + 1]]
                unproven[i] = _unproven(y, unproven[i], guard[i])
                done[i - first] |= not len(unproven[i]) and _tol_stop_due(
                    y, reached, change[i - first], sweep + 1, max_iters, tol, guard[i])
        if done.any():
            for i in moving:
                if done[i - first]:
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

    stranded = ~seeded & ~labeled
    if stranded.any():
        for y, count, warn in zip(out, n_classes, warnings):
            y[stranded] = 1.0 / count
            warn.append(
                f"{int(stranded.sum())} nodes unreachable from any seed; set to uniform"
            )
    results = list(zip(out, warnings))
    return results[0] if single else results


def _unproven(y, nodes, guard):
    """The nodes, columns of the class-major iterate y, whose top-two margin
    is at most their unassigned mass plus the guard: their argmax may move."""
    block = np.take(y, nodes, axis=1)
    # the second largest and the largest; for one class, its row: margin 0
    top2 = np.partition(block, len(y) - 2, axis=0)[len(y) - 2:]
    return nodes[top2[-1] - top2[0] <= 1.0 - block.sum(axis=0) + guard]


def _tol_stop_due(y, nodes, change, sweeps, max_iters, tol, guard):
    """Whether the tol stop is sure to fire within max_iters sweeps: every
    ``sweeps`` sweeps, the max change shrinks at least by the factor R, the
    largest unassigned mass of the nodes after ``sweeps`` sweeps (module
    docstring)."""
    blocks = max_iters // sweeps - 1
    mass = (1.0 - np.take(y, nodes, axis=1).sum(axis=0)).max(initial=0.0)
    return blocks > 0 and (mass + guard) ** blocks * (change + guard) + guard < tol


def predict(probabilities) -> np.ndarray:
    """Argmax class per node; ties go to the lowest class index."""
    return np.asarray(probabilities).argmax(axis=1)
