"""Second-order (p, q) random walks over normalized transition weights.

The walk source is either the plain weight-normalized graph (baseline) or
a boundary-biased graph. The return parameter p and in-out parameter q
rescale the step distribution based on the previous node: revisiting the
previous node is weighted 1/p, moving to one of its neighbors 1, and
jumping further away 1/q.
"""

from dataclasses import dataclass

import numpy as np

from fairwalks.graph import AttributedGraph, cumsum_by_row, draw_slots, step_walkers
from fairwalks.seeds import rng_for


@dataclass(frozen=True)
class WalkConfig:
    p: float = 1.0
    q: float = 1.0
    walks_per_node: int = 10
    walk_length: int = 80
    seed: int = 0

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be positive")
        if self.walks_per_node < 1 or self.walk_length < 1:
            raise ValueError("walks_per_node and walk_length must be >= 1")


@dataclass
class WalkCorpus:
    """Node-ID sequences; the sentences fed to the skip-gram trainer."""

    walks: list
    config: WalkConfig
    source: str  # "baseline" or "crosswalk(alpha=..., beta=...)"

    def __len__(self):
        return len(self.walks)


@dataclass
class TransitionWeights:
    """Normalized out-distributions aligned with ``graph``'s CSR ``indices``.

    Each non-empty row of ``probs`` sums to 1. Directed: the probability of
    v -> u generally differs from that of u -> v. ``alpha`` and ``beta`` are
    set when the probabilities come from CrossWalk reweighting.
    """

    graph: AttributedGraph
    probs: np.ndarray
    alpha: float = None
    beta: float = None

    @classmethod
    def from_graph(cls, graph: AttributedGraph) -> "TransitionWeights":
        totals = np.bincount(graph.rows, weights=graph.weights, minlength=graph.node_count)
        return cls(graph, graph.weights / totals[graph.rows])

    @property
    def indptr(self) -> np.ndarray:
        return self.graph.indptr

    @property
    def indices(self) -> np.ndarray:
        return self.graph.indices

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    def out_distribution(self, v: int):
        """(neighbor IDs, probabilities) of node v's outgoing row."""
        row = slice(self.indptr[v], self.indptr[v + 1])
        return self.indices[row], self.probs[row]


def _edge_keys(weights: TransitionWeights) -> np.ndarray:
    """``row * n + neighbor`` per CSR slot, ascending because rows are sorted."""
    return weights.graph.rows * weights.node_count + weights.indices


def _node2vec_factors(keys, n, prev, nbrs, p, q) -> np.ndarray:
    """(p, q) factor of each step to ``nbrs`` after ``prev``: 1/p back to prev,
    1 to a neighbor of prev (its pair is in ``keys``), 1/q further away."""
    wanted = prev * n + nbrs
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(nbrs == prev, 1.0 / p, np.where(keys[pos] == wanted, 1.0, 1.0 / q))


def transition_distribution(weights: TransitionWeights, prev, cur: int, p: float, q: float):
    """Next-step distribution from ``cur`` given the previous node.

    Returns (neighbor IDs, probabilities). ``prev=None`` marks the first
    step, where the second-order factors do not apply. Isolated ``cur``
    yields empty arrays.
    """
    nbrs, scores = weights.out_distribution(cur)
    if len(nbrs) == 0:
        return nbrs, scores
    if prev is not None and (p != 1.0 or q != 1.0):
        keys = _edge_keys(weights)
        scores = scores * _node2vec_factors(keys, weights.node_count, prev, nbrs, p, q)
    return nbrs, scores / scores.sum()


def generate_walks(
    weights: TransitionWeights, config: WalkConfig, source: str = "baseline"
) -> WalkCorpus:
    """Run ``walks_per_node`` rooted walks from every node.

    Each walk's randomness is seeded from (seed, root, walk index), so the
    corpus content is reproducible and independent of scheduling; root
    order is reshuffled every round, which only affects corpus ordering.
    All walks advance together. First-order steps (the first, and every
    one when p = q = 1) bisect running sums taken once per call; later
    (p, q) steps reweigh the walkers' rows through ``step_walkers``.
    """
    n = weights.node_count
    if n == 0:
        raise ValueError("empty graph")
    length, p, q = config.walk_length, config.p, config.q
    roots = np.concatenate(
        [rng_for(config.seed, "order", k).permutation(n) for k in range(config.walks_per_node)]
    )
    draws = np.empty((len(roots), length))
    for i, root in enumerate(roots.tolist()):
        draws[i] = rng_for(config.seed, "walk", root, i // n).random(length)
    keys = None if p == q == 1.0 else _edge_keys(weights)
    path = np.empty((len(roots), length + 1), dtype=np.int64)
    path[:, 0] = roots
    # rows are symmetric, so only a walk from an isolated root ever stops
    isolated = np.diff(weights.indptr)[roots] == 0
    live = np.flatnonzero(~isolated)

    def reweigh(slots, walker):  # (p, q) factors for the walkers of this ``step``
        prev = path[live[walker], step - 1]
        return _node2vec_factors(keys, n, prev, weights.indices[slots], p, q)

    cum = cumsum_by_row(weights.probs, weights.indptr)  # first-order running sums
    for step in range(length):
        cur, u = path[live, step], draws[live, step]
        if step > 0 and keys is not None:
            slots = step_walkers(weights.indptr, weights.probs, cur, u, reweigh)
        else:
            slots = draw_slots(cum, weights.indptr, cur, u)
        path[live, step + 1] = weights.indices[slots]
    walks = path.tolist()
    for i in np.flatnonzero(isolated).tolist():
        walks[i] = walks[i][:1]
    return WalkCorpus(walks, config, source)


def save_corpus(corpus: WalkCorpus, path, original_ids=None):
    """One walk per line, space-separated node tokens."""
    with open(path, "w") as f:
        for walk in corpus.walks:
            if original_ids is not None:
                f.write(" ".join(original_ids[v] for v in walk) + "\n")
            else:
                f.write(" ".join(str(v) for v in walk) + "\n")


def load_corpus_tokens(path):
    """Token sequences from a corpus file (strings, no graph binding)."""
    sentences = []
    with open(path) as f:
        for line in f:
            tokens = line.split()
            if tokens:
                sentences.append(tokens)
    if not sentences:
        raise ValueError(f"{path}: corpus is empty")
    return sentences
