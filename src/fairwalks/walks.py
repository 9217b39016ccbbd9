"""Second-order (p, q) random walks over normalized transition weights.

The walk source is either the plain weight-normalized graph (baseline) or
a boundary-biased graph. The return parameter p and in-out parameter q
rescale the step distribution based on the previous node: revisiting the
previous node is weighted 1/p, moving to one of its neighbors 1, and
jumping further away 1/q.
"""

from dataclasses import dataclass, field

import numpy as np

from fairwalks.crosswalk import BiasedGraph
from fairwalks.graph import AttributedGraph, cumsum_by_row
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
    """Normalized out-distributions aligned with a graph's CSR ``indices``;
    ``cum`` holds their running sums, restarted at every row."""

    indptr: np.ndarray
    indices: np.ndarray
    probs: np.ndarray
    cum: np.ndarray = field(init=False, repr=False)
    _bounds: list = field(init=False, repr=False)  # indptr as ints, for per-step slicing

    def __post_init__(self):
        self.cum = cumsum_by_row(self.probs, self.indptr)
        self._bounds = self.indptr.tolist()

    @classmethod
    def from_graph(cls, graph: AttributedGraph) -> "TransitionWeights":
        # per-row sums, so every row normalizes exactly as w / w.sum() would
        sums = [graph.neighbor_weights(v).sum() for v in range(graph.node_count)]
        totals = np.repeat(np.array(sums, dtype=np.float64), np.diff(graph.indptr))
        return cls(graph.indptr, graph.indices, graph.weights / totals)

    @classmethod
    def from_biased(cls, biased: BiasedGraph) -> "TransitionWeights":
        return cls(biased.base.indptr, biased.base.indices, biased.probs)

    @property
    def node_count(self) -> int:
        return len(self.indptr) - 1

    def row(self, v: int) -> slice:
        """Positions of node v's out-distribution in ``indices``/``probs``."""
        return slice(self._bounds[v], self._bounds[v + 1])


def transition_distribution(weights: TransitionWeights, prev, cur: int, p: float, q: float):
    """Next-step distribution from ``cur`` given the previous node.

    Returns (neighbor IDs, probabilities). ``prev=None`` marks the first
    step, where the second-order factors do not apply. Isolated ``cur``
    yields empty arrays.
    """
    row = weights.row(cur)
    nbrs = weights.indices[row]
    base = weights.probs[row]
    if len(nbrs) == 0:
        return nbrs, base
    if prev is None or (p == 1.0 and q == 1.0):
        return nbrs, base / base.sum()
    factors = np.full(len(nbrs), 1.0 / q)
    prev_nbrs = weights.indices[weights.row(prev)]
    if len(prev_nbrs):
        pos = np.minimum(np.searchsorted(prev_nbrs, nbrs), len(prev_nbrs) - 1)
        factors[prev_nbrs[pos] == nbrs] = 1.0
    factors[nbrs == prev] = 1.0 / p
    scores = base * factors
    return nbrs, scores / scores.sum()


def _single_walk(weights, root, length, p, q, rng):
    draws = rng.random(length)
    walk = [root]
    prev = None
    cur = root
    fast = p == 1.0 and q == 1.0
    for step in range(length):
        if fast or prev is None:
            row = weights.row(cur)
            nbrs, cum = weights.indices[row], weights.cum[row]
        else:
            nbrs, probs = transition_distribution(weights, prev, cur, p, q)
            cum = np.cumsum(probs)
        if len(nbrs) == 0:
            break
        idx = np.searchsorted(cum, draws[step] * cum[-1], side="right")
        nxt = int(nbrs[min(idx, len(nbrs) - 1)])
        walk.append(nxt)
        prev, cur = cur, nxt
    return walk


def generate_walks(
    weights: TransitionWeights, config: WalkConfig, source: str = "baseline"
) -> WalkCorpus:
    """Run ``walks_per_node`` rooted walks from every node.

    Each walk's randomness is seeded from (seed, root, walk index), so the
    corpus content is reproducible and independent of scheduling; root
    order is reshuffled every round, which only affects corpus ordering.
    """
    n = weights.node_count
    if n == 0:
        raise ValueError("empty graph")
    walks = []
    for k in range(config.walks_per_node):
        order = rng_for(config.seed, "order", k).permutation(n)
        for root in order:
            root = int(root)
            rng = rng_for(config.seed, "walk", root, k)
            walks.append(
                _single_walk(weights, root, config.walk_length, config.p, config.q, rng)
            )
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
