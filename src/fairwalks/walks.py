"""Second-order (p, q) random walks over normalized transition weights.

The walk source is either the plain weight-normalized graph (baseline) or
a boundary-biased graph. The return parameter p and in-out parameter q
rescale the step distribution based on the previous node: revisiting the
previous node is weighted 1/p, moving to one of its neighbors 1, and
jumping further away 1/q.
"""

from dataclasses import dataclass

import numpy as np

from fairwalks.graph import AttributedGraph, atomic_writer, draw_slots
from fairwalks.seeds import rng_for


@dataclass(frozen=True)
class WalkConfig:
    p: float = 1.0
    q: float = 1.0
    walks_per_node: int = 10
    walk_length: int = 80
    seed: int = 0

    def __post_init__(self):
        for name, value in (("p", self.p), ("q", self.q)):
            if not (np.isfinite(value) and value > 0):  # a NaN passes ``<= 0``
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (self.walks_per_node >= 1 and self.walk_length >= 1):
            raise ValueError("walks_per_node and walk_length must be >= 1, got "
                             f"{self.walks_per_node!r} and {self.walk_length!r}")


PAD = -1  # fills a corpus row past the end of its walk


@dataclass
class WalkCorpus:
    """The sentences fed to the skip-gram trainer.

    ``paths`` holds one walk per row as int64 node IDs, ``PAD`` past the
    walk's end; only a walk from an isolated root ends early. ``walks``
    gives the same walks as lists.
    """

    paths: np.ndarray

    def __len__(self):
        return len(self.paths)

    @property
    def walks(self) -> list:
        """Each walk as a list of node IDs, padding trimmed."""
        return list(_trimmed(self.paths))


def _trimmed(paths):
    """Yield the rows of ``paths`` one at a time as lists without ``PAD``."""
    for row in paths:
        walk = row.tolist()
        if walk[-1] == PAD:
            del walk[walk.index(PAD):]
        yield walk


def pad_walks(walks) -> np.ndarray:
    """Ragged walks as a corpus array, ``PAD`` past each end; empty walks are dropped."""
    walks = [walk for walk in walks if len(walk)]
    paths = np.full((len(walks), max(map(len, walks), default=0)), PAD, dtype=np.int64)
    for row, walk in zip(paths, walks):
        row[: len(walk)] = walk
    return paths


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


def transition_distribution(weights: TransitionWeights, prev, cur: int, p: float, q: float):
    """Next-step distribution from ``cur`` given the previous node.

    Returns (neighbor IDs, probabilities). ``prev=None`` marks the first
    step, where the second-order factors do not apply. Otherwise each score
    is multiplied by 1/p for the step back to ``prev``, 1 for a step to a
    neighbor of ``prev`` and 1/q for a step further away. Isolated ``cur``
    yields empty arrays.
    """
    nbrs, scores = weights.out_distribution(cur)
    if len(nbrs) == 0:
        return nbrs, scores
    if prev is not None and (p != 1.0 or q != 1.0):
        near = np.isin(nbrs, weights.out_distribution(prev)[0])
        scores = scores * np.where(nbrs == prev, 1.0 / p, np.where(near, 1.0, 1.0 / q))
    return nbrs, scores / scores.sum()


def _row_sums(weights: TransitionWeights) -> np.ndarray:
    """The first-order running sums of every node's row, laid out by
    ``graph.walk_layout``: one ``cumsum(axis=1)`` per (c, D) slab."""
    layout = weights.graph.walk_layout
    probs = weights.probs[layout.slots]
    cum = np.empty_like(probs)
    for d, count, row, _ in layout.slabs:
        block = slice(row, row + count * d)
        np.cumsum(probs[block].reshape(count, d), axis=1, out=cum[block].reshape(count, d))
    return cum


def _edge_table(weights: TransitionWeights, p: float, q: float) -> np.ndarray:
    """The (p, q) running sums of every directed edge (see ``generate_walks``),
    laid out by ``graph.walk_layout``: CSR slot e's row starts at
    ``span[e]``. Each block of the layout is three passes: the factors
    picked by the codes, times the probabilities of the block's rows,
    then summed along each row."""
    layout = weights.graph.walk_layout
    codes = layout.codes
    probs = weights.probs[layout.slots]
    factors = np.array([1.0 / q, 1.0, 1.0 / p])  # by code
    table = np.empty(layout.size)
    blocks = list(layout.blocks())
    work = np.empty(max((np.prod(shape) for *_, shape in blocks), default=0))
    for cell, row, (count, rows, d) in blocks:
        size = count * rows * d
        block = work[:size].reshape(count, rows, d)
        np.take(factors, codes[cell:cell + size].reshape(count, rows, d), out=block, mode="clip")
        block *= probs[row:row + count * d].reshape(count, 1, d)
        np.cumsum(block, axis=2, out=table[cell:cell + size].reshape(count, rows, d))
    return table


def generate_walks(weights: TransitionWeights, config: WalkConfig) -> WalkCorpus:
    """Run ``walks_per_node`` rooted walks from every node over ``weights``,
    baseline or boundary-biased.

    The corpus ``paths`` is one (walks x (walk_length + 1)) int64 array
    with the root in column 0. Rows are symmetric, so only a walk from an
    isolated root stops early: its row is the root, then ``PAD``.

    One generator, ``rng_for(seed, "walks")``, draws each round's root
    permutation (the rows hold round 0's walks in that order, then round
    1's, and so on), then at each step one uniform per walk from a
    non-isolated root, in row order; a fixed seed gives the same corpus.
    All walks advance together. First-order steps (the first, and every
    one when p = q = 1) bisect running sums taken once per call.

    Both tables follow ``graph.walk_layout``, built once per graph and
    shared by every call over it: nodes in ascending degree order, so
    the nodes of one degree D form one slab. The first-order sums are one
    (c, D) ``cumsum(axis=1)`` per slab. A later (p, q) step depends only
    on the directed edge the walker just crossed, CSR slot e from
    ``rows[e]`` to ``indices[e]``: its row, at ``span[e]`` in one float64
    table of sum_v deg(v)**2 entries, holds the running sums of the
    target's row reweighted by the (p, q) factors after ``rows[e]``. The
    layout's uint8 ``codes`` name each entry's factor; they are built once
    per graph, at its first (p, q) call. ``_edge_table`` fills the whole
    table once per call, before the first (p, q) step, slab by slab in
    three passes (factors by code, times the target rows, summed along
    each row); each such step is then one ``draw_slots`` over the table.
    The fill pays for every edge, so it saves most when walkers cross
    each edge often: live walkers x (walk_length - 1) / 2m times on
    average.
    """
    n = weights.node_count
    if n == 0:
        raise ValueError("empty graph")
    length, p, q = config.walk_length, config.p, config.q
    rng = rng_for(config.seed, "walks")
    roots = np.concatenate([rng.permutation(n) for _ in range(config.walks_per_node)])
    indptr, indices = weights.indptr, weights.indices
    paths = np.full((len(roots), length + 1), PAD, dtype=np.int64)
    paths[:, 0] = roots
    live = np.flatnonzero(np.diff(indptr)[roots] > 0)

    deg, layout = np.diff(indptr), weights.graph.walk_layout
    cum, span, cur = _row_sums(weights), None, roots[live]
    slots = indptr[cur] + draw_slots(cum, layout.row_at[cur], deg[cur], rng.random(len(live)))
    paths[live, 1] = indices[slots]
    if (p != 1.0 or q != 1.0) and length > 1:
        cum, span = _edge_table(weights, p, q), layout.span
    for step in range(1, length):
        edge, cur, u = slots, indices[slots], rng.random(len(live))
        starts = layout.row_at[cur] if span is None else span[edge]
        slots = indptr[cur] + draw_slots(cum, starts, deg[cur], u)
        paths[live, step + 1] = indices[slots]
    return WalkCorpus(paths)


CORPUS_BLOCK_ROWS = 256  # walks turned into tokens at a time by save_corpus


def save_corpus(corpus: WalkCorpus, path, original_ids):
    """One walk per line, its nodes' original IDs separated by spaces.
    Walks are looked up ``CORPUS_BLOCK_ROWS`` rows at a time in an object
    array of the IDs, whose last entry, None, is what ``PAD`` picks."""
    tokens = np.array(list(original_ids) + [None], dtype=object)
    paths = corpus.paths
    with atomic_writer(path) as f:
        for lo in range(0, len(paths), CORPUS_BLOCK_ROWS):
            for walk in tokens[paths[lo:lo + CORPUS_BLOCK_ROWS]].tolist():
                if walk[-1] is None:
                    del walk[walk.index(None):]
                f.write(" ".join(walk) + "\n")


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
