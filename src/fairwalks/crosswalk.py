"""Boundary-biased edge reweighting (CrossWalk).

Two steps. First, estimate each node's closeness to group boundaries as
the proportion of short random-walk visits that land in a foreign group.
Second, redistribute every node's outgoing transition mass: a fraction
``alpha`` goes to cross-group neighbors (split equally between the foreign
groups present), the rest stays in-group, and within each share the
individual neighbor weights are tilted toward boundary-close nodes by
raising the closeness to the power ``beta``.
"""

from dataclasses import dataclass

import numpy as np

from fairwalks.graph import AttributedGraph, GroupPartition, step_walkers
from fairwalks.seeds import rng_for

CLOSENESS_SMOOTHING = 1e-3


@dataclass
class BoundaryCloseness:
    """Per-node estimate of how often short walks cross group boundaries."""

    values: np.ndarray
    walks_per_node: int
    walk_length: int
    seed: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if np.any(self.values < 0) or np.any(self.values > 1):
            raise ValueError("closeness values must lie in [0, 1]")


@dataclass
class BiasedGraph:
    """Per-node normalized outgoing transition distributions.

    ``probs`` is aligned with ``base.indices``: each CSR row sums to 1 for
    every non-isolated node. Directed: the probability of v -> u generally
    differs from that of u -> v.
    """

    base: AttributedGraph
    probs: np.ndarray
    alpha: float
    beta: float

    def out_distribution(self, v: int):
        """(neighbor IDs, probabilities) of node v's outgoing row."""
        row = slice(self.base.indptr[v], self.base.indptr[v + 1])
        return self.base.indices[row], self.probs[row]


def estimate_closeness(
    graph: AttributedGraph,
    partition: GroupPartition,
    walks_per_node: int = 10,
    walk_length: int = 5,
    seed: int = 0,
) -> BoundaryCloseness:
    """Monte-Carlo boundary closeness over the original edge weights.

    From every node, ``walks_per_node`` first-order weighted walks of
    ``walk_length`` steps are run; the estimate is the fraction of visited
    positions (start excluded) whose group differs from the start's group.
    Deterministic for a fixed seed, independent of evaluation order.
    """
    if walks_per_node < 1 or walk_length < 1:
        raise ValueError("walks_per_node and walk_length must be >= 1")
    if graph.edge_count < 1:
        raise ValueError("graph has no edges")
    group = partition.group_of
    roots = np.flatnonzero(np.diff(graph.indptr))
    draws = np.concatenate([
        rng_for(seed, "closeness", v).random((walks_per_node, walk_length))
        for v in roots.tolist()
    ])
    cur = np.repeat(roots, walks_per_node)
    home = group[cur]
    foreign = np.zeros(len(cur), dtype=np.int64)
    for step in range(walk_length):
        cur = graph.indices[step_walkers(graph.indptr, graph.weights, cur, draws[:, step])]
        foreign += group[cur] != home
    values = np.zeros(graph.node_count, dtype=np.float64)
    values[roots] = foreign.reshape(-1, walks_per_node).sum(axis=1) / (walks_per_node * walk_length)
    return BoundaryCloseness(values, walks_per_node, walk_length, seed)


def reweight(
    graph: AttributedGraph,
    partition: GroupPartition,
    closeness: BoundaryCloseness,
    alpha: float,
    beta: float,
    smoothing: float = CLOSENESS_SMOOTHING,
) -> BiasedGraph:
    """Build boundary-biased transition distributions.

    For a node with same-group neighbors S and foreign groups c_1..c_R
    among its neighbors, mass (1 - alpha) is spread over S and alpha / R
    over each foreign group, proportional to w(v, u) * (m(u) + eps)^beta
    within each share. Nodes with no foreign neighbors keep all mass
    in-group; nodes with only foreign neighbors spread the full mass over
    the foreign groups equally.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    boost = np.power(closeness.values + smoothing, beta)
    group = partition.group_of

    probs = np.zeros(len(graph.indices), dtype=np.float64)
    for v in range(graph.node_count):
        row = slice(graph.indptr[v], graph.indptr[v + 1])
        nbrs = graph.indices[row]
        if len(nbrs) == 0:
            continue
        scores = graph.weights[row] * boost[nbrs]
        nbr_groups = group[nbrs]
        same = nbr_groups == group[v]
        foreign_groups = np.unique(nbr_groups[~same])
        r = len(foreign_groups)
        out = probs[row]
        cross_mass = alpha if same.any() else 1.0
        if same.any():
            out += _share(scores, same, 1.0 - alpha if r else 1.0)
        for g in foreign_groups:
            out += _share(scores, nbr_groups == g, cross_mass / r)
    return BiasedGraph(graph, probs, alpha, beta)


def _share(scores, mask, mass):
    """Distribute ``mass`` over the masked entries proportional to scores."""
    out = np.zeros(len(scores), dtype=np.float64)
    total = scores[mask].sum()
    if total > 0:
        out[mask] = mass * scores[mask] / total
    else:  # all-zero scores only when smoothing is disabled
        out[mask] = mass / mask.sum()
    return out


def save_biased(biased: BiasedGraph, path):
    """Directed weighted edge list ``u<TAB>v<TAB>prob`` with original IDs."""
    ids = biased.base.original_ids
    with open(path, "w") as f:
        f.write(f"# alpha={biased.alpha!r} beta={biased.beta!r}\n")
        for v in range(biased.base.node_count):
            for u, p in zip(*biased.out_distribution(v)):
                f.write(f"{ids[v]}\t{ids[u]}\t{float(p)!r}\n")


def load_biased(path, graph: AttributedGraph) -> BiasedGraph:
    """Rebind a serialized biased edge list to its base graph.

    Each line must name a distinct edge of ``graph``, and every edge needs
    a line in both directions; otherwise ValueError names the culprit.
    """
    index = {nid: i for i, nid in enumerate(graph.original_ids)}
    rows = np.repeat(np.arange(graph.node_count), np.diff(graph.indptr))
    slot_of = {pair: s for s, pair in enumerate(zip(rows.tolist(), graph.indices.tolist()))}
    prob_at = {}  # CSR slot -> probability
    alpha = beta = float("nan")
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if stripped.startswith("#"):
                for token in stripped[1:].split():
                    key, _, value = token.partition("=")
                    if key == "alpha":
                        alpha = float(value)
                    elif key == "beta":
                        beta = float(value)
                continue
            if not stripped:
                continue
            parts = stripped.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'u\\tv\\tprob'")
            try:
                pair = (index[parts[0]], index[parts[1]])
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: unknown node {exc}") from None
            slot = slot_of.get(pair)
            if slot is None or slot in prob_at:
                problem = "is not an edge of the graph" if slot is None else "is a duplicate entry"
                raise ValueError(f"{path}:{lineno}: {parts[0]} -> {parts[1]} {problem}")
            prob_at[slot] = float(parts[2])
    if len(prob_at) < len(slot_of):
        e = min(set(range(len(slot_of))) - prob_at.keys())
        ids = graph.original_ids
        raise ValueError(f"{path}: no line for edge {ids[rows[e]]} -> {ids[graph.indices[e]]}")
    probs = np.empty(len(slot_of), dtype=np.float64)
    probs[list(prob_at)] = list(prob_at.values())
    return BiasedGraph(graph, probs, alpha, beta)
