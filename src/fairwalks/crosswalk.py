"""Boundary-biased edge reweighting (CrossWalk).

Two steps. First, estimate each node's closeness to group boundaries as
the proportion of short random-walk visits that land in a foreign group.
Second, redistribute every node's outgoing transition mass: a fraction
``alpha`` goes to cross-group neighbors (split equally between the foreign
groups present), the rest stays in-group, and within each share the
individual neighbor weights are tilted toward boundary-close nodes by
raising the closeness to the power ``beta``.
"""

import math

import numpy as np

from fairwalks.graph import AttributedGraph, GroupPartition, atomic_writer
from fairwalks.seeds import derive_seed
from fairwalks.walks import PAD, TransitionWeights, WalkConfig, generate_walks

CLOSENESS_SMOOTHING = 1e-3
ROW_SUM_TOLERANCE = 1e-9  # how far a loaded row's probabilities may sum from 1


def estimate_closeness(
    graph: AttributedGraph,
    partition: GroupPartition,
    walks_per_node: int = 10,
    walk_length: int = 5,
    seed: int = 0,
) -> np.ndarray:
    """Monte-Carlo boundary closeness over the original edge weights.

    Returns a float64 array, one value in [0, 1] per node, for
    ``reweight``. From every node, ``walks_per_node`` first-order weighted
    walks of ``walk_length`` steps are run by ``generate_walks``, seeded
    with ``derive_seed(seed, "closeness")``; the estimate is the fraction
    of visited positions (start excluded) whose group differs from the
    start's group. An isolated node scores 0.
    """
    if graph.edge_count < 1:
        raise ValueError("graph has no edges")
    config = WalkConfig(walks_per_node=walks_per_node, walk_length=walk_length,
                        seed=derive_seed(seed, "closeness"))
    paths = generate_walks(TransitionWeights.from_graph(graph), config).paths
    group = partition.group_of
    steps = paths[:, 1:]
    foreign = ((group[steps] != group[paths[:, :1]]) & (steps != PAD)).sum(axis=1)
    values = np.bincount(paths[:, 0], weights=foreign, minlength=graph.node_count)
    values /= walks_per_node * walk_length
    return values


def check_beta(beta):
    """Raise unless beta is finite and >= 0: a NaN passes ``< 0``."""
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")


def reweight(
    graph: AttributedGraph,
    partition: GroupPartition,
    closeness: np.ndarray,
    alpha: float,
    beta: float,
    smoothing: float = CLOSENESS_SMOOTHING,
) -> TransitionWeights:
    """Build boundary-biased transition distributions.

    ``closeness`` holds one value in [0, 1] per node, as
    ``estimate_closeness`` returns it; anything else raises ValueError.
    For a node with same-group neighbors S and foreign groups c_1..c_R
    among its neighbors, mass (1 - alpha) is spread over S and alpha / R
    over each foreign group, proportional to w(v, u) * (m(u) + eps)^beta
    within each share. Nodes with no foreign neighbors keep all mass
    in-group; nodes with only foreign neighbors spread the full mass over
    the foreign groups equally. Every share is one (node, neighbor group)
    segment of the CSR slots, summed by ``np.bincount``.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    check_beta(beta)
    n, c = graph.node_count, partition.num_groups
    closeness = np.asarray(closeness, dtype=np.float64)
    if closeness.shape != (n,) or not np.all((closeness >= 0) & (closeness <= 1)):
        raise ValueError(f"closeness must hold one value in [0, 1] per node ({n})")
    group = partition.group_of
    rows, nbrs = graph.rows, graph.indices
    scores = graph.weights * np.power(closeness + smoothing, beta)[nbrs]
    share = rows * c + group[nbrs]
    size = np.bincount(share, minlength=n * c)
    total = np.bincount(share, weights=scores, minlength=n * c)[share]
    seen = size.reshape(n, c) > 0
    own = seen[np.arange(n), group]  # has same-group neighbors
    foreign = seen.sum(axis=1) - own  # R, the foreign groups it sees
    in_mass = np.where(foreign > 0, 1.0 - alpha, 1.0)
    out_mass = np.where(own, alpha, 1.0) / np.maximum(foreign, 1)
    mass = np.where(group[nbrs] == group[rows], in_mass[rows], out_mass[rows])
    even = mass / size[share]  # kept where all scores are 0: only when smoothing is 0
    probs = np.divide(mass * scores, total, out=even, where=total > 0)
    return TransitionWeights(graph, probs, alpha, beta)


def save_biased(weights: TransitionWeights, path):
    """Directed weighted edge list ``u<TAB>v<TAB>prob`` with original IDs."""
    g = weights.graph
    ids = g.original_ids
    lines = zip(g.rows.tolist(), g.indices.tolist(), weights.probs.tolist())
    with atomic_writer(path) as f:
        f.write(f"# alpha={weights.alpha!r} beta={weights.beta!r}\n")
        f.writelines(f"{ids[v]}\t{ids[u]}\t{p!r}\n" for v, u, p in lines)


def _number(path, lineno, what, text) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} {text!r} is not a number") from None


def load_biased(path, graph: AttributedGraph) -> TransitionWeights:
    """Rebind a serialized biased edge list to its base graph.

    Each line must name a distinct edge of ``graph`` with a finite
    probability >= 0, every edge needs a line in both directions, and the
    probabilities out of every non-isolated node must sum to 1 within
    ``ROW_SUM_TOLERANCE``; otherwise ValueError names the culprit.
    """
    index = {nid: i for i, nid in enumerate(graph.original_ids)}
    slot_of = {pair: s for s, pair in enumerate(zip(graph.rows.tolist(), graph.indices.tolist()))}
    prob_at = {}  # CSR slot -> probability
    header = {}  # alpha and beta
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if stripped.startswith("#"):
                for token in stripped[1:].split():
                    key, _, value = token.partition("=")
                    if key in ("alpha", "beta") and value != "None":  # None: baseline weights
                        header[key] = _number(path, lineno, key, value)
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
            prob = _number(path, lineno, "probability", parts[2])
            if not (math.isfinite(prob) and prob >= 0):
                raise ValueError(f"{path}:{lineno}: probability {parts[2]!r} is not finite >= 0")
            prob_at[slot] = prob
    if len(prob_at) < len(slot_of):
        e = min(set(range(len(slot_of))) - prob_at.keys())
        ids = graph.original_ids
        u, v = ids[graph.rows[e]], ids[graph.indices[e]]
        raise ValueError(f"{path}: no line for edge {u} -> {v}")
    probs = np.empty(len(slot_of), dtype=np.float64)
    probs[list(prob_at)] = list(prob_at.values())
    sums = np.bincount(graph.rows, weights=probs, minlength=graph.node_count)
    bad = np.flatnonzero((np.diff(graph.indptr) > 0) & ~(np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE))
    if len(bad):
        v = bad[0]
        raise ValueError(f"{path}: probabilities out of node {graph.original_ids[v]} "
                         f"sum to {float(sums[v])!r}, not 1")
    return TransitionWeights(graph, probs, **header)
