"""Boundary-biased edge reweighting (CrossWalk).

Two steps. First, estimate each node's closeness to group boundaries as
the proportion of short random-walk visits that land in a foreign group.
Second, redistribute every node's outgoing transition mass: a fraction
``alpha`` goes to cross-group neighbors (split equally between the foreign
groups present), the rest stays in-group, and within each share the
individual neighbor weights are tilted toward boundary-close nodes by
raising the closeness to the power ``beta``.
"""

import itertools
from operator import itemgetter

import numpy as np

from fairwalks.graph import (
    LOAD_BLOCK_LINES, AttributedGraph, GroupPartition, atomic_writer, parse_floats, read_blocks,
)
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


def check_bias(alpha, beta):
    """Raise unless 0 < alpha < 1 and beta is finite and >= 0: a NaN
    passes ``< 0``."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
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
    check_bias(alpha, beta)
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
    """Directed weighted edge list ``u<TAB>v<TAB>prob`` with original IDs,
    joined a block of ``LOAD_BLOCK_LINES`` lines at a time."""
    g = weights.graph
    heads = [nid + "\t" for nid in g.original_ids]
    with atomic_writer(path) as f:
        f.write(f"# alpha={weights.alpha!r} beta={weights.beta!r}\n")
        for lo in range(0, len(weights.probs), LOAD_BLOCK_LINES):
            block = slice(lo, lo + LOAD_BLOCK_LINES)
            # a list's repr writes each float as repr does, and no float's repr holds ", "
            probs = repr(weights.probs[block].tolist())[1:-1].split(", ")
            lines = zip(map(heads.__getitem__, g.rows[block].tolist()),
                        map(heads.__getitem__, g.indices[block].tolist()), probs)
            f.write("\n".join(map("".join, lines)) + "\n")


def _number(path, lineno, what, text) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} {text!r} is not a number") from None


# the message of each fault code of a biased line, formatted with its fields
BIASED_FAULTS = (None, "expected 'u\\tv\\tprob'", "unknown node {0!r}", "unknown node {1!r}",
                 "{0} -> {1} is not an edge of the graph", "{0} -> {1} is a duplicate entry",
                 "probability {2!r} is not a number", "probability {2!r} is not finite >= 0")


def load_biased(path, graph: AttributedGraph) -> TransitionWeights:
    """Rebind a serialized biased edge list to its base graph.

    Each line must name a distinct edge of ``graph`` with a finite
    probability >= 0, every edge needs a line in both directions, and the
    probabilities out of every non-isolated node must sum to 1 within
    ``ROW_SUM_TOLERANCE``; otherwise ValueError names the culprit. The
    file is read in blocks of ``LOAD_BLOCK_LINES`` lines, a column at a
    time: each line's CSR slot is found by ``np.searchsorted`` on the
    ascending keys ``rows * n + indices``. The first faulty line is the
    one named; within a line the field count is checked first, then that
    ``u`` and then ``v`` are nodes, that the pair is an edge not seen
    before, and that the probability is a number and finite >= 0.
    """
    index = {nid: i for i, nid in enumerate(graph.original_ids)}
    n = graph.node_count
    keys = graph.rows * n + graph.indices  # CSR order: ascending
    probs = np.empty(len(keys), dtype=np.float64)
    seen = np.zeros(len(keys), dtype=bool)
    header = {}  # alpha and beta
    for first, lines in read_blocks(path):
        fields = [line.strip().split("\t") for line in lines]
        count = np.fromiter(map(len, fields), np.int64, len(fields))
        # the first character of a line that may be blank ("") or a header ("#")
        lead = np.full(len(lines), "x")
        odd = np.arange(len(lines)) if "#" in "".join(lines) else np.flatnonzero(count != 3)
        lead[odd] = [fields[i][0][:1] for i in odd.tolist()]
        is_data = (count == 3) & (lead != "#")
        rows = list(itertools.compress(fields, is_data.tolist()))
        u, v = (np.fromiter(map(index.get, map(itemgetter(k), rows), itertools.repeat(-1)),
                            np.int64, len(rows)) for k in (0, 1))
        key = u * n + v
        slot = np.searchsorted(keys, key)
        edge = (u >= 0) & (v >= 0) & (slot < len(keys))
        edge[edge] = keys[slot[edge]] == key[edge]
        slot[~edge] = -1
        repeat = np.ones(len(rows), dtype=bool)
        repeat[np.unique(slot, return_index=True)[1]] = False
        prob = np.full(len(rows), np.nan)
        parsed = parse_floats(list(map(itemgetter(2), rows)))
        prob[:len(parsed)] = parsed
        fault = np.where((lead != "") & (lead != "#") & (count != 3), 1, 0)
        fault[is_data] = np.select(
            [u < 0, v < 0, ~edge, repeat | seen[slot], np.arange(len(rows)) >= len(parsed),
             ~(np.isfinite(prob) & (prob >= 0))],
            [2, 3, 4, 5, 6, 7],
        )
        faulty = np.flatnonzero(fault)
        stop = int(faulty[0]) if len(faulty) else len(lines)
        for i in np.flatnonzero(lead[:stop] == "#").tolist():
            for token in lines[i].strip()[1:].split():
                name, _, value = token.partition("=")
                if name in ("alpha", "beta") and value != "None":  # None: baseline weights
                    header[name] = _number(path, first + i, name, value)
        if len(faulty):
            raise ValueError(f"{path}:{first + stop}: "
                             + BIASED_FAULTS[fault[stop]].format(*fields[stop]))
        probs[slot] = prob
        seen[slot] = True
    if not seen.all():
        e = int(np.argmin(seen))
        ids = graph.original_ids
        u, v = ids[graph.rows[e]], ids[graph.indices[e]]
        raise ValueError(f"{path}: no line for edge {u} -> {v}")
    sums = np.bincount(graph.rows, weights=probs, minlength=graph.node_count)
    bad = np.flatnonzero((np.diff(graph.indptr) > 0) & ~(np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE))
    if len(bad):
        v = bad[0]
        raise ValueError(f"{path}: probabilities out of node {graph.original_ids[v]} "
                         f"sum to {float(sums[v])!r}, not 1")
    return TransitionWeights(graph, probs, **header)
