"""Attribute prediction from embeddings and the three fairness metrics.

Evaluation runs repeated stratified labeled/unlabeled splits that label
``labeled_fraction`` of the nodes (half by default). Per split, one label
propagation call predicts the sensitive attribute and (when configured) a
control attribute; scores are one-vs-rest F1 per sensitive group for the
sensitive attribute, and macro-F1 of the control prediction within each
sensitive group. The fold-averaged score vectors feed:

  awareness    max over groups (how recoverable the sensitive attribute is)
  disparity    population variance over groups (how uneven recovery is)
  performance  mean over groups of the control scores
"""

import contextlib
import json
from dataclasses import dataclass, field

import numpy as np

from fairwalks import parallel
from fairwalks.graph import GroupPartition
from fairwalks.propagation import PropagationGraph, build_propagation_graph, predict, propagate
from fairwalks.seeds import rng_for

REPORT_SCHEMA_VERSION = 1

# the fold-edges (folds x directed kNN edges) that each process of a split
# cross_validate gets at least: about 10 ms of work at 0.32 us per
# fold-edge. It was measured against a child forked per audit (about
# 3.4 ms to fork and reap): two processes were slower than one at 24-27k
# fold-edges and faster from 54k on, so the folds are split from 2**16 on.
# The reused worker's round trip is about 0.12 ms with a 6,128-edge graph,
# but the floor was not measured again: lower, it would split audits that
# were never timed with the second CPU busy
FORK_FOLD_EDGES = 1 << 15


@dataclass
class GroupScores:
    """Per-group scores in [0, 1] for one predicted attribute."""

    values: np.ndarray
    flags: list = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if np.any(self.values < 0) or np.any(self.values > 1):
            raise ValueError("scores must lie in [0, 1]")


def class_f1(table) -> np.ndarray:
    """Per-class one-vs-rest F1 from (..., truth, predicted) counts; 0 if unscored."""
    true_positive = np.diagonal(table, axis1=-2, axis2=-1)
    # truth count + predicted count = 2 TP + FP + FN
    denom = table.sum(axis=-1) + table.sum(axis=-2)
    return np.divide(2 * true_positive, denom, out=np.zeros(denom.shape), where=denom > 0)


def _fold_cells(predicted, truth, eval_set):
    """(eval set, truth, predicted) of every fold over its eval set, as (F, m)
    arrays, and whether the fold axis was added to a single fold's input."""
    predicted = np.asarray(predicted)
    eval_set = np.asarray(eval_set, dtype=np.int64)
    single = predicted.ndim == 1
    if single:
        predicted, eval_set = predicted[None], eval_set[None]
    return (eval_set, np.asarray(truth)[eval_set],
            np.take_along_axis(predicted, eval_set, axis=1), single)


def per_group_f1(
    predicted,
    truth,
    partition: GroupPartition,
    eval_set,
) -> GroupScores:
    """One-vs-rest F1 per group of the partition, over the eval set.

    ``predicted`` and ``truth`` are group indices of the SAME partition
    (the sensitive attribute predicts itself); group i is scored with
    "is in group i" as the positive class.

    With ``predicted`` of shape (F, n) and ``eval_set`` of shape (F, m),
    each of F folds is scored over its own eval set: the values are
    (F, groups) and the flags one list per fold, each bitwise what the
    fold's own call returns.
    """
    _, t, p, single = _fold_cells(predicted, truth, eval_set)
    folds, c = len(t), partition.num_groups
    cells = (np.arange(folds)[:, None] * c + t) * c + p
    table = np.bincount(cells.ravel(), minlength=folds * c * c).reshape(folds, c, c)
    absent = table.sum(axis=-2) + table.sum(axis=-1) == 0
    flags = [[f"group {label}: no positives, F1 set to 0"
              for label, none in zip(partition.group_labels, row) if none] for row in absent]
    f1 = class_f1(table)
    return GroupScores(f1[0], flags[0]) if single else GroupScores(f1, flags)


def per_group_macro_f1(
    predicted,
    truth,
    sensitive: GroupPartition,
    eval_set,
) -> GroupScores:
    """Macro-F1 of a prediction, restricted to each sensitive group.

    Within each sensitive group, the macro average runs over the classes
    that actually occur in that group's eval-set truth. A leading fold
    axis on ``predicted`` and ``eval_set`` scores each fold as
    ``per_group_f1`` does.
    """
    eval_set, t, p, single = _fold_cells(predicted, truth, eval_set)
    folds, groups = len(t), sensitive.num_groups
    c = 1 + int(max(t.max(initial=0), p.max(initial=0)))
    cells = ((np.arange(folds)[:, None] * groups + sensitive.group_of[eval_set]) * c + t) * c + p
    table = np.bincount(cells.ravel(), minlength=folds * groups * c * c)
    table = table.reshape(folds, groups, c, c)
    f1 = class_f1(table)
    present = table.sum(axis=-1) > 0
    # np.mean over each (fold, group)'s present classes, batched by their
    # count: a row of an axis-1 mean sums as the row's own mean does
    counts = present.sum(axis=-1)
    scores = np.zeros((folds, groups))
    for size in set(counts.ravel().tolist()) - {0}:
        rows = counts == size
        scores[rows] = np.mean(f1[rows][present[rows]].reshape(-1, size), axis=1)
    flags = [[f"group {label}: empty eval set"
              for label, count in zip(sensitive.group_labels, row) if not count] for row in counts]
    return GroupScores(scores[0], flags[0]) if single else GroupScores(scores, flags)


def awareness(scores) -> float:
    """Max per-group score: how well the best-recovered group is exposed."""
    return float(np.max(np.asarray(scores, dtype=np.float64)))


def disparity(scores) -> float:
    """Population variance of the per-group scores."""
    values = np.asarray(scores, dtype=np.float64)
    return float(np.mean((values - values.mean()) ** 2))


def performance(control_scores) -> float:
    """Mean per-group control-attribute score."""
    return float(np.mean(np.asarray(control_scores, dtype=np.float64)))


def check_split(folds: int, labeled_fraction: float):
    """Raise ValueError unless folds >= 1 and 0 < labeled_fraction < 1."""
    if folds < 1:
        raise ValueError(f"folds must be >= 1, got {folds}")
    if not 0 < labeled_fraction < 1:
        raise ValueError(
            f"labeled_fraction must lie strictly between 0 and 1, got {labeled_fraction}"
        )


def _split_quotas(partition: GroupPartition, labeled_fraction: float):
    """Members of every group and how many of each a split labels."""
    sizes = partition.sizes()
    for i, size in enumerate(sizes):
        if size < 2:
            raise ValueError(
                f"cannot stratify: group {partition.group_labels[i]!r} has {size} node(s)"
            )
    target = int(np.ceil(len(partition.group_of) * labeled_fraction))
    quotas = sizes * labeled_fraction
    base = np.clip(np.floor(quotas).astype(int), 1, sizes - 1)
    remainders = quotas - np.floor(quotas)
    order = np.argsort(-remainders, kind="stable")
    # largest-remainder rounding toward the exact target, bounded so every
    # group keeps one node on each side; infeasible deficits are tolerated
    deficit = target - base.sum()
    for step in range(8 * len(order)):
        if deficit == 0:
            break
        g = order[step % len(order)]
        if deficit > 0 and base[g] < sizes[g] - 1:
            base[g] += 1
            deficit -= 1
        elif deficit < 0 and base[g] > 1:
            base[g] -= 1
            deficit += 1
    members = [np.flatnonzero(partition.group_of == i) for i in range(partition.num_groups)]
    return members, base


def _labeled_mask(members, base, n: int, rng) -> np.ndarray:
    """Labeled-node mask of one split: a random ``base[i]`` members of group i."""
    mask = np.zeros(n, dtype=bool)
    for group, quota in zip(members, base):
        mask[group[rng.permutation(len(group))[:quota]]] = True
    return mask


def _fold(state, f):
    """Fold f's predicted classes per attribute, unlabeled nodes and warnings.

    ``state`` is ``(graph, truth rows, group members, quotas, seed, class
    counts, max_iters, tol)``, the graph's transition, degree and
    components already built, so a worker that is sent it builds none."""
    pg, truth, members, base, seed, n_classes, max_iters, tol = state
    n = pg.node_count
    free = ~_labeled_mask(members, base, n, rng_for(seed, "fold", f))
    # the attributes share the labeled set, so one call propagates both
    results = propagate(pg, np.where(free, -1, truth), n_classes, max_iters, tol)
    warnings = [warn for _, warn in results]
    return [predict(probs) for probs, _ in results], np.flatnonzero(free), warnings


@dataclass
class EvaluationReport:
    """Cross-validated group scores plus the three aggregate metrics."""

    sensitive_attribute: str
    control_attribute: str
    group_labels: tuple
    group_sizes: list
    folds: int
    q_folds: np.ndarray       # (folds, C) sensitive-attribute scores
    qstar_folds: np.ndarray   # (folds, C) control scores, empty when no control
    q_mean: np.ndarray
    qstar_mean: np.ndarray
    awareness: float
    disparity: float
    performance: float
    warnings: list
    config: dict

    def to_dict(self) -> dict:
        has_control = bool(self.control_attribute)
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "sensitive_attribute": self.sensitive_attribute,
            "control_attribute": self.control_attribute,
            "group_labels": list(self.group_labels),
            "group_sizes": [int(s) for s in self.group_sizes],
            "folds": self.folds,
            "q_folds": self.q_folds.tolist(),
            "qstar_folds": self.qstar_folds.tolist(),
            "q_mean": self.q_mean.tolist(),
            "qstar_mean": self.qstar_mean.tolist(),
            "awareness": self.awareness,
            "disparity": self.disparity,
            "performance": self.performance if has_control else None,
            "warnings": list(self.warnings),
            "config": self.config,
        }

    def to_json(self) -> str:
        """Canonical serialization; identical inputs give identical bytes."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def cross_validate(
    vectors,
    sensitive: GroupPartition,
    control: GroupPartition = None,
    folds: int = 25,
    labeled_fraction: float = 0.5,
    k: int = 10,
    sigma=None,
    max_iters: int = 1000,
    tol: float = 1e-6,
    seed: int = 0,
    config_echo: dict = None,
    graph_path=None,
) -> EvaluationReport:
    """Repeated stratified-split evaluation of embedding predictiveness.

    Each fold draws an independent split (seeded per fold index), clamps
    the labeled nodes and propagates; the unlabeled nodes of all folds are
    scored together at the end. Metrics are computed on the fold-averaged
    score vectors.

    The folds are independent, so from ``2 * FORK_FOLD_EDGES`` fold-edges
    (folds x directed kNN edges) on, where this process may use two CPUs,
    the even folds run here and the odd ones in this process's
    ``parallel.worker_map`` worker, forked at the first split audit and
    reused by every later one; more processes were never measured. The
    worker gets the kNN graph, its transition, degrees and components
    already built, and the fold's other inputs (``_fold``): the first split
    audit's worker inherits them at its fork, later ones are sent them.
    Each fold returns its predictions, unlabeled nodes and warnings, so the
    report is the serial loop's byte for byte. The worker runs the fold
    code as it stood when it was forked: code that patches it must do so
    before the first split audit of its process. An audit run inside a
    ``parallel.fork_map``, such as a sweep's run, stays serial.

    ``graph_path`` names a file that holds, or is to hold, the kNN graph
    of these vectors at this ``k`` and ``sigma`` (``PropagationGraph.save``):
    if it exists the graph is read from it, else it is built and written
    there through ``atomic_writer`` before any fold runs. Raises
    ValueError if the file holds a graph of other nodes, k or sigma.
    ``pipeline.execute`` passes its cache entry ``<knn key>.knn.npy`` on a
    re-audit of a cached embedding only; the knn key is ``_hash_key("knn.v1",
    <embedding key>, knn_k, sigma)``, and a change to the graph's bits
    bumps ``knn.v1``.
    """
    check_split(folds, labeled_fraction)
    vectors = np.asarray(vectors, dtype=np.float64)
    n = len(vectors)
    c_groups = sensitive.num_groups
    if n < 2 * c_groups:
        raise ValueError("need at least 2 nodes per sensitive group")

    attributes = [sensitive] if control is None else [sensitive, control]
    for attribute in attributes:
        if len(attribute.group_of) != n:
            raise ValueError(f"partition {attribute.attribute!r} has {len(attribute.group_of)} "
                             f"nodes, but there are {n} vectors")

    pg = None if graph_path is None else PropagationGraph.load(graph_path)
    if pg is None:
        pg = build_propagation_graph(vectors, k=k, sigma=sigma)
        if graph_path is not None:
            pg.save(graph_path)
    elif (pg.node_count, pg.k) != (n, min(k, n - 1)) or sigma not in (None, pg.sigma):
        raise ValueError(f"{graph_path} holds the kNN graph of {pg.node_count} nodes at "
                         f"k {pg.k}, sigma {pg.sigma:g}, not of {n} vectors at k {k}, "
                         f"sigma {sigma}")
    pg.transition, pg.degree, pg.components  # built once, before any fold runs or is sent
    n_classes = [attribute.num_groups for attribute in attributes]
    truth = np.stack([attribute.group_of for attribute in attributes])
    members, base = _split_quotas(sensitive, labeled_fraction)

    # every split labels base.sum() nodes, so the eval sets stack
    predicted = np.empty((folds, len(attributes), n), dtype=np.int64)
    unlabeled = np.empty((folds, n - base.sum()), dtype=np.int64)
    fold_warnings = []
    # one process per FORK_FOLD_EDGES of work, but two at most: more were never measured
    processes = min(2, folds * len(pg.rows) // FORK_FOLD_EDGES)
    state = (pg, truth, members, base, seed, n_classes, max_iters, tol)
    with contextlib.closing(parallel.worker_map(_fold, state, range(folds), processes)) as results:
        for f, (rows, free, warn) in enumerate(results):
            predicted[f], unlabeled[f] = rows, free
            fold_warnings.append(warn)

    q = per_group_f1(predicted[:, 0], sensitive.group_of, sensitive, unlabeled)
    if control is not None:
        qstar = per_group_macro_f1(predicted[:, 1], control.group_of, sensitive, unlabeled)
    warnings = []
    for f, warn in enumerate(fold_warnings):
        warnings.extend(f"fold {f}: {w}" for w in warn[0] + q.flags[f])
        if control is not None:
            warnings.extend(f"fold {f} (control): {w}" for w in warn[1] + qstar.flags[f])
    q_folds = q.values
    qstar_folds = qstar.values if control is not None else np.zeros((folds, 0))
    q_mean = q_folds.mean(axis=0)
    qstar_mean = qstar_folds.mean(axis=0) if control is not None else np.zeros(0)
    config = dict(config_echo or {})
    config.update(
        {
            "folds": folds,
            "labeled_fraction": labeled_fraction,
            "knn_k": k,
            "sigma": pg.sigma,
            "propagation_max_iters": max_iters,
            "propagation_tol": tol,
            "eval_seed": seed,
            "f1_scheme": "one-vs-rest on unlabeled nodes; control macro-F1 per group",
            "metric_aggregation": "metrics over fold-averaged scores",
        }
    )
    return EvaluationReport(
        sensitive_attribute=sensitive.attribute,
        control_attribute=control.attribute if control is not None else "",
        group_labels=sensitive.group_labels,
        group_sizes=[int(s) for s in sensitive.sizes()],
        folds=folds,
        q_folds=q_folds,
        qstar_folds=qstar_folds,
        q_mean=q_mean,
        qstar_mean=qstar_mean,
        awareness=awareness(q_mean),
        disparity=disparity(q_mean),
        performance=performance(qstar_mean) if control is not None else float("nan"),
        warnings=warnings,
        config=config,
    )
