import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairwalks import evaluation, parallel
from fairwalks.evaluation import (
    EvaluationReport,
    awareness,
    cross_validate,
    disparity,
    per_group_f1,
    per_group_macro_f1,
    performance,
)
from fairwalks.graph import GroupPartition, generate_sbm, partition_by
from fairwalks.propagation import build_propagation_graph, predict, propagate
from fairwalks.seeds import rng_for
from tests.conftest import assert_reaped, wait_for_exit

ROOT = Path(__file__).resolve().parents[1]


def labeled_split(partition, labeled_fraction, rng):
    """(labeled, unlabeled) node IDs of one split, drawn by the quotas and
    mask that ``cross_validate`` draws each fold's split with."""
    members, base = evaluation._split_quotas(partition, labeled_fraction)
    mask = evaluation._labeled_mask(members, base, len(partition.group_of), rng)
    return np.flatnonzero(mask), np.flatnonzero(~mask)


def partition(groups, attribute="loc", labels=None):
    groups = np.asarray(groups)
    labels = labels or tuple(f"g{i}" for i in range(groups.max() + 1))
    return GroupPartition(attribute, groups, tuple(labels))


class TestPerGroupF1:
    def test_perfect_prediction(self):
        p = partition([0, 0, 1, 1, 2, 2])
        truth = np.array([0, 0, 1, 1, 2, 2])
        scores = per_group_f1(truth, truth, p, np.arange(6))
        np.testing.assert_array_equal(scores.values, [1, 1, 1])

    def test_confusion_arithmetic(self):
        # group 0: 2 TP, 1 FN, 1 FP -> precision 2/3, recall 2/3, F1 2/3
        p = partition([0, 0, 0, 1, 1, 1])
        truth = np.array([0, 0, 0, 1, 1, 1])
        pred = np.array([0, 0, 1, 0, 1, 1])
        scores = per_group_f1(pred, truth, p, np.arange(6))
        assert scores.values[0] == pytest.approx(2 / 3)

    def test_constant_predictor(self):
        p = partition([0, 0, 0, 1, 1, 2])
        truth = np.array([0, 0, 0, 1, 1, 2])
        pred = np.zeros(6, dtype=int)
        scores = per_group_f1(pred, truth, p, np.arange(6))
        n, n_j = 6, 3
        assert scores.values[0] == pytest.approx(2 * n_j / (n + n_j))
        assert scores.values[1] == 0.0
        assert scores.values[2] == 0.0

    def test_absent_group_flagged(self):
        p = partition([0, 0, 1, 1])
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, 1])
        scores = per_group_f1(pred, truth, p, np.array([0, 1]))  # eval set misses group 1
        assert scores.values[1] == 0.0
        assert any("no positives" in f for f in scores.flags)

    def test_macro_f1_within_groups(self):
        sens = partition([0, 0, 0, 0, 1, 1, 1, 1], attribute="sens")
        truth = np.array([0, 0, 1, 1, 0, 1, 0, 1])
        pred = np.array([0, 1, 1, 0, 0, 1, 0, 1])
        scores = per_group_macro_f1(pred, truth, sens, np.arange(8))
        # group 0: class0 F1 = 0.5, class1 F1 = 0.5 -> 0.5 ; group 1 perfect -> 1.0
        assert scores.values[0] == pytest.approx(0.5)
        assert scores.values[1] == pytest.approx(1.0)


def reference_binary_f1(true_positive, false_positive, false_negative):
    denom = 2 * true_positive + false_positive + false_negative
    if denom == 0:
        return 0.0
    return 2 * true_positive / denom


def reference_one_vs_rest_f1(truth, predicted, positive):
    tp = int(np.sum((truth == positive) & (predicted == positive)))
    fp = int(np.sum((truth != positive) & (predicted == positive)))
    fn = int(np.sum((truth == positive) & (predicted != positive)))
    return reference_binary_f1(tp, fp, fn)


def reference_per_group_f1(predicted, truth, partition, eval_set):
    """Per-class loops over the eval set: scores and flags."""
    predicted, truth = predicted[eval_set], truth[eval_set]
    scores = np.zeros(partition.num_groups)
    flags = []
    for i in range(partition.num_groups):
        scores[i] = reference_one_vs_rest_f1(truth, predicted, i)
        if not np.any(truth == i) and not np.any(predicted == i):
            flags.append(f"group {partition.group_labels[i]}: no positives, F1 set to 0")
    return scores, flags


def reference_per_group_macro_f1(predicted, truth, sensitive, eval_set):
    scores = np.zeros(sensitive.num_groups)
    flags = []
    for i in range(sensitive.num_groups):
        members = eval_set[sensitive.group_of[eval_set] == i]
        if len(members) == 0:
            flags.append(f"group {sensitive.group_labels[i]}: empty eval set")
            continue
        t, p = truth[members], predicted[members]
        scores[i] = float(np.mean([reference_one_vs_rest_f1(t, p, c) for c in np.unique(t)]))
    return scores, flags


class TestConfusionTable:
    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_per_class_loops(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 90))
        groups = int(rng.integers(2, 5))
        sens = partition(np.concatenate([np.arange(groups), rng.integers(0, groups, n - groups)]))
        # small eval sets miss whole groups and classes
        eval_set = np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
        group_pred = rng.integers(0, groups, n)
        scores = per_group_f1(group_pred, sens.group_of, sens, eval_set)
        want, want_flags = reference_per_group_f1(group_pred, sens.group_of, sens, eval_set)
        assert scores.values.tobytes() == want.tobytes()
        assert scores.flags == want_flags

        classes = int(rng.integers(1, 6))
        truth, pred = rng.integers(0, classes, n), rng.integers(0, classes, n)
        macro = per_group_macro_f1(pred, truth, sens, eval_set)
        want, want_flags = reference_per_group_macro_f1(pred, truth, sens, eval_set)
        assert macro.values.tobytes() == want.tobytes()
        assert macro.flags == want_flags


class TestFoldAxis:
    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1))
    def test_stacked_folds_score_as_their_own_calls(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 60))
        groups = int(rng.integers(2, 5))
        sens = partition(np.concatenate([np.arange(groups), rng.integers(0, groups, n - groups)]))
        folds, m = int(rng.integers(1, 6)), int(rng.integers(1, n + 1))
        # small eval sets miss whole groups and classes in some folds
        eval_sets = np.stack([np.sort(rng.choice(n, m, replace=False)) for _ in range(folds)])
        group_pred = rng.integers(0, groups, (folds, n))
        # up to 12 classes: macro means over more than 8 present classes
        classes = int(rng.integers(1, 13))
        truth, pred = rng.integers(0, classes, n), rng.integers(0, classes, (folds, n))

        stacked = per_group_f1(group_pred, sens.group_of, sens, eval_sets)
        macro = per_group_macro_f1(pred, truth, sens, eval_sets)
        assert stacked.values.shape == macro.values.shape == (folds, groups)
        for f in range(folds):
            want, want_flags = reference_per_group_f1(group_pred[f], sens.group_of, sens,
                                                      eval_sets[f])
            assert stacked.values[f].tobytes() == want.tobytes()
            assert stacked.flags[f] == want_flags
            want, want_flags = reference_per_group_macro_f1(pred[f], truth, sens, eval_sets[f])
            assert macro.values[f].tobytes() == want.tobytes()
            assert macro.flags[f] == want_flags


class TestMetrics:
    def test_awareness_is_max(self):
        assert awareness([0.9, 0.5, 0.7]) == pytest.approx(0.9)

    def test_disparity_equal_scores_zero(self):
        assert disparity([0.5, 0.5, 0.5]) == 0.0

    def test_disparity_population_variance(self):
        assert disparity([0.2, 0.4, 0.6]) == pytest.approx(0.0266667, abs=1e-6)

    def test_performance_is_mean(self):
        assert performance([0.2, 0.4, 0.9]) == pytest.approx(0.5)

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=8), st.integers(0, 2**16))
    def test_permutation_invariance(self, scores, seed):
        rng = np.random.default_rng(seed)
        shuffled = rng.permutation(scores)
        assert awareness(shuffled) == pytest.approx(awareness(scores), abs=1e-12)
        assert disparity(shuffled) == pytest.approx(disparity(scores), abs=1e-12)
        assert performance(shuffled) == pytest.approx(performance(scores), abs=1e-12)

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=8))
    def test_awareness_bounds(self, scores):
        assert awareness(scores) >= performance(scores) - 1e-12
        assert performance(scores) >= min(scores) - 1e-12

    @given(st.integers(0, 2**16))
    def test_oracle_equivalence(self, seed):
        # brute-force recomputation from raw confusion counts
        rng = np.random.default_rng(seed)
        c = rng.integers(2, 6)
        n = 60
        truth = rng.integers(0, c, n)
        pred = rng.integers(0, c, n)
        p = GroupPartition("a", truth, tuple(f"g{i}" for i in range(c)))
        scores = per_group_f1(pred, truth, p, np.arange(n)).values

        expected = []
        for i in range(c):
            tp = fp = fn = 0
            for t, y in zip(truth, pred):
                if t == i and y == i:
                    tp += 1
                elif t != i and y == i:
                    fp += 1
                elif t == i and y != i:
                    fn += 1
            expected.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
        np.testing.assert_allclose(scores, expected, atol=1e-12)
        assert awareness(scores) == pytest.approx(max(expected))
        mean = sum(expected) / c
        assert disparity(scores) == pytest.approx(
            sum((e - mean) ** 2 for e in expected) / c
        )


class TestStratifiedSplit:
    def test_exact_half_and_stratified(self):
        p = partition([0] * 7 + [1] * 6 + [2] * 4)
        labeled, unlabeled = labeled_split(p, 0.5, rng_for(1, "s"))
        assert len(labeled) == int(np.ceil(17 / 2))
        assert len(labeled) + len(unlabeled) == 17
        for g in range(3):
            members = set(np.nonzero(p.group_of == g)[0])
            assert members & set(labeled.tolist())
            assert members & set(unlabeled.tolist())

    def test_tiny_group_rejected(self):
        p = partition([0, 0, 0, 1])
        with pytest.raises(ValueError, match="g1"):
            labeled_split(p, 0.5, rng_for(0, "s"))

    @given(st.integers(0, 2**16))
    @settings(max_examples=25)
    def test_split_is_partition(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(2, 9, size=rng.integers(2, 5))
        groups = np.repeat(np.arange(len(sizes)), sizes)
        p = partition(groups)
        labeled, unlabeled = labeled_split(p, 0.5, rng_for(seed, "s"))
        assert len(labeled) == int(np.ceil(len(groups) / 2))
        assert sorted(labeled.tolist() + unlabeled.tolist()) == list(range(len(groups)))


class TestCrossValidate:
    def embedding_with_groups(self, seed=0):
        # three tight clusters in 4-d, group = cluster
        rng = np.random.default_rng(seed)
        centers = np.array(
            [[5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0]], dtype=float
        )
        sizes = [10, 14, 8]
        vectors = np.concatenate(
            [c + 0.1 * rng.normal(size=(s, 4)) for c, s in zip(centers, sizes)]
        )
        groups = np.repeat(np.arange(3), sizes)
        return vectors, partition(groups, attribute="cluster")

    def test_separable_clusters_score_one(self):
        vectors, p = self.embedding_with_groups()
        report = cross_validate(vectors, p, folds=1, seed=3)
        np.testing.assert_allclose(report.q_mean, 1.0)
        assert report.awareness == 1.0
        assert report.disparity == 0.0

    def test_fold_count_and_shape(self):
        vectors, p = self.embedding_with_groups()
        report = cross_validate(vectors, p, folds=25, seed=1)
        assert report.folds == 25
        assert report.q_folds.shape == (25, 3)

    def test_deterministic_bytes(self):
        vectors, p = self.embedding_with_groups(seed=5)
        r1 = cross_validate(vectors, p, folds=5, seed=9)
        r2 = cross_validate(vectors, p, folds=5, seed=9)
        assert r1.to_json() == r2.to_json()
        r3 = cross_validate(vectors, p, folds=5, seed=10)
        assert r1.to_json() != r3.to_json()

    def test_control_attribute_scored(self):
        g, _ = generate_sbm([20, 20], 0.4, 0.05, seed=8)
        rng = np.random.default_rng(0)
        blocks = np.array([int(b[5:]) for b in g.attributes["block"]])
        vectors = np.stack([blocks * 4.0, blocks * -2.0], axis=1) + rng.normal(
            0, 0.1, (g.node_count, 2)
        )
        sens = partition_by(g, "block")
        control = GroupPartition(
            "parity", np.arange(g.node_count) % 2, ("even", "odd")
        )
        report = cross_validate(vectors, sens, control, folds=3, seed=2)
        assert report.qstar_folds.shape == (3, 2)
        assert not np.isnan(report.performance)
        # parity is pure noise in this embedding, block is exact
        assert report.awareness > 0.95

    def test_metrics_match_fold_average(self):
        vectors, p = self.embedding_with_groups(seed=11)
        report = cross_validate(vectors, p, folds=4, seed=4)
        np.testing.assert_allclose(report.q_mean, report.q_folds.mean(axis=0))
        assert report.awareness == pytest.approx(report.q_mean.max())

    def test_duplicated_points_single_fold_perfect(self):
        # each class is a pile of identical points: every unlabeled node has
        # zero-distance labeled neighbors, so one fold already scores 1
        vectors = np.concatenate([
            np.tile([0.0, 0.0], (8, 1)),
            np.tile([5.0, 5.0], (6, 1)),
        ])
        groups = np.array([0] * 8 + [1] * 6)
        p = partition(groups)
        report = cross_validate(vectors, p, folds=1, k=1, seed=0)
        np.testing.assert_allclose(report.q_mean, 1.0)

    def test_disparity_zero_only_when_equal(self):
        vectors, p = self.embedding_with_groups(seed=13)
        report = cross_validate(vectors, p, folds=2, seed=8)
        if report.disparity == 0.0:
            assert np.all(report.q_mean == report.q_mean[0])

    def test_one_propagate_call_per_fold_with_control(self, monkeypatch):
        vectors, p = self.embedding_with_groups(seed=2)
        control = partition(np.arange(len(vectors)) % 2, attribute="parity")
        calls = []
        original = evaluation.propagate

        def counted(pg, labels, n_classes, *args):
            calls.append((np.array(labels), list(n_classes)))
            return original(pg, labels, n_classes, *args)

        monkeypatch.setattr(evaluation, "propagate", counted)
        report = cross_validate(vectors, p, control, folds=3, seed=6)
        assert len(calls) == 3
        for labels, n_classes in calls:
            assert labels.shape == (2, len(vectors)) and n_classes == [3, 2]
            assert ((labels[0] >= 0) == (labels[1] >= 0)).all()
        assert report.qstar_folds.shape == (3, 3)

    def test_short_sensitive_partition_rejected(self):
        vectors, p = self.embedding_with_groups()
        short = partition(p.group_of[:-2], attribute="cluster")
        with pytest.raises(ValueError, match="'cluster' has 30 nodes, but there are 32 vectors"):
            cross_validate(vectors, short, folds=1)

    def test_long_control_partition_rejected(self):
        vectors, p = self.embedding_with_groups()
        control = partition(np.arange(40) % 2, attribute="parity")
        with pytest.raises(ValueError, match="'parity' has 40 nodes, but there are 32 vectors"):
            cross_validate(vectors, p, control, folds=1)

    @pytest.mark.parametrize("kwargs, match", [
        ({"folds": 0}, "folds must be >= 1, got 0"),
        ({"labeled_fraction": 1.5}, "labeled_fraction .* got 1.5"),
        ({"labeled_fraction": -0.2}, "labeled_fraction .* got -0.2"),
        ({"labeled_fraction": 1}, "labeled_fraction .* got 1"),
    ])
    def test_invalid_split_settings_rejected(self, kwargs, match):
        vectors, p = self.embedding_with_groups()
        with pytest.raises(ValueError, match=match):
            cross_validate(vectors, p, **kwargs)


def reference_cross_validate(vectors, sensitive, control, folds, k, seed, labeled_fraction=0.5):
    """One split, one propagate call and per-class scoring loops per fold."""
    n = len(vectors)
    pg = build_propagation_graph(vectors, k=k)
    attributes = [sensitive] if control is None else [sensitive, control]
    n_classes = [attribute.num_groups for attribute in attributes]
    q_folds = np.zeros((folds, sensitive.num_groups))
    qstar_folds = np.zeros((folds, sensitive.num_groups if control is not None else 0))
    warnings = []
    for f in range(folds):
        labeled, unlabeled = labeled_split(sensitive, labeled_fraction, rng_for(seed, "fold", f))
        seed_labels = np.full((len(attributes), n), -1, dtype=np.int64)
        for row, attribute in zip(seed_labels, attributes):
            row[labeled] = attribute.group_of[labeled]
        results = propagate(pg, seed_labels, n_classes, 1000, 1e-6)
        probs, warn = results[0]
        q_folds[f], flags = reference_per_group_f1(predict(probs), sensitive.group_of,
                                                   sensitive, unlabeled)
        warnings.extend(f"fold {f}: {w}" for w in warn + flags)
        if control is not None:
            cprobs, cwarn = results[1]
            qstar_folds[f], flags = reference_per_group_macro_f1(predict(cprobs), control.group_of,
                                                                 sensitive, unlabeled)
            warnings.extend(f"fold {f} (control): {w}" for w in cwarn + flags)
    q_mean = q_folds.mean(axis=0)
    qstar_mean = qstar_folds.mean(axis=0) if control is not None else np.zeros(0)
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
        config={
            "folds": folds,
            "labeled_fraction": labeled_fraction,
            "knn_k": k,
            "sigma": pg.sigma,
            "propagation_max_iters": 1000,
            "propagation_tol": 1e-6,
            "eval_seed": seed,
            "f1_scheme": "one-vs-rest on unlabeled nodes; control macro-F1 per group",
            "metric_aggregation": "metrics over fold-averaged scores",
        },
    )


class TestCrossValidateMatchesPerFoldLoop:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_report_bytes_equal_to_reference(self, seed, with_control):
        # a few nodes per group, k small enough to cut the kNN graph and
        # control classes of one node: folds warn of unseeded classes and
        # of nodes no seed reaches
        rng = np.random.default_rng(seed)
        groups = int(rng.integers(2, 4))
        sizes = rng.integers(2, 6, groups)
        sens = partition(np.repeat(np.arange(groups), sizes), attribute="sens")
        n = int(sizes.sum())
        vectors = rng.normal(0, 1, (n, 2))
        vectors[rng.random(n) < 0.2] = 0.0  # duplicate points
        control = None
        if with_control:
            classes = int(rng.integers(2, 5))
            ctl = np.concatenate([np.arange(classes), rng.integers(0, classes, n - classes)])
            control = partition(rng.permutation(ctl), attribute="ctl")
        folds, k = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        got = cross_validate(vectors, sens, control, folds=folds, k=k, seed=seed)
        want = reference_cross_validate(vectors, sens, control, folds, k, seed)
        assert got.to_json() == want.to_json()


class TestForkedFolds:
    """Folds split with this process's worker give the serial call's report
    bytes, and the worker lives from the first split audit to exit."""

    @staticmethod
    def case(seed, with_control):
        """Few nodes per group, duplicate points and a cut kNN graph, so
        folds warn of unseeded classes and unreachable nodes."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(3, 7, 3)
        sens = partition(np.repeat(np.arange(3), sizes), attribute="sens")
        n = int(sizes.sum())
        vectors = rng.normal(0, 1, (n, 2))
        vectors[rng.random(n) < 0.2] = 0.0
        control = None
        if with_control:
            ctl = np.concatenate([np.arange(4), rng.integers(0, 4, n - 4)])
            control = partition(rng.permutation(ctl), attribute="ctl")
        return vectors, sens, control

    @staticmethod
    def split(monkeypatch):
        """Split every audit of two folds or more over two processes."""
        monkeypatch.setattr(evaluation, "FORK_FOLD_EDGES", 1)
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)

    @pytest.mark.parametrize("with_control", [False, True], ids=["sensitive", "control"])
    @pytest.mark.parametrize("seed", [1, 4, 10])
    def test_report_bytes_equal_the_serial_call(self, monkeypatch, forked, seed, with_control):
        vectors, sens, control = self.case(seed, with_control)
        serial = cross_validate(vectors, sens, control, folds=5, k=1, seed=seed).to_json()
        assert forked == []  # under the floor
        self.split(monkeypatch)
        split = cross_validate(vectors, sens, control, folds=5, k=1, seed=seed).to_json()
        assert split == serial
        assert "unreachable from any seed" in split
        # the first split audit forks the worker, which outlives it; a second forks none
        assert forked == [parallel._worker[0]]
        assert cross_validate(vectors, sens, control, folds=5, k=1, seed=seed).to_json() == serial
        assert len(forked) == 1
        parallel.close_worker()  # as at exit
        assert_reaped(forked)

    def test_a_worker_killed_between_audits_is_replaced(self, monkeypatch, forked):
        vectors, sens, control = self.case(4, True)
        serial = cross_validate(vectors, sens, control, folds=5, k=1, seed=4).to_json()
        self.split(monkeypatch)
        assert cross_validate(vectors, sens, control, folds=5, k=1, seed=4).to_json() == serial
        os.kill(forked[0], signal.SIGKILL)
        wait_for_exit(forked[0])
        assert cross_validate(vectors, sens, control, folds=5, k=1, seed=4).to_json() == serial
        assert forked == [forked[0], parallel._worker[0]]
        assert_reaped(forked[:1])

    @staticmethod
    def in_the_worker(monkeypatch, act):
        """Patch ``propagate`` (before the worker is forked) to call act()
        in any process but this one."""
        caller, original = os.getpid(), evaluation.propagate

        def patched(*args):
            if os.getpid() != caller:
                act()
            return original(*args)

        monkeypatch.setattr(evaluation, "propagate", patched)
        return original

    def test_a_worker_killed_mid_audit_raises_runtime_error(self, monkeypatch, forked, deadline):
        vectors, sens, control = self.case(10, True)
        serial = cross_validate(vectors, sens, control, folds=5, k=1, seed=10).to_json()
        self.split(monkeypatch)
        original = self.in_the_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError) as info:
            cross_validate(vectors, sens, control, folds=5, k=1, seed=10)
        assert str(info.value) == f"worker process {forked[0]} ended before it returned item 1"
        assert parallel._worker is None
        assert_reaped(forked)
        monkeypatch.setattr(evaluation, "propagate", original)
        assert cross_validate(vectors, sens, control, folds=5, k=1, seed=10).to_json() == serial
        assert len(forked) == 2

    def test_a_fold_error_in_the_worker_keeps_its_type_and_message(self, monkeypatch, forked):
        vectors, sens, _ = self.case(1, False)
        self.split(monkeypatch)

        def fail():
            raise ValueError("fold failed in the worker")

        self.in_the_worker(monkeypatch, fail)
        with pytest.raises(ValueError) as info:
            cross_validate(vectors, sens, folds=3, k=1)
        assert type(info.value) is ValueError and str(info.value) == "fold failed in the worker"
        assert parallel._worker is None
        assert_reaped(forked)

    def test_a_fork_map_child_audits_serially_and_leaves_the_callers_worker(
            self, monkeypatch, forked):
        vectors, sens, control = self.case(10, True)
        serial = cross_validate(vectors, sens, control, folds=5, k=1, seed=10).to_json()
        self.split(monkeypatch)
        assert cross_validate(vectors, sens, control, folds=5, k=1, seed=10).to_json() == serial
        worker = forked[0]

        def audit(x):  # as a sweep's run does
            report = cross_validate(vectors, sens, control, folds=5, k=1, seed=10).to_json()
            return report, parallel._worker is None

        # the child's audit forked no worker: it has none after it
        assert list(parallel.fork_map(audit, range(2), 2)) == [(serial, False), (serial, True)]
        assert len(forked) == 2
        assert_reaped(forked[1:])
        # the caller's worker read no job but its own, so it returns no stale result
        assert cross_validate(vectors, sens, control, folds=5, k=1, seed=10).to_json() == serial
        assert parallel._worker[0] == worker and len(forked) == 2

    def test_the_worker_is_reaped_when_its_process_exits(self):
        code = textwrap.dedent("""
            import numpy as np
            from fairwalks import evaluation, parallel
            from fairwalks.graph import GroupPartition

            evaluation.FORK_FOLD_EDGES = 1
            parallel.available_cpus = lambda: 2
            rng = np.random.default_rng(0)
            sens = GroupPartition("sens", np.repeat(np.arange(3), 6), ("a", "b", "c"))
            for seed in (1, 2):
                evaluation.cross_validate(rng.normal(0, 1, (18, 2)), sens, folds=4, k=2,
                                          seed=seed)
            print(parallel._worker[0])
        """)
        src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.returncode == 0, done.stderr
        pid = int(done.stdout)
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_one_fold_is_not_split(self, monkeypatch, forked):
        vectors, sens, _ = self.case(1, False)
        self.split(monkeypatch)
        cross_validate(vectors, sens, folds=1, k=1)
        assert forked == []
