"""Acceptance suite: one test per release criterion, printed pass/fail.

The directional checks run the full pipeline on a 3-block synthetic graph
(sizes 100/200/400) over 5 master seeds and compare fold-averaged metrics
between the named presets and the unbiased baseline.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairwalks.crosswalk import reweight
from fairwalks.embedding import sgns_pair_loss
from fairwalks.evaluation import awareness, disparity, per_group_f1, performance
from fairwalks.graph import (
    GroupPartition,
    bin_age,
    load_graph,
    partition_by,
    save_graph,
)
from fairwalks.pipeline import ExperimentConfig, execute
from fairwalks.propagation import PropagationGraph, predict, propagate
from fairwalks.sweep import SweepSpec
from fairwalks.walks import TransitionWeights, transition_distribution
from tests.conftest import make_graph

ALPHA_GRID = (0.01, 0.25, 0.5, 0.75, 0.99)
BETA_GRID = (1.0, 2.0, 3.0, 5.0, 8.0, 11.0, 15.0)
SEEDS = (1, 2, 3, 4, 5)


def check(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# --- criterion 1: correctness oracles -----------------------------------


class TestCriterion1Oracles:
    def test_1a_transition_probabilities(self):
        # path t(0)-v(1)-x(2): exact hand-enumerated result
        tw = TransitionWeights.from_graph(make_graph([(0, 1), (1, 2)]))
        _, probs = transition_distribution(tw, prev=0, cur=1, p=0.5, q=2.0)
        exact_path = np.array_equal(probs, [0.8, 0.2])

        # triangle: the third corner is adjacent to prev for any q
        tw = TransitionWeights.from_graph(make_graph([(0, 1), (1, 2), (0, 2)]))
        p = 0.25
        _, probs = transition_distribution(tw, prev=0, cur=1, p=p, q=7.0)
        expected = np.array([(1 / p) / (1 / p + 1), 1 / (1 / p + 1)])
        exact_triangle = np.array_equal(probs, expected)

        # Monte-Carlo sampling through the walk engine's categorical draw
        tw = TransitionWeights.from_graph(
            make_graph([(0, 1), (1, 2), (1, 3), (0, 2)])
        )
        nbrs, probs = transition_distribution(tw, prev=0, cur=1, p=0.5, q=2.0)
        rng = np.random.default_rng(123)
        cum = np.cumsum(probs)
        idx = np.searchsorted(cum, rng.random(100_000) * cum[-1], side="right")
        freq = np.bincount(idx.clip(0, len(nbrs) - 1), minlength=len(nbrs)) / 100_000
        tv = 0.5 * np.abs(freq - probs).sum()

        check(
            "1.1 node2vec transition oracle",
            exact_path and exact_triangle and tv <= 0.01,
            f"hand fixtures exact, Monte-Carlo TV={tv:.4f} (limit 0.01)",
        )

    def test_1b_reweight_row_stochastic_over_grid(self):
        rng = np.random.default_rng(7)
        worst_sum = 0.0
        worst_mass = 0.0
        for g_idx in range(100):
            n = int(rng.integers(6, 14))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            take = rng.random(len(pairs)) < 0.4
            edges = [p for p, t in zip(pairs, take) if t] or [(0, 1)]
            edges += [(i, (i + 1) % n) for i in range(n - 1)]  # keep it connected
            edges = sorted(set(edges))
            labels = rng.choice(["X", "Y", "Z"], size=n)
            labels[0], labels[1] = "X", "Y"  # at least two groups
            g = make_graph(edges, attrs={"loc": labels.tolist()}, n=n)
            partition = partition_by(g, "loc")
            m = rng.random(n)
            alpha = ALPHA_GRID[g_idx % len(ALPHA_GRID)]
            for beta in BETA_GRID:
                biased = reweight(g, partition, m, alpha=alpha, beta=beta)
                for v in range(n):
                    if g.degree(v) == 0:
                        continue
                    _, probs = biased.out_distribution(v)
                    worst_sum = max(worst_sum, abs(probs.sum() - 1.0))
                    groups = partition.group_of[g.neighbors(v)]
                    same = groups == partition.group_of[v]
                    if same.any() and (~same).any():
                        cross = probs[~same].sum()
                        worst_mass = max(worst_mass, abs(cross - alpha))
        check(
            "1.2 crosswalk reweighting oracle",
            worst_sum <= 1e-9 and worst_mass <= 1e-9,
            f"100 graphs x full grid: max |row sum - 1|={worst_sum:.2e}, "
            f"max |cross mass - alpha|={worst_mass:.2e} (limits 1e-9)",
        )

    def test_1c_sgns_gradients(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(4, 10))
            k = int(rng.integers(1, 5))
            center = rng.normal(0, 1.5, dim)
            context = rng.normal(0, 1.5, dim)
            negatives = rng.normal(0, 1.5, (k, dim))
            _, gc, gx, gn = sgns_pair_loss(center, context, negatives)
            flat_grads = np.concatenate([gc, gx, gn.ravel()])
            params = np.concatenate([center, context, negatives.ravel()])
            numeric = np.zeros_like(params)
            for i in range(len(params)):
                plus = params.copy()
                plus[i] += h
                minus = params.copy()
                minus[i] -= h
                numeric[i] = (
                    sgns_pair_loss(plus[:dim], plus[dim:2 * dim], plus[2 * dim:].reshape(k, dim))[0]
                    - sgns_pair_loss(minus[:dim], minus[dim:2 * dim], minus[2 * dim:].reshape(k, dim))[0]
                ) / (2 * h)
            # norm-wise relative error; per-coordinate ratios on near-zero
            # entries only measure finite-difference roundoff
            err = np.linalg.norm(numeric - flat_grads)
            worst = max(worst, float(err / max(np.linalg.norm(flat_grads), 1e-12)))
        check(
            "1.3 skip-gram gradient oracle",
            worst <= 1e-4,
            f"100 cases: max relative error vs central differences {worst:.2e} (limit 1e-4)",
        )

    def test_1d_label_propagation_harmonic(self):
        rows = np.array([0, 1, 1, 2])
        cols = np.array([1, 0, 2, 1])
        pg = PropagationGraph(3, 1, 1.0, rows, cols, np.ones(4))
        probs, _ = propagate(pg, np.array([0, -1, 1]), 2, tol=1e-9)
        err = float(np.abs(probs[1] - np.array([0.5, 0.5])).max())
        check(
            "1.4 label propagation harmonic solution",
            err <= 1e-6,
            f"3-node path midpoint = {probs[1].tolist()}, error {err:.2e} (limit 1e-6)",
        )

    def test_1e_metrics_equal_brute_force(self):
        fixed = disparity([0.2, 0.4, 0.6])
        fixed_ok = abs(fixed - 0.02666666666666667) <= 1e-12

        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(50):
            c = int(rng.integers(2, 6))
            folds = int(rng.integers(1, 6))
            n = int(rng.integers(4 * c, 60))
            partition = GroupPartition(
                "a",
                np.concatenate([np.arange(c), rng.integers(0, c, n - c)]),
                tuple(f"g{i}" for i in range(c)),
            )
            fold_scores = []
            oracle_scores = []
            for _f in range(folds):
                pred = rng.integers(0, c, n)
                truth = partition.group_of
                fold_scores.append(per_group_f1(pred, truth, partition, np.arange(n)).values)
                row = []
                for i in range(c):
                    tp = int(((truth == i) & (pred == i)).sum())
                    fp = int(((truth != i) & (pred == i)).sum())
                    fn = int(((truth == i) & (pred != i)).sum())
                    row.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
                oracle_scores.append(row)
            q = np.mean(fold_scores, axis=0)
            oracle_q = [sum(col) / folds for col in zip(*oracle_scores)]
            oracle_mean = sum(oracle_q) / c
            worst = max(
                worst,
                abs(awareness(q) - max(oracle_q)),
                abs(disparity(q) - sum((v - oracle_mean) ** 2 for v in oracle_q) / c),
                abs(performance(q) - oracle_mean),
            )
        check(
            "1.5 fairness metric oracle",
            fixed_ok and worst <= 1e-12,
            f"var([0.2,0.4,0.6])={fixed:.7f}; 50 random cases max deviation {worst:.2e}",
        )


# --- criterion 2: directional reproduction ------------------------------


def acceptance_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        sbm_block_sizes=[100, 200, 400],
        sbm_p_intra=0.1,
        sbm_p_inter=0.02,
        sbm_control_classes=3,
        sbm_control_bonus=0.05,
        dataset_name="acceptance",
        sensitive_attribute="block",
        control_attribute="control",
        walks_per_node=8,
        walk_length=30,
        dim=32,
        epochs=3,
        folds=25,
        seed=seed,
    )


@pytest.fixture(scope="module")
def directional_runs(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("acceptance-cache"))
    runs = {}
    for seed in SEEDS:
        base = acceptance_config(seed)
        runs[(seed, "baseline")] = execute(base, cache_dir=cache).report
        runs[(seed, "low")] = execute(
            base.with_preset("low_awareness"), cache_dir=cache
        ).report
        runs[(seed, "high")] = execute(
            base.with_preset("high_awareness"), cache_dir=cache
        ).report
    return runs


class TestCriterion2Directional:
    def test_2a_awareness_presets_vs_baseline(self, directional_runs):
        low_wins = sum(
            directional_runs[(s, "low")].awareness < directional_runs[(s, "baseline")].awareness
            for s in SEEDS
        )
        high_holds = sum(
            directional_runs[(s, "high")].awareness
            >= directional_runs[(s, "baseline")].awareness - 0.02
            for s in SEEDS
        )
        check(
            "2.1 awareness control",
            low_wins >= 4 and high_holds >= 4,
            f"low preset below baseline in {low_wins}/5 seeds, "
            f"high preset within 0.02 of baseline in {high_holds}/5 (need 4/5 each)",
        )

    def test_2b_low_awareness_raises_disparity(self, directional_runs):
        mean_low = float(np.mean([directional_runs[(s, "low")].disparity for s in SEEDS]))
        mean_high = float(np.mean([directional_runs[(s, "high")].disparity for s in SEEDS]))
        check(
            "2.2 disparity direction",
            mean_low >= mean_high,
            f"mean disparity low={mean_low:.5f} >= high={mean_high:.5f}",
        )

    def test_2c_small_groups_hit_harder(self, directional_runs):
        wins = 0
        for s in SEEDS:
            sizes = directional_runs[(s, "baseline")].group_sizes
            small = int(np.argmin(sizes))
            large = int(np.argmax(sizes))
            drop_small = (
                directional_runs[(s, "high")].q_mean[small]
                - directional_runs[(s, "low")].q_mean[small]
            )
            drop_large = (
                directional_runs[(s, "high")].q_mean[large]
                - directional_runs[(s, "low")].q_mean[large]
            )
            wins += drop_small >= drop_large
        check(
            "2.3 group size sensitivity",
            wins >= 4,
            f"high-to-low F1 drop larger for the smallest block in {wins}/5 seeds (need 4/5)",
        )

    def test_2d_no_preset_beats_baseline_performance(self, directional_runs):
        wins = 0
        for s in SEEDS:
            base = directional_runs[(s, "baseline")].performance
            ok = (
                directional_runs[(s, "low")].performance <= base + 0.02
                and directional_runs[(s, "high")].performance <= base + 0.02
            )
            wins += ok
        check(
            "2.4 control-attribute performance ceiling",
            wins >= 4,
            f"both presets within +0.02 of baseline performance in {wins}/5 seeds (need 4/5)",
        )


# --- criterion 3: pipeline determinism ----------------------------------


class TestCriterion3Determinism:
    def test_3_byte_identical_reports(self, tmp_path):
        config = {
            "sbm_block_sizes": [20, 20],
            "sbm_p_intra": 0.4,
            "sbm_p_inter": 0.05,
            "dataset_name": "determinism",
            "sensitive_attribute": "block",
            "walks_per_node": 3,
            "walk_length": 10,
            "dim": 8,
            "epochs": 2,
            "folds": 3,
            "seed": 42,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        # the subprocess imports the package from this checkout's src
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        for out in ("run1", "run2"):
            result = subprocess.run(
                [sys.executable, "-m", "fairwalks", "run",
                 "--config", str(config_path), "--out-dir", str(tmp_path / out)],
                capture_output=True, text=True, env=env,
            )
            assert result.returncode == 0, result.stderr
        b1 = (tmp_path / "run1/report.json").read_bytes()
        b2 = (tmp_path / "run2/report.json").read_bytes()
        check(
            "3 pipeline determinism",
            b1 == b2,
            f"two CLI runs, identical config: report bytes equal ({len(b1)} bytes)",
        )


# --- criterion 4: grid bookkeeping --------------------------------------


class TestCriterion4Grid:
    def test_4_reference_grid_enumeration(self):
        base = ExperimentConfig(
            sbm_block_sizes=[10, 10], sbm_p_intra=0.5, sbm_p_inter=0.1,
            sensitive_attribute="block",
        )
        plans = SweepSpec.reference_grid().expand(base)
        crosswalk = sum(1 for c in plans if c.intervention == "crosswalk")
        baseline = sum(1 for c in plans if c.intervention == "baseline")
        unique = len({c.run_id() for c in plans})
        check(
            "4 grid bookkeeping",
            crosswalk == 875 and baseline == 25 and unique == 900,
            f"{crosswalk} crosswalk + {baseline} baseline rows, {unique} unique run ids",
        )


# --- criterion 5: data plumbing -----------------------------------------


class TestCriterion5Plumbing:
    FIXTURES = [
        (["a b", "b c", "a c"], ["node\tloc", "a\tX", "b\tX", "c\tY"]),
        (["n1 n2 2.5", "n2 n3 0.125", "n3 n4"],
         ["node\tloc\tage", "n1\tX\t17", "n2\tX\t19", "n3\tY\t40", "n4\tY\t22"]),
        (["# comment", "u v 1.0", "v w 3.0", "u w"],
         ["node\tgrp", "u\tA", "v\tB", "w\tA"]),
    ]

    def test_5_round_trip_and_age_bins(self, tmp_path):
        all_equal = True
        for i, (edge_lines, attr_lines) in enumerate(self.FIXTURES):
            ep = tmp_path / f"f{i}.edges"
            ap = tmp_path / f"f{i}.attrs"
            ep.write_text("\n".join(edge_lines) + "\n")
            ap.write_text("\n".join(attr_lines) + "\n")
            g1 = load_graph(ep, ap)
            ep2 = tmp_path / f"f{i}.rt.edges"
            ap2 = tmp_path / f"f{i}.rt.attrs"
            save_graph(g1, ep2, ap2)
            all_equal = all_equal and (load_graph(ep2, ap2) == g1)

        bins_ok = (
            [bin_age(a) for a in (16, 17, 18)] == ["16-18"] * 3
            and [bin_age(a) for a in (19, 20, 21)] == ["19-21"] * 3
            and [bin_age(a) for a in (22, 40, 99)] == ["22+"] * 3
        )
        check(
            "5 data plumbing",
            all_equal and bins_ok,
            f"{len(self.FIXTURES)} fixture graphs round-trip losslessly; "
            "age bins are 16-18 / 19-21 / 22+ exactly",
        )
