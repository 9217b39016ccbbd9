import json
import os

import numpy as np
import pytest

from fairwalks.pipeline import (
    PRESETS,
    ArtifactCache,
    ExperimentConfig,
    StageError,
    build_dataset,
    execute,
    run_experiment,
)
from fairwalks.projection import pca_2d


def sbm_config(**overrides):
    defaults = dict(
        sbm_block_sizes=[25, 25],
        sbm_p_intra=0.4,
        sbm_p_inter=0.04,
        dataset_name="test-sbm",
        sensitive_attribute="block",
        walks_per_node=4,
        walk_length=12,
        dim=12,
        epochs=2,
        folds=4,
        seed=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults).validate()


class TestExperimentConfig:
    def test_round_trips_through_json(self, tmp_path):
        config = sbm_config(intervention="crosswalk", alpha=0.5, beta=2.0)
        path = tmp_path / "config.json"
        config.save(path)
        assert ExperimentConfig.load(path) == config
        # and through a plain dict with JSON types only
        data = json.loads(json.dumps(config.to_dict()))
        assert ExperimentConfig.from_dict(data) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"alhpa": 0.5})

    def test_removed_training_mode_key_rejected(self):
        data = {**sbm_config().to_dict(), "training_mode": "exact"}
        with pytest.raises(ValueError, match="training_mode"):
            ExperimentConfig.from_dict(data)

    def test_baseline_must_not_set_alpha_beta(self):
        with pytest.raises(ValueError, match="baseline"):
            sbm_config(alpha=0.5)

    def test_crosswalk_requires_alpha_beta(self):
        with pytest.raises(ValueError, match="require"):
            sbm_config(intervention="crosswalk")

    def test_sensitive_equals_control_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            sbm_config(control_attribute="block")

    def test_exactly_one_dataset_source(self):
        with pytest.raises(ValueError, match="dataset source"):
            ExperimentConfig(sensitive_attribute="x").validate()
        with pytest.raises(ValueError, match="dataset source"):
            sbm_config(edges_path="x.edges", attrs_path="x.attrs")

    def test_presets(self):
        low = sbm_config().with_preset("low_awareness")
        assert (low.alpha, low.beta) == (0.99, 15.0)
        high = sbm_config().with_preset("high_awareness")
        assert (high.alpha, high.beta) == (0.01, 1.0)
        assert PRESETS["low_awareness"] == {"alpha": 0.99, "beta": 15.0}
        with pytest.raises(ValueError, match="unknown preset"):
            sbm_config().with_preset("medium")

    def test_run_ids(self):
        assert sbm_config().run_id() == "baseline_p1_q1"
        cw = sbm_config(intervention="crosswalk", alpha=0.25, beta=3.0, p=0.5, q=10.0)
        assert cw.run_id() == "crosswalk_a0.25_b3_p0.5_q10"


class TestBuildDataset:
    def test_sbm_source(self):
        g, summary = build_dataset(sbm_config())
        assert g.node_count <= 50
        assert summary["nodes"] == g.node_count

    def test_file_source_with_age_binning(self, tmp_path):
        edges = tmp_path / "g.edges"
        attrs = tmp_path / "g.attrs"
        edges.write_text("a b\nb c\na c\nc d\n")
        attrs.write_text(
            "node\tage\tloc\na\t17\tX\nb\t20\tX\nc\t30\tY\nd\t12\tY\n"
        )
        config = ExperimentConfig(
            edges_path=str(edges), attrs_path=str(attrs),
            sensitive_attribute="age", bin_age_column="age",
        )
        g, summary = build_dataset(config)
        assert g.node_count == 3  # d dropped for age 12
        assert sorted(set(g.attributes["age"])) == ["16-18", "19-21", "22+"]
        assert summary["age_rows_dropped"] == 1

    def test_subgraph_selection(self, tmp_path):
        edges = tmp_path / "g.edges"
        attrs = tmp_path / "g.attrs"
        edges.write_text("a b\nb c\na c\nx y\ny z\nx z\n")
        attrs.write_text(
            "node\tloc\na\tP\nb\tP\nc\tP\nx\tQ\ny\tQ\nz\tQ\n"
        )
        config = ExperimentConfig(
            edges_path=str(edges), attrs_path=str(attrs),
            sensitive_attribute="loc",
            select_attribute="loc", select_values=["P"],
        )
        g, _ = build_dataset(config)
        assert g.original_ids == ["a", "b", "c"]


class TestExecute:
    def test_baseline_two_cliques_high_awareness(self, graph_factory, tmp_path):
        # two 12-cliques, fully separable: near-perfect recovery expected
        edges = []
        for base in (0, 12):
            for i in range(12):
                for j in range(i + 1, 12):
                    edges.append((base + i, base + j))
        g = graph_factory(
            edges, attrs={"side": ["L"] * 12 + ["R"] * 12}
        )
        from fairwalks.graph import save_graph

        ep, ap = tmp_path / "c.edges", tmp_path / "c.attrs"
        save_graph(g, ep, ap)
        config = ExperimentConfig(
            edges_path=str(ep), attrs_path=str(ap), dataset_name="cliques",
            sensitive_attribute="side", walks_per_node=6, walk_length=15,
            dim=12, epochs=3, folds=5, seed=2,
        )
        report = execute(config).report
        assert report.awareness >= 0.95

    def test_low_awareness_preset_reduces_awareness(self, graph_factory, tmp_path):
        # two 12-cliques plus a dense bridge (>= 20% cross edges)
        rng = np.random.default_rng(3)
        edges = []
        for base in (0, 12):
            for i in range(12):
                for j in range(i + 1, 12):
                    edges.append((base + i, base + j))
        cross = set()
        while len(cross) < 40:
            cross.add((int(rng.integers(0, 12)), int(12 + rng.integers(0, 12))))
        edges += sorted(cross)
        g = graph_factory(edges, attrs={"side": ["L"] * 12 + ["R"] * 12})
        from fairwalks.graph import save_graph

        ep, ap = tmp_path / "b.edges", tmp_path / "b.attrs"
        save_graph(g, ep, ap)
        base_cfg = ExperimentConfig(
            edges_path=str(ep), attrs_path=str(ap), dataset_name="bridged",
            sensitive_attribute="side", walks_per_node=6, walk_length=15,
            dim=12, epochs=3, folds=5, seed=4,
        )
        baseline = execute(base_cfg).report
        lowered = execute(base_cfg.with_preset("low_awareness")).report
        assert lowered.awareness < baseline.awareness

    def test_stage_error_names_stage(self):
        config = sbm_config(sensitive_attribute="nope")
        with pytest.raises(StageError, match="partition"):
            execute(config)

    def test_cache_reuse_is_equivalent(self, tmp_path):
        cache = str(tmp_path / "cache")
        config = sbm_config(intervention="crosswalk", alpha=0.5, beta=2.0)
        r1 = execute(config, cache_dir=cache).report
        r2 = execute(config, cache_dir=cache).report  # all stages from cache
        assert r1.to_json() == r2.to_json()
        assert (
            execute(config).report.to_json() == r1.to_json()
        )  # and without any cache


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "out"
        report = run_experiment(sbm_config(), out)
        for name in ("report.json", "report_row.csv", "embeddings.txt", "pca.csv"):
            assert (out / name).exists()
        data = json.loads((out / "report.json").read_text())
        assert data["awareness"] == report.awareness
        rows = (out / "pca.csv").read_text().splitlines()
        assert rows[0] == "node_id,x,y,group"
        # header plus one row per node
        g, _ = build_dataset(sbm_config())
        assert len(rows) == 1 + g.node_count

    def test_identical_config_identical_bytes(self, tmp_path):
        config = sbm_config(seed=9)
        run_experiment(config, tmp_path / "a")
        run_experiment(config, tmp_path / "b")
        assert (tmp_path / "a/report.json").read_bytes() == (
            tmp_path / "b/report.json"
        ).read_bytes()

    def test_failure_leaves_no_artifacts(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        import fairwalks.pipeline as pl

        def boom(*args, **kwargs):
            raise RuntimeError("projection exploded")

        monkeypatch.setattr(pl.projection, "pca_2d", boom)
        with pytest.raises(StageError, match="artifacts"):
            run_experiment(sbm_config(), out)
        assert not any(out.iterdir())


class TestProjection:
    def test_pca_recovers_dominant_direction(self):
        rng = np.random.default_rng(0)
        direction = np.array([3.0, 4.0, 0.0]) / 5.0
        points = rng.normal(0, 1, (200, 1)) * direction * 10 + rng.normal(
            0, 0.1, (200, 3)
        )
        coords = pca_2d(points, seed=1)
        assert coords.shape == (200, 2)
        # first component carries almost all the variance
        assert coords[:, 0].var() > 50 * coords[:, 1].var()

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        points = rng.normal(0, 1, (50, 6))
        np.testing.assert_array_equal(pca_2d(points, seed=3), pca_2d(points, seed=3))


class TestArtifactCache:
    def test_interrupted_store_leaves_no_entry(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path / "cache")

        def broken_save(f, array, allow_pickle):
            f.write(b"\x93NUMPY partial")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "save", broken_save)
        with pytest.raises(KeyboardInterrupt):
            cache.store_array("k", "emb.npy", np.arange(10.0))
        assert not os.path.exists(cache.path("k", "emb.npy"))
        assert os.listdir(tmp_path / "cache") == []
        monkeypatch.undo()
        assert cache.load_array("k", "emb.npy") is None

    def test_store_then_load(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.store_array("k", "emb.npy", np.arange(10.0))
        np.testing.assert_array_equal(cache.load_array("k", "emb.npy"), np.arange(10.0))
        assert os.listdir(tmp_path / "cache") == ["k.emb.npy"]
