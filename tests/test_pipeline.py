import csv
import dataclasses
import json
import os

import numpy as np
import pytest

import fairwalks.pipeline as pl
from fairwalks import crosswalk, embedding, evaluation, propagation, walks
from fairwalks.pipeline import (
    PRESETS,
    ArtifactCache,
    ExperimentConfig,
    StageError,
    build_dataset,
    execute,
    run_experiment,
)
from fairwalks.graph import save_graph
from fairwalks.projection import pca_2d, write_projection_csv
from fairwalks.seeds import derive_seed
from fairwalks.sweep import SweepSpec, run_sweep


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

    @pytest.mark.parametrize("key, value", [
        ("walks_per_node", "2"), ("dim", 4.5), ("epochs", True), ("seed", None),
        ("learning_rate", "0.1"), ("sensitive_attribute", 3), ("select_values", "abc"),
        ("sbm_block_sizes", [25, "25"]), ("sbm_control_probs", 0.5), ("sigma", [1.0]),
    ])
    def test_a_value_of_the_wrong_type_is_refused(self, key, value):
        data = {**sbm_config().to_dict(), key: value}
        with pytest.raises(ValueError, match=f"config key '{key}' must be of type"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("data", [[], "config", 3, None])
    def test_a_top_level_that_is_not_an_object_is_refused(self, data):
        with pytest.raises(ValueError, match="config must be a JSON object"):
            ExperimentConfig.from_dict(data)

    def test_numpy_numbers_and_ints_for_floats_are_accepted(self):
        sbm_config(intervention="crosswalk", alpha=0.5, beta=2, p=1, q=np.int64(2),
                   sbm_p_inter=np.float32(0.04))
        mixed = sbm_config(walks_per_node=np.int64(4), p=np.float64(1.0),
                           sbm_block_sizes=[np.int32(25), 25])
        assert json.dumps(mixed.to_dict()) == json.dumps(sbm_config().to_dict())
        assert mixed.config_hash() == sbm_config().config_hash()

    def test_to_dict_equals_asdict_and_copies_the_lists(self):
        config = sbm_config(sbm_control_classes=2, sbm_control_probs=[0.3, 0.7],
                            select_attribute="block", select_values=["0", "1"])
        data = config.to_dict()
        assert data == dataclasses.asdict(config)
        assert list(data) == [f.name for f in dataclasses.fields(config)]
        for name in ("sbm_block_sizes", "sbm_control_probs", "select_values"):
            data[name].append(0)
        assert config.to_dict() == dataclasses.asdict(config) != data

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

    @pytest.mark.parametrize("overrides, match", [
        ({"folds": 0}, "folds must be >= 1, got 0"),
        ({"folds": -3}, "folds must be >= 1, got -3"),
        ({"labeled_fraction": 1.5}, "labeled_fraction .* got 1.5"),
        ({"labeled_fraction": -0.2}, "labeled_fraction .* got -0.2"),
        ({"labeled_fraction": 0.0}, "labeled_fraction .* got 0.0"),
        ({"labeled_fraction": 1.0}, "labeled_fraction .* got 1.0"),
    ])
    def test_evaluation_split_rejected_before_training(self, monkeypatch, overrides, match):
        with pytest.raises(ValueError, match=match):
            sbm_config(**overrides)
        config = sbm_config().replace(**overrides)
        monkeypatch.setattr(pl.embedding, "train", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(ValueError, match=match):
            execute(config)

    @pytest.mark.parametrize("overrides, match", [
        ({"walks_per_node": 0}, r"walks_per_node and walk_length must be >= 1, got 0 and 12"),
        ({"walk_length": -1}, r"walks_per_node and walk_length must be >= 1, got 4 and -1"),
        ({"closeness_walks": 0}, r"closeness budget: .* got 0 and 5"),
        ({"closeness_length": 0}, r"closeness budget: .* got 10 and 0"),
        ({"dim": 1}, "dim must be >= 2, got 1"),
        ({"knn_k": 0}, "k must be >= 1, got 0"),
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"epochs": -1}, "epochs must be >= 1, got -1"),
        ({"negatives": -1}, "negatives must be >= 0, got -1"),
        ({"learning_rate": 0.0}, "learning_rate must be finite and > 0, got 0.0"),
        ({"learning_rate": -0.01}, "learning_rate must be finite and > 0, got -0.01"),
        ({"learning_rate": float("nan")}, "learning_rate must be finite and > 0, got nan"),
        ({"learning_rate": float("inf")}, "learning_rate must be finite and > 0, got inf"),
    ])
    def test_walk_and_training_budgets_rejected_before_any_stage(
        self, monkeypatch, overrides, match
    ):
        with pytest.raises(ValueError, match=match):
            sbm_config(**overrides)
        config = sbm_config().replace(**overrides)
        monkeypatch.setattr(pl, "build_dataset", lambda *a: pytest.fail("ran a stage"))
        with pytest.raises(ValueError, match=match):
            execute(config)

    @pytest.mark.parametrize("overrides, match", [
        ({"p": float("nan")}, "p must be finite and positive, got nan"),
        ({"q": float("inf")}, "q must be finite and positive, got inf"),
        ({"q": 0.0}, "q must be finite and positive, got 0.0"),
        ({"intervention": "crosswalk", "alpha": 0.5, "beta": float("nan")},
         "beta must be finite and >= 0, got nan"),
        ({"intervention": "crosswalk", "alpha": 0.5, "beta": -1.0},
         "beta must be finite and >= 0, got -1.0"),
        ({"sigma": float("nan")}, "sigma must be finite and positive, got nan"),
        ({"sigma": 0.0}, "sigma must be finite and positive, got 0.0"),
        ({"window": 0}, "window must be >= 1, got 0"),
    ])
    def test_silent_garbage_settings_rejected(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            sbm_config(**overrides)

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
        g = build_dataset(sbm_config())
        assert g.node_count <= 50

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
        g = build_dataset(config)
        assert g.node_count == 3  # d dropped for age 12
        assert sorted(set(g.attributes["age"])) == ["16-18", "19-21", "22+"]

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
        g = build_dataset(config)
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

    @pytest.mark.parametrize(
        "module, name, stage",
        [
            (pl, "build_dataset", "dataset"),
            (crosswalk, "estimate_closeness", "bias"),
            (crosswalk, "reweight", "bias"),
            (walks, "generate_walks", "walks"),
            (embedding, "train", "embed"),
            (evaluation, "cross_validate", "evaluate"),
        ],
    )
    def test_failure_names_its_own_stage(self, monkeypatch, module, name, stage):
        cause = RuntimeError(f"{name} exploded")

        def boom(*args, **kwargs):
            raise cause

        monkeypatch.setattr(module, name, boom)
        with pytest.raises(StageError) as info:
            execute(sbm_config(intervention="crosswalk", alpha=0.5, beta=2.0))
        assert info.value.stage == stage
        assert info.value.cause is cause

    def test_execute_and_train_never_read_the_walks_property(self, monkeypatch):
        # no cache: every stage runs, training included
        monkeypatch.setattr(walks.WalkCorpus, "walks", property(lambda self: pytest.fail("read")))
        report = execute(sbm_config(intervention="crosswalk", alpha=0.5, beta=2.0)).report
        assert np.isfinite(report.awareness)

    def test_execute_keeps_only_the_input_side(self, tmp_path):
        # cold and warm runs alike: a plain (n, dim) array, no context side
        cache = str(tmp_path / "cache")
        for _ in range(2):
            vectors = execute(sbm_config(), cache_dir=cache).vectors
            assert isinstance(vectors, np.ndarray)
            assert vectors.shape == (50, 12)

    def test_warm_run_reads_only_the_embedding(self, tmp_path, monkeypatch):
        loads = []
        calls = {"generate_walks": 0, "train": 0}
        original_load = ArtifactCache.load_array

        def counted_load(self, key, suffix):
            loads.append(suffix)
            return original_load(self, key, suffix)

        monkeypatch.setattr(ArtifactCache, "load_array", counted_load)
        for module, name in ((walks, "generate_walks"), (embedding, "train")):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        cache = tmp_path / "cache"
        config = sbm_config(intervention="crosswalk", alpha=0.5, beta=2.0)
        cold = execute(config, cache_dir=str(cache))
        assert calls == {"generate_walks": 1, "train": 1}
        loads.clear()
        warm = execute(config, cache_dir=str(cache))
        assert loads == ["emb.npy"]
        assert calls == {"generate_walks": 1, "train": 1}
        assert warm.vectors.tobytes() == cold.vectors.tobytes()
        assert warm.report.to_json() == cold.report.to_json()
        assert not list(cache.glob("*.corpus.npy"))

    def test_cache_reuse_is_equivalent(self, tmp_path):
        cache = str(tmp_path / "cache")
        config = sbm_config(intervention="crosswalk", alpha=0.5, beta=2.0)
        r1 = execute(config, cache_dir=cache).report
        r2 = execute(config, cache_dir=cache).report  # all stages from cache
        assert r1.to_json() == r2.to_json()
        assert (
            execute(config).report.to_json() == r1.to_json()
        )  # and without any cache

    def test_cached_corpus_skips_bias_work(self, tmp_path, monkeypatch):
        import fairwalks.pipeline as pl

        calls = {"estimate_closeness": 0, "reweight": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(pl.crosswalk, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(pl.crosswalk, name, counted)
        cache = str(tmp_path / "cache")
        config = sbm_config(intervention="crosswalk", alpha=0.5, beta=2.0)
        cold = execute(config, cache_dir=cache).report
        assert calls == {"estimate_closeness": 1, "reweight": 1}
        warm = execute(config, cache_dir=cache).report
        assert calls == {"estimate_closeness": 1, "reweight": 1}
        assert warm.to_json() == cold.to_json()
        # a new alpha needs new weights; closeness is estimated again, never cached
        execute(config.replace(alpha=0.25), cache_dir=cache)
        assert calls == {"estimate_closeness": 2, "reweight": 2}
        assert not list((tmp_path / "cache").glob("*.closeness.npy"))


    @pytest.mark.parametrize("intervention", ["baseline", "crosswalk"])
    def test_entries_of_the_per_walk_seeding_scheme_are_not_served(
        self, tmp_path, monkeypatch, intervention
    ):
        # the keys as computed while closeness and walks seeded one generator per walk
        config = sbm_config()
        if intervention == "crosswalk":
            config = config.replace(intervention="crosswalk", alpha=0.5, beta=2.0)
        g = build_dataset(config)
        c, gkey, seed = config, pl._graph_key(g), lambda tag: derive_seed(config.seed, tag)
        ckey = pl._hash_key("closeness", gkey, c.sensitive_attribute, c.closeness_walks,
                            c.closeness_length, seed("closeness"))
        bias = (pl._hash_key(ckey, c.alpha, c.beta, crosswalk.CLOSENESS_SMOOTHING)
                if intervention == "crosswalk" else "baseline")
        wkey = pl._hash_key("corpus", gkey, bias, c.p, c.q, c.walks_per_node, c.walk_length,
                            seed("walks"))
        ekey = pl._hash_key("embed", wkey, c.dim, c.window, c.negatives, c.epochs,
                            c.learning_rate, seed("embed"))
        cache = ArtifactCache(tmp_path)
        sentinel = np.full((g.node_count, config.dim), 0.25)
        cache.store_array(ekey, "emb.npy", sentinel)
        estimated = []
        original = crosswalk.estimate_closeness
        monkeypatch.setattr(crosswalk, "estimate_closeness",
                            lambda *a: estimated.append(1) or original(*a))
        vectors = execute(config, cache_dir=tmp_path).vectors
        assert not np.array_equal(vectors, sentinel)
        assert len(estimated) == (intervention == "crosswalk")

    def test_entries_of_the_per_pair_negatives_scheme_are_not_served(self, tmp_path):
        # the key as computed while every pair drew its own k negatives
        config = sbm_config()
        g = build_dataset(config)
        c, gkey, seed = config, pl._graph_key(g), lambda tag: derive_seed(config.seed, tag)
        wkey = pl._hash_key("corpus.v2", gkey, "baseline", c.p, c.q, c.walks_per_node,
                            c.walk_length, seed("walks"))
        ekey = pl._hash_key("embed", wkey, c.dim, c.window, c.negatives, c.epochs,
                            c.learning_rate, seed("embed"))
        sentinel = np.full((g.node_count, config.dim), 0.25)
        ArtifactCache(tmp_path).store_array(ekey, "emb.npy", sentinel)
        vectors = execute(config, cache_dir=tmp_path).vectors
        assert not np.array_equal(vectors, sentinel)
        assert len(list(tmp_path.glob("*.emb.npy"))) == 2

    def test_entries_of_the_logaddexp_softplus_scheme_are_not_served(self, tmp_path):
        # the key as computed while the batch softplus came from np.logaddexp
        config = sbm_config()
        g = build_dataset(config)
        c, gkey, seed = config, pl._graph_key(g), lambda tag: derive_seed(config.seed, tag)
        wkey = pl._hash_key("corpus.v2", gkey, "baseline", c.p, c.q, c.walks_per_node,
                            c.walk_length, seed("walks"))
        ekey = pl._hash_key("embed.v2", wkey, c.dim, c.window, c.negatives, c.epochs,
                            c.learning_rate, seed("embed"))
        sentinel = np.full((g.node_count, config.dim), 0.25)
        ArtifactCache(tmp_path).store_array(ekey, "emb.npy", sentinel)
        vectors = execute(config, cache_dir=tmp_path).vectors
        assert not np.array_equal(vectors, sentinel)
        assert len(list(tmp_path.glob("*.emb.npy"))) == 2

    def test_entries_of_the_fixed_window_scheme_are_not_served(self, tmp_path):
        # the key as computed while training took every pair of a fixed window
        config = sbm_config()
        g = build_dataset(config)
        key = pl._hash_key("embed.v3", pl._graph_key(g),
                           config.replace(**dict.fromkeys(pl.EVALUATION_FIELDS)).config_hash())
        sentinel = np.full((g.node_count, config.dim), 0.25)
        ArtifactCache(tmp_path).store_array(key, "emb.npy", sentinel)
        vectors = execute(config, cache_dir=tmp_path).vectors
        assert not np.array_equal(vectors, sentinel)
        assert len(list(tmp_path.glob("*.emb.npy"))) == 2


# one changed value per field an SBM config trains from; leaving crosswalk
# clears alpha and beta with the intervention
TRAINING_CHANGES = {
    "sbm_block_sizes": {"sbm_block_sizes": [25, 26]},
    "sbm_p_intra": {"sbm_p_intra": 0.5},
    "sbm_p_inter": {"sbm_p_inter": 0.05},
    "sbm_control_classes": {"sbm_control_classes": 3},
    "sbm_control_probs": {"sbm_control_probs": [0.3, 0.7]},
    "sbm_control_bonus": {"sbm_control_bonus": 0.1},
    "sensitive_attribute": {"sensitive_attribute": "control"},
    "intervention": {"intervention": "baseline", "alpha": None, "beta": None},
    "alpha": {"alpha": 0.25},
    "beta": {"beta": 3.0},
    "closeness_walks": {"closeness_walks": 5},
    "closeness_length": {"closeness_length": 3},
    "p": {"p": 0.5},
    "q": {"q": 2.0},
    "walks_per_node": {"walks_per_node": 3},
    "walk_length": {"walk_length": 10},
    "dim": {"dim": 8},
    "window": {"window": 3},
    "negatives": {"negatives": 3},
    "epochs": {"epochs": 1},
    "learning_rate": {"learning_rate": 0.02},
    "seed": {"seed": 6},
}
FILE_FIELDS = ("edges_path", "attrs_path", "select_attribute", "select_values", "bin_age_column")
EVALUATION_CHANGES = {
    "dataset_name": "other",
    "control_attribute": "control",  # the name the SBM gives it anyway
    "knn_k": 5,
    "sigma": 1.0,
    "folds": 3,
    "labeled_fraction": 0.4,
}


class TestEmbeddingKey:
    """The cached embedding is keyed by the graph and every config field
    outside ``EVALUATION_FIELDS``."""

    BASE = dict(sbm_control_classes=2, intervention="crosswalk", alpha=0.5, beta=2.0)

    @pytest.fixture(scope="class")
    def warm_cache(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("cache")
        return cache, execute(sbm_config(**self.BASE), cache_dir=cache).vectors

    @pytest.fixture
    def trains(self, monkeypatch):
        calls = []
        original = embedding.train
        monkeypatch.setattr(embedding, "train", lambda *a, **k: calls.append(1) or original(*a, **k))
        return calls

    def test_evaluation_fields_are_config_fields(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(pl.EVALUATION_FIELDS) == set(EVALUATION_CHANGES) <= names
        # every other field an SBM config uses is covered below
        assert set(TRAINING_CHANGES) == names - set(FILE_FIELDS) - set(pl.EVALUATION_FIELDS)

    @pytest.mark.parametrize("field", sorted(TRAINING_CHANGES))
    def test_a_changed_training_field_trains_again(self, warm_cache, trains, field):
        cache, _ = warm_cache
        execute(sbm_config(**{**self.BASE, **TRAINING_CHANGES[field]}), cache_dir=cache)
        assert trains == [1]

    @pytest.mark.parametrize("field", sorted(EVALUATION_CHANGES))
    def test_a_changed_evaluation_field_reads_the_cache(self, warm_cache, trains, field):
        cache, cold = warm_cache
        config = sbm_config(**self.BASE, **{field: EVALUATION_CHANGES[field]})
        assert execute(config, cache_dir=cache).vectors.tobytes() == cold.tobytes()
        assert trains == []


class TestSharedDataset:
    """``execute`` takes a ``Dataset`` only for a config that differs from the
    one it was built from in nothing but ``SWEPT_FIELDS``."""

    BASE = TestEmbeddingKey.BASE
    # one changed value per field outside SWEPT_FIELDS
    UNSWEPT_CHANGES = {
        **{name: change for name, change in TRAINING_CHANGES.items()
           if name not in pl.SWEPT_FIELDS},
        **{name: {name: value} for name, value in EVALUATION_CHANGES.items()},
        **{name: {name: value} for name, value in zip(
            FILE_FIELDS, ("g.edges", "g.attrs", "block", ["block0"], "age"))},
    }

    @pytest.fixture(scope="class")
    def shared(self):
        config = sbm_config(**self.BASE)
        return config, pl.prepare_dataset(config)

    @pytest.fixture
    def estimates(self, monkeypatch):
        calls = []
        original = crosswalk.estimate_closeness
        monkeypatch.setattr(crosswalk, "estimate_closeness",
                            lambda *a: calls.append(1) or original(*a))
        return calls

    def test_changes_cover_every_field(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(self.UNSWEPT_CHANGES) == names - set(pl.SWEPT_FIELDS)

    @pytest.mark.parametrize("field", sorted(UNSWEPT_CHANGES))
    def test_a_changed_unswept_field_is_refused(self, shared, field):
        config, dataset = shared
        with pytest.raises(ValueError, match=f"built for other {field}$"):
            dataset.check(config.replace(**self.UNSWEPT_CHANGES[field]))

    def test_execute_refuses_a_dataset_built_for_another_dim(self, shared):
        config, dataset = shared
        with pytest.raises(ValueError, match="built for other dim"):
            execute(config.replace(dim=8), dataset=dataset)

    @pytest.mark.parametrize("field", pl.SWEPT_FIELDS)
    def test_a_shared_run_equals_its_own(self, shared, field):
        config, dataset = shared
        run = config.replace(**TRAINING_CHANGES[field])
        assert execute(run, dataset=dataset).report.to_json() == execute(run).report.to_json()

    def test_closeness_is_estimated_once_for_crosswalk_runs_only(self, estimates):
        config = sbm_config(**self.BASE)
        dataset = pl.prepare_dataset(config)
        execute(config.replace(intervention="baseline", alpha=None, beta=None), dataset=dataset)
        assert estimates == []
        for alpha in (0.25, 0.5):
            execute(config.replace(alpha=alpha), dataset=dataset)
        assert estimates == [1]

    def test_closeness_is_read_only(self, shared):
        _, dataset = shared
        with pytest.raises(ValueError, match="read-only"):
            dataset.closeness[0] = 1.0


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
        g = build_dataset(sbm_config())
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

    def test_failure_with_a_cache_leaves_no_artifacts(self, tmp_path, monkeypatch):
        # a cold cache: the embedding's text entry is rendered, the projection fails
        out, cache = tmp_path / "out", tmp_path / "cache"

        def boom(*args, **kwargs):
            raise RuntimeError("projection exploded")

        monkeypatch.setattr(pl.projection, "pca_2d", boom)
        with pytest.raises(StageError, match="artifacts"):
            run_experiment(sbm_config(), out, cache_dir=cache)
        assert not any(out.iterdir())
        assert not list(cache.glob("*.pca.v1.csv")) and not list(cache.glob("*.tmp"))


class TestKnnEntry:
    """A re-audit of a cached embedding reads its kNN graph from the entry
    ``<knn key>.knn.npy``, or builds the graph and writes the entry."""

    CONFIG = dict(sbm_control_classes=2, intervention="crosswalk", alpha=0.5, beta=2.0)

    @pytest.fixture
    def cold(self, tmp_path):
        cache = tmp_path / "cache"
        return cache, execute(sbm_config(**self.CONFIG), cache_dir=cache).report.to_json()

    @staticmethod
    def forbid_builds(monkeypatch):
        monkeypatch.setattr(evaluation, "build_propagation_graph",
                            lambda *a, **k: pytest.fail("built a kNN graph"))

    @staticmethod
    def entries(cache):
        return sorted(p.name for p in cache.glob("*.knn.npy"))

    def reaudit(self, cache, **changes):
        return execute(sbm_config(**self.CONFIG, **changes), cache_dir=cache).report.to_json()

    def test_cold_runs_and_sweeps_leave_no_entry(self, cold, tmp_path):
        cache, _ = cold
        assert self.entries(cache) == []
        _, plans, _ = run_sweep(SweepSpec(alphas=[0.5], betas=[2.0]), sbm_config(),
                                tmp_path / "sweep")
        assert len(list((tmp_path / "sweep/cache").glob("*.emb.npy"))) == len(plans) == 2
        assert self.entries(tmp_path / "sweep/cache") == []

    def test_the_first_reaudit_writes_it_and_later_ones_read_it(self, tmp_path, monkeypatch):
        cache, config = tmp_path / "cache", sbm_config(**self.CONFIG)

        def report_json(name, cache_dir=cache):
            run_experiment(config, tmp_path / name, cache_dir=cache_dir)
            return (tmp_path / name / "report.json").read_bytes()

        plain = report_json("plain", cache_dir=None)
        assert report_json("cold") == plain and self.entries(cache) == []
        assert report_json("first") == plain
        (entry,) = self.entries(cache)
        self.forbid_builds(monkeypatch)
        assert report_json("later") == report_json("latest") == plain
        assert self.entries(cache) == [entry]

    @pytest.mark.parametrize("field", sorted(set(EVALUATION_CHANGES) - {"knn_k", "sigma"}))
    def test_a_changed_audit_field_reads_the_entry(self, cold, field, monkeypatch):
        cache, _ = cold
        self.reaudit(cache)
        entries = self.entries(cache)
        fresh = execute(sbm_config(**self.CONFIG, **{field: EVALUATION_CHANGES[field]}))
        self.forbid_builds(monkeypatch)
        assert self.reaudit(cache, **{field: EVALUATION_CHANGES[field]}) == fresh.report.to_json()
        assert self.entries(cache) == entries

    @pytest.mark.parametrize("field", ["knn_k", "sigma"])
    def test_a_changed_knn_field_writes_a_second_entry(self, cold, field, monkeypatch):
        cache, _ = cold
        self.reaudit(cache)
        builds = []
        original = evaluation.build_propagation_graph
        monkeypatch.setattr(evaluation, "build_propagation_graph",
                            lambda *a, **k: builds.append(1) or original(*a, **k))
        change = {field: EVALUATION_CHANGES[field]}
        fresh = execute(sbm_config(**self.CONFIG, **change)).report.to_json()
        builds.clear()
        assert self.reaudit(cache, **change) == fresh
        assert builds == [1] and len(self.entries(cache)) == 2

    def test_an_entry_of_other_nodes_is_refused(self, cold):
        cache, _ = cold
        self.reaudit(cache)
        (entry,) = self.entries(cache)
        other = np.random.default_rng(0).normal(size=(49, 12))
        propagation.build_propagation_graph(other).save(cache / entry)
        with pytest.raises(StageError, match="49 nodes") as failure:
            self.reaudit(cache)
        assert failure.value.stage == "evaluate"

    def test_an_interrupted_store_leaves_no_entry(self, cold, monkeypatch):
        cache, cold_json = cold

        def broken_save(f, array, allow_pickle):
            f.write(b"\x93NUMPY partial")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "save", broken_save)
        with pytest.raises(KeyboardInterrupt):
            self.reaudit(cache)
        assert self.entries(cache) == [] and not list(cache.glob("*.tmp"))
        monkeypatch.undo()
        assert self.reaudit(cache) == cold_json
        assert len(self.entries(cache)) == 1


ARTIFACTS = ("report.json", "report_row.csv", "embeddings.txt", "pca.csv")


def artifact_bytes(out):
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


def entry_bytes(cache):
    """(suffix, bytes) of every text entry in ``cache``, sorted."""
    return sorted((p.name.split(".", 1)[1], p.read_bytes())
                  for p in cache.iterdir() if p.suffix != ".npy")


def cold_entries(artifacts):
    """The entries a run with these artifacts should leave in its cache."""
    return [("emb.v1.txt", artifacts["embeddings.txt"]), ("pca.v1.csv", artifacts["pca.csv"])]


@pytest.fixture
def formats_nothing(monkeypatch):
    """Fail any call that formats embeddings.txt or pca.csv."""
    for owner, name in ((embedding, "save_embeddings"), (pl.projection, "pca_2d"),
                        (pl.projection, "write_projection_csv")):
        monkeypatch.setattr(owner, name, lambda *a, _name=name, **k: pytest.fail(_name))


class TestTextEntries:
    """``run_experiment`` caches embeddings.txt and pca.csv under the
    embedding's key and copies them on a warm run."""

    CONFIG = dict(sbm_control_classes=2, intervention="crosswalk", alpha=0.5, beta=2.0)

    @pytest.fixture
    def cold(self, tmp_path):
        cache, out = tmp_path / "cache", tmp_path / "cold"
        run_experiment(sbm_config(**self.CONFIG), out, cache_dir=cache)
        return cache, artifact_bytes(out)

    def test_cold_run_stores_both_entries_with_the_uncached_bytes(self, cold, tmp_path):
        cache, cold_bytes = cold
        assert entry_bytes(cache) == cold_entries(cold_bytes)
        run_experiment(sbm_config(**self.CONFIG), tmp_path / "plain")
        assert artifact_bytes(tmp_path / "plain") == cold_bytes

    def test_warm_run_copies_the_cold_bytes(self, cold, tmp_path, formats_nothing):
        cache, cold_bytes = cold
        run_experiment(sbm_config(**self.CONFIG), tmp_path / "warm", cache_dir=cache)
        assert artifact_bytes(tmp_path / "warm") == cold_bytes

    def test_a_cache_of_only_the_embedding_gains_both_entries(self, cold, tmp_path):
        cache, cold_bytes = cold
        for path in cache.iterdir():
            if path.suffix != ".npy":
                path.unlink()
        run_experiment(sbm_config(**self.CONFIG), tmp_path / "first", cache_dir=cache)
        assert entry_bytes(cache) == cold_entries(cold_bytes)
        assert artifact_bytes(tmp_path / "first") == cold_bytes

    def test_configs_differing_only_in_folds_share_the_entries(
        self, cold, tmp_path, formats_nothing
    ):
        cache, cold_bytes = cold
        run_experiment(sbm_config(**self.CONFIG, folds=2), tmp_path / "f2", cache_dir=cache)
        assert entry_bytes(cache) == cold_entries(cold_bytes)
        two = artifact_bytes(tmp_path / "f2")
        assert cold_entries(two) == cold_entries(cold_bytes)
        assert two["report.json"] != cold_bytes["report.json"]

    def test_a_changed_sensitive_attribute_has_its_own_entries(self, cold, tmp_path):
        # same graph, other group labels in pca.csv
        cache, cold_bytes = cold
        config = sbm_config(**self.CONFIG, sensitive_attribute="control")
        run_experiment(config, tmp_path / "other", cache_dir=cache)
        other = artifact_bytes(tmp_path / "other")
        assert entry_bytes(cache) == sorted(cold_entries(cold_bytes) + cold_entries(other))
        assert other["pca.csv"] != cold_bytes["pca.csv"]


class TestProjection:
    def test_pca_recovers_dominant_direction(self):
        rng = np.random.default_rng(0)
        direction = np.array([3.0, 4.0, 0.0]) / 5.0
        points = rng.normal(0, 1, (200, 1)) * direction * 10 + rng.normal(
            0, 0.1, (200, 3)
        )
        coords = pca_2d(points)
        assert coords.shape == (200, 2)
        # first component carries almost all the variance
        assert coords[:, 0].var() > 50 * coords[:, 1].var()

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        points = rng.normal(0, 1, (50, 6))
        np.testing.assert_array_equal(pca_2d(points), pca_2d(points))

    def test_csv_fields_with_commas_and_quotes_round_trip(self, tmp_path):
        tokens = ["a,b", 'say "hi"', "plain"]
        groups = ["New York, NY", "line\nbreak", "g"]
        coords = np.array([[0.1, -2.5], [1e-300, 3.0], [0.0, 1.0 / 3.0]])
        path = tmp_path / "pca.csv"
        write_projection_csv(path, tokens, coords, groups)
        with open(path, newline="") as f:
            header, *rows = list(csv.reader(f))
        assert header == ["node_id", "x", "y", "group"]
        assert all(len(row) == 4 for row in rows)
        assert [row[0] for row in rows] == tokens
        assert [row[3] for row in rows] == groups
        assert np.array([[float(r[1]), float(r[2])] for r in rows]).tolist() == coords.tolist()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_csv_bytes_match_the_per_row_writer(self, tmp_path, dtype):
        rng = np.random.default_rng(3)
        coords = (rng.normal(size=(40, 2)) * 10.0 ** rng.integers(-12, 12, (40, 1))).astype(dtype)
        tokens = [f"n{i}" for i in range(40)]
        tokens[1] = "a,b"
        groups = ["New York, NY", 'say "hi"', "g", "line\nbreak"] * 10
        write_projection_csv(tmp_path / "pca.csv", tokens, coords, groups)
        with open(tmp_path / "ref.csv", "w", newline="") as f:
            out = csv.writer(f, lineterminator="\n")
            out.writerow(("node_id", "x", "y", "group"))
            for tok, (x, y), grp in zip(tokens, coords, groups):
                out.writerow((tok, repr(float(x)), repr(float(y)), grp))
        assert (tmp_path / "pca.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_csv_bytes_unquoted_for_plain_fields(self, tmp_path):
        path = tmp_path / "pca.csv"
        write_projection_csv(path, ["7", "x"], np.array([[0.5, -1.25], [2.0, 0.1]]), ["g0", "g1"])
        assert path.read_text() == "node_id,x,y,group\n7,0.5,-1.25,g0\nx,2.0,0.1,g1\n"


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
