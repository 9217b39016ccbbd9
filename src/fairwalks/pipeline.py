"""End-to-end experiment orchestration.

A flat JSON-serializable config drives: dataset selection (files or a
synthetic block model), optional boundary-biased reweighting, walk
generation, embedding training, and cross-validated evaluation of the
sensitive and control attributes. Stage outputs are cached by a hash
chain over their upstream configuration, so sweeps that vary only
downstream parameters reuse expensive artifacts.
"""

import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from fairwalks import crosswalk, embedding, evaluation, graph as graph_mod, projection, walks
from fairwalks.seeds import derive_seed

PRESETS = {
    "low_awareness": {"alpha": 0.99, "beta": 15.0},
    "high_awareness": {"alpha": 0.01, "beta": 1.0},
}


class StageError(RuntimeError):
    """Pipeline failure wrapped with the stage that raised it."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class ExperimentConfig:
    """Flat description of one pipeline run; round-trips through JSON."""

    # dataset: either files on disk or a synthetic block model
    edges_path: str = None
    attrs_path: str = None
    sbm_block_sizes: list = None
    sbm_p_intra: float = None
    sbm_p_inter: float = None
    sbm_control_classes: int = None
    sbm_control_probs: list = None
    sbm_control_bonus: float = 0.0
    dataset_name: str = "dataset"
    select_attribute: str = None
    select_values: list = None
    bin_age_column: str = None
    # prediction targets
    sensitive_attribute: str = "block"
    control_attribute: str = None
    # intervention
    intervention: str = "baseline"  # baseline | crosswalk
    alpha: float = None
    beta: float = None
    closeness_walks: int = 10
    closeness_length: int = 5
    # walks
    p: float = 1.0
    q: float = 1.0
    walks_per_node: int = 10
    walk_length: int = 80
    # embedding
    dim: int = 64
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    # evaluation
    knn_k: int = 10
    sigma: float = None
    folds: int = 25
    labeled_fraction: float = 0.5
    seed: int = 0

    def validate(self):
        from_files = self.edges_path is not None or self.attrs_path is not None
        from_sbm = self.sbm_block_sizes is not None
        if from_files == from_sbm:
            raise ValueError(
                "configure exactly one dataset source: edges/attrs paths or sbm_*"
            )
        if from_files and (self.edges_path is None or self.attrs_path is None):
            raise ValueError("both edges_path and attrs_path are required")
        if from_sbm and (self.sbm_p_intra is None or self.sbm_p_inter is None):
            raise ValueError("sbm_p_intra and sbm_p_inter are required")
        if self.intervention not in ("baseline", "crosswalk"):
            raise ValueError(f"unknown intervention {self.intervention!r}")
        if self.intervention == "baseline":
            if self.alpha is not None or self.beta is not None:
                raise ValueError("baseline runs must leave alpha and beta unset")
        else:
            if self.alpha is None or self.beta is None:
                raise ValueError("crosswalk runs require alpha and beta")
            if not 0 < self.alpha < 1:
                raise ValueError("alpha must lie strictly between 0 and 1")
            if self.beta < 0:
                raise ValueError("beta must be >= 0")
        if self.control_attribute == self.sensitive_attribute:
            raise ValueError("sensitive and control attribute must differ")
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be positive")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data).validate()

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)

    def with_preset(self, name: str) -> "ExperimentConfig":
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
        return self.replace(intervention="crosswalk", **PRESETS[name])

    def run_id(self) -> str:
        if self.intervention == "baseline":
            return f"baseline_p{self.p:g}_q{self.q:g}"
        return f"crosswalk_a{self.alpha:g}_b{self.beta:g}_p{self.p:g}_q{self.q:g}"

    def config_hash(self) -> str:
        """Hash of every field: two runs share it only if nothing differs."""
        return _hash_key(json.dumps(self.to_dict(), sort_keys=True))


class ArtifactCache:
    """Content-addressed store for expensive stage outputs."""

    def __init__(self, directory):
        self.directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def path(self, key, suffix):
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"{key}.{suffix}")

    def load_array(self, key, suffix):
        path = self.path(key, suffix)
        if path is not None and os.path.exists(path):
            return np.load(path, allow_pickle=False)
        return None

    def store_array(self, key, suffix, array):
        path = self.path(key, suffix)
        if path is None:
            return
        # a handle, because np.save appends .npy to bare file names
        with atomic_writer(path, "wb") as f:
            np.save(f, array, allow_pickle=False)


@contextlib.contextmanager
def atomic_writer(path, mode="w"):
    """A temp file beside ``path`` that replaces it only when the block
    completes, so an interrupted write never reaches ``path``. A replaced
    file keeps its permission bits."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as f:
            yield f
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _hash_key(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()[:24]


def _graph_key(g: graph_mod.AttributedGraph) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(g.edge_index).tobytes())
    h.update(np.ascontiguousarray(g.edge_weight).tobytes())
    for name in sorted(g.attributes):
        h.update(name.encode())
        h.update("\x1f".join(g.attributes[name]).encode())
    h.update("\x1f".join(g.original_ids).encode())
    return h.hexdigest()[:24]


def build_dataset(config: ExperimentConfig):
    """Stage 1: load or synthesize the attributed graph."""
    if config.sbm_block_sizes is not None:
        control = None
        if config.sbm_control_classes:
            control = graph_mod.ControlAttributeSpec(
                classes=config.sbm_control_classes,
                probs=tuple(config.sbm_control_probs) if config.sbm_control_probs else None,
                intra_class_bonus=config.sbm_control_bonus,
                name=config.control_attribute or "control",
            )
        g, summary = graph_mod.generate_sbm(
            config.sbm_block_sizes,
            config.sbm_p_intra,
            config.sbm_p_inter,
            seed=derive_seed(config.seed, "sbm"),
            control=control,
        )
    else:
        g = graph_mod.load_graph(config.edges_path, config.attrs_path)
        summary = g.summary()
    if config.bin_age_column:
        g, dropped = graph_mod.bin_age_attribute(g, config.bin_age_column)
        summary["age_rows_dropped"] = dropped
    if config.select_attribute:
        g = graph_mod.select_subgraph(
            g, config.select_attribute, set(config.select_values or [])
        )
        summary["selected"] = g.summary()
    return g, summary


@dataclass
class PipelineResult:
    report: evaluation.EvaluationReport
    graph: graph_mod.AttributedGraph
    sensitive: graph_mod.GroupPartition
    matrix: embedding.EmbeddingMatrix
    dataset_summary: dict


def execute(config: ExperimentConfig, cache_dir=None) -> PipelineResult:
    """Run all pipeline stages in memory; artifacts are written by callers."""
    config.validate()
    cache = ArtifactCache(cache_dir)

    stage = "dataset"
    try:
        g, summary = build_dataset(config)
    except Exception as exc:
        raise StageError(stage, exc) from exc

    stage = "partition"
    try:
        sensitive = graph_mod.partition_by(g, config.sensitive_attribute)
        control = (
            graph_mod.partition_by(g, config.control_attribute)
            if config.control_attribute
            else None
        )
    except Exception as exc:
        raise StageError(stage, exc) from exc

    gkey = _graph_key(g)

    stage = "bias"
    try:
        if config.intervention == "crosswalk":
            closeness_seed = derive_seed(config.seed, "closeness")
            ckey = _hash_key(
                "closeness", gkey, config.sensitive_attribute,
                config.closeness_walks, config.closeness_length, closeness_seed,
            )
            values = cache.load_array(ckey, "closeness.npy")
            if values is None:
                closeness = crosswalk.estimate_closeness(
                    g, sensitive, config.closeness_walks,
                    config.closeness_length, closeness_seed,
                )
                cache.store_array(ckey, "closeness.npy", closeness.values)
            else:
                closeness = crosswalk.BoundaryCloseness(
                    values, config.closeness_walks, config.closeness_length, closeness_seed
                )
            biased = crosswalk.reweight(g, sensitive, closeness, config.alpha, config.beta)
            weights = walks.TransitionWeights.from_biased(biased)
            source = f"crosswalk(alpha={config.alpha:g}, beta={config.beta:g})"
            wkey_bias = _hash_key(ckey, config.alpha, config.beta, crosswalk.CLOSENESS_SMOOTHING)
        else:
            weights = walks.TransitionWeights.from_graph(g)
            source = "baseline"
            wkey_bias = "baseline"
    except Exception as exc:
        raise StageError(stage, exc) from exc

    stage = "walks"
    try:
        walk_seed = derive_seed(config.seed, "walks")
        walk_config = walks.WalkConfig(
            p=config.p, q=config.q, walks_per_node=config.walks_per_node,
            walk_length=config.walk_length, seed=walk_seed,
        )
        wkey = _hash_key(
            "corpus", gkey, wkey_bias, config.p, config.q,
            config.walks_per_node, config.walk_length, walk_seed,
        )
        flat = cache.load_array(wkey, "corpus.npy")
        if flat is None:
            corpus = walks.generate_walks(weights, walk_config, source)
            lengths = np.array([len(w) for w in corpus.walks])
            flat = np.concatenate([np.array([len(lengths)]), lengths,
                                   np.concatenate([np.asarray(w) for w in corpus.walks])])
            cache.store_array(wkey, "corpus.npy", flat)
        else:
            n_walks = int(flat[0])
            bounds = np.cumsum(flat[1:n_walks])  # every walk length but the last
            corpus = walks.WalkCorpus(
                [w.tolist() for w in np.split(flat[1 + n_walks :], bounds)], walk_config, source
            )
    except Exception as exc:
        raise StageError(stage, exc) from exc

    stage = "embed"
    try:
        embed_seed = derive_seed(config.seed, "embed")
        ekey = _hash_key(
            "embed", wkey, config.dim, config.window, config.negatives,
            config.epochs, config.learning_rate, embed_seed,
        )
        vectors = cache.load_array(ekey, "emb.npy")
        if vectors is None:
            matrix = embedding.train(
                corpus.walks, g.node_count, dim=config.dim, window=config.window,
                negatives=config.negatives, epochs=config.epochs,
                learning_rate=config.learning_rate, seed=embed_seed,
            )
            cache.store_array(ekey, "emb.npy", matrix.vectors)
        else:
            meta = embedding.embedding_meta(
                config.dim, config.window, config.negatives, config.epochs,
                config.learning_rate, embed_seed,
            )
            matrix = embedding.EmbeddingMatrix(vectors, np.zeros_like(vectors), meta)
    except Exception as exc:
        raise StageError(stage, exc) from exc

    stage = "evaluate"
    try:
        echo = {"experiment": config.to_dict(), "walk_source": source,
                "embedding_meta": {k: v for k, v in matrix.meta.items()
                                   if k != "epoch_mean_loss"}}
        report = evaluation.cross_validate(
            matrix.vectors, sensitive, control,
            folds=config.folds, labeled_fraction=config.labeled_fraction,
            k=config.knn_k, sigma=config.sigma,
            seed=derive_seed(config.seed, "eval"), config_echo=echo,
        )
    except Exception as exc:
        raise StageError(stage, exc) from exc

    return PipelineResult(report, g, sensitive, matrix, summary)


def run_experiment(config: ExperimentConfig, out_dir, cache_dir=None):
    """Execute the pipeline and write the result artifacts.

    Writes report.json, report_row.csv, embeddings.txt, and pca.csv under
    ``out_dir``. On failure, partially written artifacts are removed and a
    StageError naming the failed stage propagates.
    """
    from fairwalks.sweep import csv_header_line, report_csv_line

    result = execute(config, cache_dir=cache_dir)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    try:
        report_path = os.path.join(out_dir, "report.json")
        written.append(report_path)
        with open(report_path, "w") as f:
            f.write(result.report.to_json())

        row_path = os.path.join(out_dir, "report_row.csv")
        written.append(row_path)
        with open(row_path, "w") as f:
            f.write(csv_header_line())
            f.write(report_csv_line(config, result.report))

        emb_path = os.path.join(out_dir, "embeddings.txt")
        written.append(emb_path)
        embedding.save_embeddings(result.matrix, emb_path, tokens=result.graph.original_ids)

        pca_path = os.path.join(out_dir, "pca.csv")
        written.append(pca_path)
        coords = projection.pca_2d(result.matrix.vectors, seed=derive_seed(config.seed, "pca"))
        groups = [
            result.sensitive.group_labels[i] for i in result.sensitive.group_of
        ]
        projection.write_projection_csv(
            pca_path, result.graph.original_ids, coords, groups
        )
    except Exception as exc:
        for path in written:
            if os.path.exists(path):
                os.unlink(path)
        raise StageError("artifacts", exc) from exc
    return result.report
