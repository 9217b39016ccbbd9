"""End-to-end experiment orchestration.

A flat JSON-serializable config drives: dataset selection (files or a
synthetic block model), optional boundary-biased reweighting, walk
generation, embedding training, and cross-validated evaluation of the
sensitive and control attributes. Each stage's mapping from the config to
its call, seed included, is one function here (``synthesize_sbm``,
``walk_weights``, ``walk_corpus``, ``train_vectors``, ``evaluate``), which
``execute`` and the CLI stage verbs share. One stage output is cached on
disk: the embedding, keyed by the graph and every config field outside
``EVALUATION_FIELDS``. A cached embedding needs nothing upstream of it,
so a warm ``execute`` reads that one file. ``run_experiment`` keeps the
embedding's two text artifacts under the same key, ``<key>.emb.v1.txt``
and ``<key>.pca.v1.csv``: the key fixes every byte of both (the vectors,
the node ids and the sensitive labels), and a change to either writer's
bytes bumps the version in its suffix. A warm run copies them. A re-audit
of a cached embedding also keeps the audit's kNN graph, ``<knn key>.knn.npy``
with the knn key ``_hash_key("knn.v1", <embedding key>, knn_k, sigma)``:
the first writes it, later ones read it and build no graph, and a change
to the graph's bits bumps ``knn.v1``. An audit of freshly trained vectors
neither reads nor writes it. Walk corpora are not kept. The dataset stage
is one ``Dataset`` value (the graph and its partitions), built by
``prepare_dataset``, which derives the graph key and the boundary
closeness on first use. Runs that differ from its config only in
``SWEPT_FIELDS``, as a sweep's do, can share it.
"""

import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import numbers
import os
import typing
from dataclasses import dataclass

import numpy as np

from fairwalks import (
    crosswalk, embedding, evaluation, graph as graph_mod, projection, propagation, walks,
)
from fairwalks.graph import atomic_writer
from fairwalks.seeds import derive_seed

# the fields that steer only the audit of an embedding; the embedding's
# cache key holds every other field, so a new field is keyed by default
EVALUATION_FIELDS = (
    "dataset_name", "control_attribute", "knn_k", "sigma", "folds", "labeled_fraction",
)

# the fields in which a sweep's runs differ: a ``Dataset`` serves a config
# that agrees with its own in every other field, so a new field is not shared
SWEPT_FIELDS = ("intervention", "alpha", "beta", "p", "q")

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


@contextlib.contextmanager
def _stage(name):
    """Re-raise a failure in the block as ``StageError(name)``."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


def _fits(value, annotation) -> bool:
    """Whether ``value`` is of the type a field is annotated with: any integral
    number for ``int``, any real one for ``float``, never a bool for either."""
    if type(value) is annotation:  # the common case, without an ABC check
        return True
    if typing.get_origin(annotation) is list:
        (item,) = typing.get_args(annotation)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    kind = {int: numbers.Integral, float: numbers.Real}.get(annotation, annotation)
    return isinstance(value, kind) and (annotation is bool or not isinstance(value, bool))


def _check_field_types(obj, what):
    """Raise ValueError naming the first field of dataclass ``obj`` whose value
    does not fit its annotation; None fits only where the default is None."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not (value is None and f.default is None or _fits(value, f.type)):
            kind = f.type if typing.get_origin(f.type) else f.type.__name__
            raise ValueError(f"{what} key {f.name!r} must be of type {kind}, got {value!r}")


def _json_fields(cls, data, what) -> dict:
    """``data``, a parsed JSON document, as keyword arguments of dataclass
    ``cls``: ValueError unless it is an object whose keys are its fields."""
    if not isinstance(data, dict):
        raise ValueError(f"a {what} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return data


@dataclass
class ExperimentConfig:
    """Flat description of one pipeline run; round-trips through JSON."""

    # dataset: either files on disk or a synthetic block model
    edges_path: str = None
    attrs_path: str = None
    sbm_block_sizes: list[int] = None
    sbm_p_intra: float = None
    sbm_p_inter: float = None
    sbm_control_classes: int = None
    sbm_control_probs: list[float] = None
    sbm_control_bonus: float = 0.0
    dataset_name: str = "dataset"
    select_attribute: str = None
    select_values: list[str] = None
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

    def __post_init__(self):
        # numpy scalars (a grid from np.arange, say) become Python numbers,
        # which JSON, the cache key and the table rows write as numbers
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.generic):
                setattr(self, f.name, value.item())
            elif isinstance(value, list):
                setattr(self, f.name, [v.item() if isinstance(v, np.generic) else v
                                       for v in value])

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
        return self.validate_stages()

    def validate_stages(self):
        """Every check of ``validate`` but the dataset source's, for the CLI
        stage verbs, which read their graph from files they are given."""
        _check_field_types(self, "config")
        if self.intervention not in ("baseline", "crosswalk"):
            raise ValueError(f"unknown intervention {self.intervention!r}")
        if self.intervention == "baseline":
            if self.alpha is not None or self.beta is not None:
                raise ValueError("baseline runs must leave alpha and beta unset")
        else:
            if self.alpha is None or self.beta is None:
                raise ValueError("crosswalk runs require alpha and beta")
            crosswalk.check_bias(self.alpha, self.beta)
        if self.control_attribute == self.sensitive_attribute:
            raise ValueError("sensitive and control attribute must differ")
        walks.WalkConfig(self.p, self.q, self.walks_per_node, self.walk_length)
        try:
            walks.WalkConfig(walks_per_node=self.closeness_walks, walk_length=self.closeness_length)
        except ValueError as exc:
            raise ValueError(f"closeness budget: {exc}") from None
        embedding.check_training(
            self.dim, self.window, self.negatives, self.epochs, self.learning_rate
        )
        propagation.check_knn(self.knn_k, self.sigma)
        evaluation.check_split(self.folds, self.labeled_fraction)
        return self

    def to_dict(self) -> dict:
        # the fields are flat, so copying the lists copies what asdict's deep copy would
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {name: list(v) if isinstance(v, list) else v for name, v in values.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return cls(**_json_fields(cls, data, "config")).validate()

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def save(self, path):
        with atomic_writer(path) as f:
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


def synthesize_sbm(config: ExperimentConfig):
    """The block-model graph of ``config`` and its summary, which records
    ``config.seed`` rather than the stream seed derived from it."""
    control = None
    if config.sbm_control_classes:
        control = graph_mod.ControlAttributeSpec(
            classes=config.sbm_control_classes,
            probs=tuple(config.sbm_control_probs) if config.sbm_control_probs else None,
            intra_class_bonus=config.sbm_control_bonus,
            name=config.control_attribute or "control",
        )
    g, summary = graph_mod.generate_sbm(
        config.sbm_block_sizes, config.sbm_p_intra, config.sbm_p_inter,
        seed=derive_seed(config.seed, "sbm"), control=control,
    )
    summary["seed"] = config.seed
    return g, summary


def build_dataset(config: ExperimentConfig) -> graph_mod.AttributedGraph:
    """Stage 1: load or synthesize the attributed graph."""
    if config.sbm_block_sizes is not None:
        g, _ = synthesize_sbm(config)
    else:
        g = graph_mod.load_graph(config.edges_path, config.attrs_path)
    if config.bin_age_column:
        g, _ = graph_mod.bin_age_attribute(g, config.bin_age_column)
    if config.select_attribute:
        g = graph_mod.select_subgraph(
            g, config.select_attribute, set(config.select_values or [])
        )
    return g


@dataclass(eq=False)
class Dataset:
    """The dataset stage's output for ``config``: the graph and its partitions.
    The graph key and the read-only boundary closeness are derived on first
    use, so a run that reads a cached embedding estimates no closeness."""

    config: ExperimentConfig
    graph: graph_mod.AttributedGraph
    sensitive: graph_mod.GroupPartition
    control: graph_mod.GroupPartition = None

    @functools.cached_property
    def key(self) -> str:
        return _graph_key(self.graph)

    @functools.cached_property
    def closeness(self) -> np.ndarray:
        budget = (self.config.closeness_walks, self.config.closeness_length, self.config.seed)
        estimate = crosswalk.estimate_closeness(self.graph, self.sensitive, *budget)
        estimate.flags.writeable = False
        return estimate

    def check(self, config: ExperimentConfig):
        """Raise ValueError unless ``config`` agrees with the one this was
        built from in every field outside ``SWEPT_FIELDS``."""
        differ = [f.name for f in dataclasses.fields(config) if f.name not in SWEPT_FIELDS
                  and getattr(config, f.name) != getattr(self.config, f.name)]
        if differ:
            raise ValueError(f"the shared dataset was built for other {', '.join(differ)}")


def prepare_dataset(config: ExperimentConfig) -> Dataset:
    """Stages 1 and 2: the graph of ``config`` and its partitions."""
    with _stage("dataset"):
        g = build_dataset(config)
    with _stage("partition"):
        sensitive = graph_mod.partition_by(g, config.sensitive_attribute)
        control = (graph_mod.partition_by(g, config.control_attribute)
                   if config.control_attribute else None)
    return Dataset(config, g, sensitive, control)


def walk_weights(config: ExperimentConfig, dataset: Dataset) -> walks.TransitionWeights:
    """The weights the corpus walks on: the graph's own for a baseline, else
    CrossWalk's reweighting of it by the dataset's boundary closeness."""
    if config.intervention == "baseline":
        return walks.TransitionWeights.from_graph(dataset.graph)
    return crosswalk.reweight(dataset.graph, dataset.sensitive, dataset.closeness,
                              config.alpha, config.beta)


def walk_corpus(config: ExperimentConfig, weights) -> walks.WalkCorpus:
    return walks.generate_walks(weights, walks.WalkConfig(
        p=config.p, q=config.q, walks_per_node=config.walks_per_node,
        walk_length=config.walk_length, seed=derive_seed(config.seed, "walks"),
    ))


def _training_args(config: ExperimentConfig) -> dict:
    """``train``'s settings for ``config``; ``embedding_meta`` takes the same."""
    return dict(dim=config.dim, window=config.window, negatives=config.negatives,
                epochs=config.epochs, learning_rate=config.learning_rate,
                seed=derive_seed(config.seed, "embed"))


def train_vectors(config: ExperimentConfig, paths, node_count) -> np.ndarray:
    return embedding.train(paths, node_count, **_training_args(config)).vectors


def evaluate(config: ExperimentConfig, vectors, sensitive, control=None, config_echo=None,
             graph_path=None):
    return evaluation.cross_validate(
        vectors, sensitive, control,
        folds=config.folds, labeled_fraction=config.labeled_fraction,
        k=config.knn_k, sigma=config.sigma, seed=derive_seed(config.seed, "eval"),
        config_echo=config_echo, graph_path=graph_path,
    )


@dataclass
class PipelineResult:
    report: evaluation.EvaluationReport
    dataset: Dataset
    vectors: np.ndarray
    key: str  # the embedding's cache key


def execute(config: ExperimentConfig, cache_dir=None, dataset: Dataset = None) -> PipelineResult:
    """Run all pipeline stages in memory; artifacts are written by callers.

    ``dataset`` is ``prepare_dataset``'s value for a config that differs
    from this one only in ``SWEPT_FIELDS`` (else ValueError), so that runs
    can share the graph and its closeness; without it, it is built here,
    and the graph's walk layout is dropped once the walks are drawn.
    The embedding is the one cached stage output. Its key is the graph
    plus every config field outside ``EVALUATION_FIELDS``, so a config
    that differs in any training field trains again, and a cached
    embedding needs no closeness, bias, walks or training. The result
    holds the input-side vectors only.
    A re-audit of a cached embedding reads the audit's kNN graph from the
    entry ``<knn key>.knn.npy``, keyed ``_hash_key("knn.v1", key, knn_k,
    sigma)``; the first re-audit builds it and writes the entry (see
    ``evaluation.cross_validate``). An audit of freshly trained vectors
    neither reads nor writes it, so cold runs and sweeps leave none. A
    change to ``build_propagation_graph``'s output bits (``KNN_BLOCK_CELLS``,
    the tie rule) bumps ``knn.v1``.
    """
    config.validate()
    cache = ArtifactCache(cache_dir)
    lone = dataset is None  # no other run shares the dataset, nor its walk layout
    if lone:
        dataset = prepare_dataset(config)
    else:
        dataset.check(config)

    # a module constant that moves the trained bits (NEGATIVE_CHUNK, say) bumps the tag
    key = _hash_key("embed.v4", dataset.key,
                    config.replace(**dict.fromkeys(EVALUATION_FIELDS)).config_hash())
    with _stage("embed"):
        vectors = cache.load_array(key, "emb.npy")
    graph_path = None  # an audit of freshly trained vectors keeps no kNN graph
    if vectors is not None:
        # a change to build_propagation_graph's output bits (KNN_BLOCK_CELLS, say) bumps the tag
        graph_path = cache.path(_hash_key("knn.v1", key, config.knn_k, config.sigma), "knn.npy")
    else:
        with _stage("bias"):
            weights = walk_weights(config, dataset)
        with _stage("walks"):
            corpus = walk_corpus(config, weights)
        if lone:  # the layout, (p, q) codes and all, would live through training
            vars(dataset.graph).pop("walk_layout", None)
        with _stage("embed"):
            vectors = train_vectors(config, corpus.paths, dataset.graph.node_count)
            cache.store_array(key, "emb.npy", vectors)
    walk_source = ("baseline" if config.intervention == "baseline"
                   else f"crosswalk(alpha={config.alpha:g}, beta={config.beta:g})")
    echo = {"experiment": config.to_dict(), "walk_source": walk_source,
            "embedding_meta": embedding.embedding_meta(**_training_args(config))}
    with _stage("evaluate"):
        report = evaluate(config, vectors, dataset.sensitive, dataset.control,
                          config_echo=echo, graph_path=graph_path)
    return PipelineResult(report, dataset, vectors, key)


# one CSV row format for report_row.csv and for sweep tables (results.csv)
SWEEP_SCHEMA_VERSION = 6

SWEEP_COLUMNS = (  # row identity, the varied config, metrics, per-group lists
    "schema_version", "run_id", "config_hash", "dataset", "status", "error",
    "intervention", "alpha", "beta", "p", "q", "seed",
    "awareness", "disparity", "performance",
    "q_mean", "qstar_mean", "group_labels", "group_sizes",
)

LIST_SEP = "|"


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if value != value else repr(value)  # NaN -> empty field
    return str(value)


def _csv_line(fields) -> str:
    """One CSV record; fields holding commas, quotes or newlines are quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def csv_header_line() -> str:
    return _csv_line(SWEEP_COLUMNS)


def _row_line(values: dict) -> str:
    return _csv_line(_format_value(values.get(col, "")) for col in SWEEP_COLUMNS)


def report_csv_line(config: ExperimentConfig, report, error=None) -> str:
    """One table row; failed runs carry status=error and empty metrics."""
    values = {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "run_id": config.run_id(),
        "config_hash": config.config_hash(),
        "dataset": config.dataset_name,
        "intervention": config.intervention,
        "alpha": config.alpha,
        "beta": config.beta,
        "p": config.p,
        "q": config.q,
        "seed": config.seed,
    }
    if error is not None:
        values["status"] = "error"
        values["error"] = str(error)
        return _row_line(values)
    values.update(
        {
            "status": "ok",
            "awareness": report.awareness,
            "disparity": report.disparity,
            "performance": report.performance,
            "q_mean": LIST_SEP.join(repr(float(v)) for v in report.q_mean),
            "qstar_mean": LIST_SEP.join(repr(float(v)) for v in report.qstar_mean),
            "group_labels": LIST_SEP.join(report.group_labels),
            "group_sizes": LIST_SEP.join(str(s) for s in report.group_sizes),
        }
    )
    return _row_line(values)


# (out_dir name, cache suffix) of the embedding's text artifacts; the key
# covers the vectors, ids and sensitive labels that fix their bytes, so a
# change to either writer's bytes must bump its suffix's version
TEXT_ENTRIES = (("embeddings.txt", "emb.v1.txt"), ("pca.csv", "pca.v1.csv"))


def _copy_file(src, dst):
    # one read: shutil.copyfileobj's 64 KiB chunks raised acceptance_run's peak RSS
    with open(src, "rb") as f, atomic_writer(dst, "wb") as out:
        out.write(f.read())


def run_experiment(config: ExperimentConfig, out_dir, cache_dir=None):
    """Execute the pipeline and write the result artifacts.

    Writes report.json, report_row.csv, embeddings.txt, and pca.csv under
    ``out_dir``, each through ``atomic_writer``. With a cache, the last two
    are copied from the entries ``<key>.emb.v1.txt`` and ``<key>.pca.v1.csv``
    beside the embedding's ``<key>.emb.npy`` (see ``TEXT_ENTRIES``); an
    entry the cache lacks is rendered into it first, so a warm run formats
    neither file. Every entry is rendered, and the projection computed,
    before the first ``out_dir`` file is written. On failure a StageError
    naming the failed stage propagates, and each file is either as it was
    before or complete.
    """
    result = execute(config, cache_dir=cache_dir)
    os.makedirs(out_dir, exist_ok=True)
    cache = ArtifactCache(cache_dir)
    ids, sensitive = result.dataset.graph.original_ids, result.dataset.sensitive
    with _stage("artifacts"):
        entries = {name: cache.path(result.key, suffix) for name, suffix in TEXT_ENTRIES}
        missing = [name for name, path in entries.items()
                   if path is None or not os.path.exists(path)]
        if "pca.csv" in missing:
            coords = projection.pca_2d(result.vectors)
            groups = [sensitive.group_labels[i] for i in sensitive.group_of]

        def render(name, path):
            if name == "embeddings.txt":
                embedding.save_embeddings(result.vectors, path, ids)
            else:
                projection.write_projection_csv(path, ids, coords, groups)

        for name in missing:
            if entries[name] is not None:
                render(name, entries[name])
        row = csv_header_line() + report_csv_line(config, result.report)
        for name, text in (("report.json", result.report.to_json()), ("report_row.csv", row)):
            with atomic_writer(os.path.join(out_dir, name)) as f:
                f.write(text)
        for name, entry in entries.items():
            if entry is None:
                render(name, os.path.join(out_dir, name))
            else:
                _copy_file(entry, os.path.join(out_dir, name))
    return result.report
