"""Span tracing of fairwalks layers, done from outside the package.

``Tracer.install`` replaces public functions of the fairwalks modules with
wrappers that record a span (name, parent, start, end) per call, and
``uninstall`` puts the originals back. A span's layer is the module part
of its name. Spans stay in memory; the harness writes them out when the
run ends.

A wrapper is installed on every module attribute the package looks the
function up through at call time: ``evaluation`` imports ``propagate`` by
name, so the propagation spans wrap ``fairwalks.evaluation.propagate``.

Observers keep references to arguments and results (graphs, corpora,
reports) without computing on them, so the traced time holds no
measurement work; ``layer_metrics`` does the counting after the
iteration. Tracing is single-threaded: the harness never runs a threaded
sweep while a tracer is installed.
"""

import functools
import inspect
import statistics
import time
from dataclasses import dataclass

import numpy as np

from fairwalks import (
    cli,
    crosswalk,
    embedding,
    evaluation,
    graph,
    pipeline,
    projection,
    sampling,
    sweep,
    walks,
)

LAYERS = (
    "graph", "crosswalk", "walks", "embedding", "sampling", "propagation",
    "evaluation", "projection", "pipeline", "sweep", "cli",
)

# every CrossWalk workload uses the SBM block as the sensitive attribute
SENSITIVE_ATTRIBUTE = "block"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _bound(function, args, kwargs):
    bound = inspect.signature(function).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Records spans and observations for one iteration at a time."""

    def __init__(self):
        self._undo = []
        self._stack = []
        self._next_id = 0
        self.spans = []
        self.facts = {}

    def install(self):
        """Wrap every traced function and start a fresh iteration record."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.spans = []
        self.facts = {
            "trains": [], "corpora": [], "closeness": [], "knn": [],
            "reports": [], "graph": None, "cache_hits": 0, "cache_misses": 0,
        }
        for owner, attr, name, observe in _targets():
            self._wrap(owner, attr, name, observe)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _wrap(self, owner, attr, name, observe):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(tracer._next_id, parent, name, time.perf_counter())
            tracer._next_id += 1
            tracer._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(span)
            if observe is not None:
                observe(tracer.facts, original, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))


# --- observers: keep references only, no computation ------------------------


def _saw_graph(facts, fn, args, kwargs, result):
    facts["graph"] = result[0] if isinstance(result, tuple) else result


def _saw_corpus(facts, fn, args, kwargs, result):
    facts["corpora"].append((result, facts["graph"]))


def _saw_train(facts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    facts["trains"].append((a["walks"], a["window"], a["epochs"], result))


def _saw_closeness(facts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    facts["closeness"].append((a["graph"], a["walks_per_node"] * a["walk_length"]))


def _saw_knn(facts, fn, args, kwargs, result):
    facts["knn"].append(result)


def _saw_report(facts, fn, args, kwargs, result):
    facts["reports"].append(result)


def _saw_cache_load(facts, fn, args, kwargs, result):
    facts["cache_hits" if result is not None else "cache_misses"] += 1


def _targets():
    """(owner, attribute, span name, observer) for every traced call site."""
    return [
        (graph, "generate_sbm", "graph.generate_sbm", _saw_graph),
        (graph, "load_graph", "graph.load_graph", _saw_graph),
        (graph, "partition_by", "graph.partition_by", None),
        (crosswalk, "estimate_closeness", "crosswalk.estimate_closeness", _saw_closeness),
        (crosswalk, "reweight", "crosswalk.reweight", None),
        (crosswalk, "save_biased", "crosswalk.save_biased", None),
        (crosswalk, "load_biased", "crosswalk.load_biased", None),
        (walks, "generate_walks", "walks.generate_walks", _saw_corpus),
        (walks, "save_corpus", "walks.save_corpus", None),
        (embedding, "train", "embedding.train", _saw_train),
        (embedding, "save_embeddings", "embedding.save_embeddings", None),
        (sampling.AliasTable, "draw", "sampling.draw", None),
        (evaluation, "build_propagation_graph", "propagation.build_propagation_graph", _saw_knn),
        (evaluation, "propagate", "propagation.propagate", None),
        (evaluation, "cross_validate", "evaluation.cross_validate", _saw_report),
        (projection, "pca_2d", "projection.pca_2d", None),
        (projection, "write_projection_csv", "projection.write_projection_csv", None),
        (pipeline, "build_dataset", "pipeline.build_dataset", _saw_graph),
        (pipeline, "execute", "pipeline.execute", None),
        (pipeline.ArtifactCache, "load_array", "pipeline.cache_load", _saw_cache_load),
        (pipeline.ArtifactCache, "store_array", "pipeline.cache_store", None),
        (pipeline, "run_experiment", "pipeline.run_experiment", None),
        (sweep, "execute", "pipeline.execute", None),
        (sweep, "run_sweep", "sweep.run_sweep", None),
        (cli, "main", "cli.main", None),
    ]


# --- metrics -----------------------------------------------------------------


def _pairs(walks_, window):
    """(center, context) pairs one SGNS epoch visits, both directions."""
    lengths = np.array([len(w) for w in walks_], dtype=np.int64)
    offsets = np.arange(1, window + 1)
    return int(2 * np.clip(lengths[:, None] - offsets[None, :], 0, None).sum())


def cross_group_fraction(corpus_walks, group_of) -> float:
    """Share of walk steps whose endpoints lie in different groups."""
    crossing = steps = 0
    for w in corpus_walks:
        g = group_of[np.asarray(w, dtype=np.int64)]
        crossing += int(np.count_nonzero(g[1:] != g[:-1]))
        steps += len(w) - 1
    return crossing / steps if steps else 0.0


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans, facts, alpha) -> dict:
    """Per-layer numbers of one traced iteration, keyed by metric name."""
    by_name = {}
    child_time = {}
    for s in spans:
        by_name[s.name] = by_name.get(s.name, 0.0) + s.duration
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    self_time = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_time[s.layer] += s.duration - child_time.get(s.id, 0.0)

    def total(*names):
        return sum(by_name.get(n, 0.0) for n in names)

    m = {f"{layer}.self_s": t for layer, t in self_time.items()}

    train_s = total("embedding.train")
    pairs = sum(_pairs(w, window) * epochs for w, window, epochs, _ in facts["trains"])
    m["embedding.train_s"] = train_s
    m["embedding.pairs"] = pairs
    m["embedding.pairs_per_s"] = _rate(pairs, train_s)
    losses = [r.meta["epoch_mean_loss"] for *_, r in facts["trains"]]
    m["embedding.final_loss"] = losses[-1][-1] if losses and losses[-1] else 0.0
    m["embedding.save_s"] = total("embedding.save_embeddings")
    m["sampling.draw_s"] = total("sampling.draw")

    gen_s = total("walks.generate_walks")
    steps = sum(len(w) - 1 for corpus, _ in facts["corpora"] for w in corpus.walks)
    m["walks.generate_s"] = gen_s
    m["walks.steps"] = steps
    m["walks.steps_per_s"] = _rate(steps, gen_s)
    m["walks.save_s"] = total("walks.save_corpus")
    m["walks.cross_frac"] = 0.0
    m["walks.alpha"] = 0.0
    if facts["corpora"]:
        corpus, g = facts["corpora"][-1]
        group_of = graph.partition_by(g, SENSITIVE_ATTRIBUTE).group_of
        m["walks.cross_frac"] = cross_group_fraction(corpus.walks, group_of)
        m["walks.alpha"] = alpha

    closeness_s = total("crosswalk.estimate_closeness")
    closeness_steps = sum(
        per_node * sum(1 for v in range(g.node_count) if g.degree(v))
        for g, per_node in facts["closeness"]
    )
    m["crosswalk.closeness_s"] = closeness_s
    m["crosswalk.closeness_steps_per_s"] = _rate(closeness_steps, closeness_s)
    m["crosswalk.reweight_s"] = total("crosswalk.reweight")
    m["crosswalk.io_s"] = total("crosswalk.save_biased", "crosswalk.load_biased")

    m["propagation.knn_s"] = total("propagation.build_propagation_graph")
    m["propagation.knn_edges"] = sum(len(pg.rows) // 2 for pg in facts["knn"])
    m["propagation.calls"] = sum(1 for s in spans if s.name == "propagation.propagate")
    m["propagation.propagate_s"] = total("propagation.propagate")

    m["evaluation.cv_s"] = total("evaluation.cross_validate")
    reports = facts["reports"]
    m["evaluation.awareness"] = reports[-1].awareness if reports else 0.0
    m["evaluation.disparity"] = reports[-1].disparity if reports else 0.0
    performance = reports[-1].performance if reports else 0.0
    m["evaluation.control_f1"] = performance if np.isfinite(performance) else 0.0

    m["graph.build_s"] = total("graph.generate_sbm", "graph.load_graph")
    g = facts["graph"]
    m["graph.nodes"] = g.node_count if g is not None else 0
    m["graph.edges"] = g.edge_count if g is not None else 0

    executes = {s.id: s for s in spans if s.name == "pipeline.execute"}
    runs = [s for s in spans if s.name == "pipeline.run_experiment"]
    m["pipeline.execute_s"] = total("pipeline.execute")
    m["pipeline.artifacts_s"] = sum(
        r.duration - sum(e.duration for e in executes.values() if e.parent == r.id)
        for r in runs
    )
    m["pipeline.cache_hits"] = facts["cache_hits"]
    m["pipeline.cache_misses"] = facts["cache_misses"]
    m["projection.pca_s"] = total("projection.pca_2d")

    sweeps = [s for s in spans if s.name == "sweep.run_sweep"]
    sweep_runs = [e for e in executes.values() if any(e.parent == s.id for s in sweeps)]
    m["sweep.runs"] = len(sweep_runs)
    m["sweep.per_run_s"] = (
        statistics.median(e.duration for e in sweep_runs) if sweep_runs else 0.0
    )
    m["sweep.overhead_s"] = (
        sum(s.duration for s in sweeps) - sum(e.duration for e in sweep_runs)
    )
    m["trace.spans"] = len(spans)
    return m
