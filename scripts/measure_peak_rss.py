#!/usr/bin/env python3
"""Peak memory and stage seconds of one pipeline run on an n-node SBM.

Runs ``pipeline.execute`` once, without a cache, on a three-block graph
with the low-awareness preset (so boundary closeness runs) and a small
walk and epoch budget, then prints JSON: the node and edge counts, the
walks' (p, q), the process's ``ru_maxrss`` after imports and after the
run (MB), the ``tracemalloc`` peak of the run and of each stage (MB), and
the seconds spent in each stage. ``--p`` and ``--q`` set node2vec's return
and in-out parameters (default 1, first-order walks); any other value
makes the walk stage build its (p, q) edge table.

``ru_maxrss`` is the high-water mark of the whole process, so run the
script in a fresh process per measurement. It also depends on the order
of allocations (a freed block may stay mapped), so the tracemalloc peaks,
the most bytes the run's Python and numpy allocations held at once, are
printed beside it; a stage's peak counts everything live at that moment,
not only what the stage allocated. Tracing slows every allocation, so
the stage seconds read higher than in an untraced run.

Run:
    python3 scripts/measure_peak_rss.py --nodes 20000
    python3 scripts/measure_peak_rss.py --nodes 20000 --p 0.5 --q 2
"""

import argparse
import functools
import json
import resource
import time
import tracemalloc

from fairwalks import crosswalk, embedding, evaluation, pipeline, walks
from fairwalks.pipeline import ExperimentConfig

# (module, function, stage name); evaluate includes knn_graph and propagate
STAGES = (
    (pipeline, "build_dataset", "dataset"),
    (crosswalk, "estimate_closeness", "closeness"),
    (crosswalk, "reweight", "reweight"),
    (walks, "generate_walks", "walks"),
    (embedding, "train", "train"),
    (evaluation, "build_propagation_graph", "knn_graph"),
    (evaluation, "propagate", "propagate"),
    (evaluation, "cross_validate", "evaluate"),
)

# the run's fixed budget: expected mean degree (a fifth of it crosses
# blocks), walks per node, walk length, dimension, epochs, folds, seed
DEGREE = 10.0
WALKS_PER_NODE = 2
WALK_LENGTH = 10
DIM = 16
EPOCHS = 1
FOLDS = 2
SEED = 1


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB -> MiB, like the peaks


def traced_peak(open_peaks):
    """Fold the tracemalloc peak since the last reset into every open
    stage's peak, then reset it."""
    peak = tracemalloc.get_traced_memory()[1]
    for name in open_peaks:
        open_peaks[name] = max(open_peaks[name], peak)
    tracemalloc.reset_peak()


def timed(seconds, peaks, open_peaks, name, fn):
    """``fn``, adding its wall time to ``seconds[name]`` and raising
    ``peaks[name]`` to the tracemalloc peak while it runs (stages nest)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        traced_peak(open_peaks)
        open_peaks[name] = 0
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start
            traced_peak(open_peaks)
            peaks[name] = max(peaks.get(name, 0), open_peaks.pop(name))

    return wrapper


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=20000)
    parser.add_argument("--p", type=float, default=1.0, help="node2vec return parameter")
    parser.add_argument("--q", type=float, default=1.0, help="node2vec in-out parameter")
    args = parser.parse_args()

    n = args.nodes
    sizes = [n // 7, 2 * n // 7, n - n // 7 - 2 * n // 7]
    p_intra = min(1.0, 0.8 * DEGREE * 3 / n)
    p_inter = min(p_intra, 0.2 * DEGREE * 3 / (2 * n))
    config = ExperimentConfig(
        sbm_block_sizes=sizes,
        sbm_p_intra=p_intra,
        sbm_p_inter=p_inter,
        sbm_control_classes=3,
        sbm_control_bonus=p_inter,
        dataset_name=f"sbm-{n}",
        control_attribute="control",
        walks_per_node=WALKS_PER_NODE,
        walk_length=WALK_LENGTH,
        p=args.p,
        q=args.q,
        dim=DIM,
        epochs=EPOCHS,
        folds=FOLDS,
        seed=SEED,
    ).with_preset("low_awareness")

    seconds, peaks, open_peaks = {}, {}, {}
    for module, attr, name in STAGES:
        setattr(module, attr, timed(seconds, peaks, open_peaks, name, getattr(module, attr)))
    import_mb = maxrss_mb()
    tracemalloc.start()
    open_peaks["run"] = 0
    start = time.perf_counter()
    result = pipeline.execute(config)
    total = time.perf_counter() - start
    traced_peak(open_peaks)
    tracemalloc.stop()
    print(json.dumps({
        "nodes": result.dataset.graph.node_count,
        "edges": result.dataset.graph.edge_count,
        "p": config.p,
        "q": config.q,
        "ru_maxrss_import_mb": round(import_mb, 1),
        "ru_maxrss_mb": round(maxrss_mb(), 1),
        "tracemalloc_peak_mb": round(open_peaks["run"] / 2**20, 1),
        "stage_peak_mb": {name: round(peak / 2**20, 1) for name, peak in peaks.items()},
        "execute_s": round(total, 3),
        "stage_s": {name: round(s, 3) for name, s in seconds.items()},
    }, indent=2))


if __name__ == "__main__":
    main()
