#!/usr/bin/env python3
"""Peak memory and stage seconds of one pipeline run on an n-node SBM.

Runs ``pipeline.execute`` once, without a cache, on a three-block graph
with the low-awareness preset (so boundary closeness runs) and a small
walk and epoch budget, then prints JSON: the node and edge counts, the
walks' (p, q), the process's ``ru_maxrss`` after imports and after the
run (MB), and the seconds spent in each stage. ``--p`` and ``--q`` set
node2vec's return and in-out parameters (default 1, first-order walks);
any other value makes the walk stage build its (p, q) edge table.
``ru_maxrss`` is the high-water mark of the whole process, so run the
script in a fresh process per measurement.

Run:
    python3 scripts/measure_peak_rss.py --nodes 20000
    python3 scripts/measure_peak_rss.py --nodes 20000 --p 0.5 --q 2
"""

import argparse
import functools
import json
import resource
import time

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
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed(seconds, name, fn):
    """``fn``, adding its wall time to ``seconds[name]``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start

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

    seconds = {}
    for module, attr, name in STAGES:
        setattr(module, attr, timed(seconds, name, getattr(module, attr)))
    import_mb = maxrss_mb()
    start = time.perf_counter()
    result = pipeline.execute(config)
    total = time.perf_counter() - start
    print(json.dumps({
        "nodes": result.dataset.graph.node_count,
        "edges": result.dataset.graph.edge_count,
        "p": config.p,
        "q": config.q,
        "ru_maxrss_import_mb": round(import_mb, 1),
        "ru_maxrss_mb": round(maxrss_mb(), 1),
        "execute_s": round(total, 3),
        "stage_s": {name: round(s, 3) for name, s in seconds.items()},
    }, indent=2))


if __name__ == "__main__":
    main()
