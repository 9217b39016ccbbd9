#!/usr/bin/env python3
"""Milliseconds and tracemalloc peaks of the file readers and writers.

The graph has walk_chain's shape (see ``perfbench/workloads.py``): a block
model made by ``pipeline.prepare_dataset`` with blocks 100/200/300, p_intra
0.06, p_inter 0.01 and 3 control classes with bonus 0.01, at seed 1. Its
biased weights are CrossWalk's at alpha 0.5, beta 2, and its corpus has 2
walks per node of length 40 at p 0.5, q 2, as the ``bias`` and ``walk``
verbs make them. In a temporary directory the script times, ``--reps``
times each, ``save_graph``, ``load_graph``, ``save_biased``,
``load_biased`` and ``save_corpus``, then runs each once more under
``tracemalloc``. It prints JSON with, per call, the minimum and median
milliseconds and the peak of traced memory in MB. ``--toy`` uses blocks
20/40/60 at p_intra 0.3, p_inter 0.05, to run in a second.

Run:
    python3 scripts/time_io.py --reps 30
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fairwalks import crosswalk, graph, pipeline, walks  # noqa: E402
from fairwalks.pipeline import ExperimentConfig  # noqa: E402

SEED = 1


def walk_chain_config(toy):
    """The config of walk_chain's graph, weights and walks; ``toy`` shrinks the graph."""
    return ExperimentConfig(
        sbm_block_sizes=[20, 40, 60] if toy else [100, 200, 300],
        sbm_p_intra=0.3 if toy else 0.06, sbm_p_inter=0.05 if toy else 0.01,
        sbm_control_classes=3, sbm_control_bonus=0.01,
        intervention="crosswalk", alpha=0.5, beta=2.0,
        p=0.5, q=2.0, walks_per_node=2, walk_length=40, seed=SEED,
    )


def measure(call, reps):
    seconds = []
    for _ in range(reps):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"min_ms": 1e3 * min(seconds), "median_ms": 1e3 * statistics.median(seconds),
            "peak_mb": peak / 2**20}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=20,
                        help="timed calls of each reader and writer")
    parser.add_argument("--toy", action="store_true", help="a tiny graph, for a smoke test")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    config = walk_chain_config(args.toy)
    dataset = pipeline.prepare_dataset(config)
    g = dataset.graph
    weights = pipeline.walk_weights(config, dataset)
    corpus = pipeline.walk_corpus(config, weights)
    out = {"reps": args.reps, "toy": args.toy, "nodes": g.node_count, "edges": g.edge_count}
    with tempfile.TemporaryDirectory() as tmp:
        edges, attrs = Path(tmp, "edges.tsv"), Path(tmp, "attrs.tsv")
        biased, corpus_path = Path(tmp, "biased.tsv"), Path(tmp, "corpus.txt")
        out["save_graph"] = measure(lambda: graph.save_graph(g, edges, attrs), args.reps)
        out["load_graph"] = measure(lambda: graph.load_graph(edges, attrs), args.reps)
        out["save_biased"] = measure(lambda: crosswalk.save_biased(weights, biased), args.reps)
        out["load_biased"] = measure(lambda: crosswalk.load_biased(biased, g), args.reps)
        out["save_corpus"] = measure(
            lambda: walks.save_corpus(corpus, corpus_path, g.original_ids), args.reps)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
