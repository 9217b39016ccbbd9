#!/usr/bin/env python3
"""Seconds of ``embedding.train`` on two fixed walk corpora.

``acceptance_run`` trains what the benchmark workload of that name trains:
``pipeline.execute`` runs once on ``AcceptanceRun``'s config (imported
from ``perfbench/workloads.py``) with ``embedding.train`` wrapped to
record its arguments. ``default_walks`` is the same config on the
700-node acceptance graph at the library's walk length: a baseline run
with 2x80 first-order walks, dim 64, one epoch. The benchmark's walks are
short, so a training kernel can win there and lose at this shape.

Each corpus's recorded ``train`` call is then repeated ``--reps`` times
with one BLAS thread. The script prints JSON with, per corpus, the median
seconds, the pairs per second and the microseconds per batch, counting
the batches ``PairStream.batches`` yielded in the recorded run. ``--toy``
shrinks both corpora to run in a second.

Run:
    python3 scripts/time_training.py --reps 7
"""

import os

# one BLAS thread, as the benchmark pins it, before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fairwalks import embedding, pipeline  # noqa: E402
from workloads import AcceptanceRun  # noqa: E402

SEED = 1


def corpus_configs(toy):
    """(name, config) of the two corpora; ``toy`` shrinks both graphs and walks."""
    run = AcceptanceRun(SEED, toy).config
    default = run.replace(
        intervention="baseline", alpha=None, beta=None,
        sbm_block_sizes=[2 * size for size in run.sbm_block_sizes],
        walks_per_node=2, walk_length=20 if toy else 80, dim=64,
    )
    return [("acceptance_run", run), ("default_walks", default)]


def recorded_training(config):
    """The arguments of the ``embedding.train`` call ``pipeline.execute``
    makes for ``config``, and the sizes of the batches it trained."""
    calls, sizes = [], []
    train, batches = embedding.train, embedding.PairStream.batches

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return train(*args, **kwargs)

    def counted(stream, *args):
        for centers, contexts in batches(stream, *args):
            sizes.append(len(centers))
            yield centers, contexts

    embedding.train, embedding.PairStream.batches = record, counted
    try:
        pipeline.execute(config)
    finally:
        embedding.train, embedding.PairStream.batches = train, batches
    (call,) = calls
    return call, sizes


def time_corpus(config, reps):
    (args, kwargs), sizes = recorded_training(config)
    seconds = []
    for _ in range(reps):
        start = time.perf_counter()
        embedding.train(*args, **kwargs)
        seconds.append(time.perf_counter() - start)
    paths, nodes = args[:2]
    pairs = sum(sizes)
    median = statistics.median(seconds)
    return {
        "nodes": nodes, "walks": len(paths), "dim": config.dim, "batch": max(sizes),
        "pairs": pairs, "batches": len(sizes),
        "median_s": median, "min_s": min(seconds), "max_s": max(seconds),
        "pairs_per_s": pairs / median,
        "us_per_batch": 1e6 * median / len(sizes),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=7, help="trainings per corpus")
    parser.add_argument("--toy", action="store_true", help="tiny corpora, for a smoke test")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    out = {"reps": args.reps, "toy": args.toy}
    for name, config in corpus_configs(args.toy):
        out[name] = time_corpus(config, args.reps)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
