#!/usr/bin/env python3
"""Seconds per stage of a small sweep, and how often it builds its dataset.

The sweep is a 2 x 2 grid of (alpha, p), alpha in {0.25, 0.75} at beta 2
and p in {0.5, 1} at q 1, plus the two baselines, on a three-block SBM
with ``--nodes`` nodes (mean degree 10, a fifth of it across blocks, 3
control classes) at seed 1. Each run has a small budget: 1 walk of length
10 per node, dim 16, 1 epoch, 2 folds. Each of ``--reps`` repetitions runs
``sweep.run_sweep`` into a fresh directory, so no embedding is cached. The
script prints JSON with the node and edge counts, the minimum and median
seconds of a whole sweep, the median seconds per stage, and the calls per
sweep of ``build_dataset`` and ``estimate_closeness``. ``--toy`` uses a
150-node graph, to run in a second.

Run:
    python3 scripts/time_sweep.py --nodes 5000 --reps 3
"""

import argparse
import functools
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fairwalks import crosswalk, embedding, evaluation, pipeline, sweep, walks  # noqa: E402
from fairwalks.pipeline import ExperimentConfig  # noqa: E402

# (module, function, stage name); evaluate includes the kNN graph and propagation
STAGES = (
    (pipeline, "build_dataset", "dataset"),
    (crosswalk, "estimate_closeness", "closeness"),
    (crosswalk, "reweight", "reweight"),
    (walks, "generate_walks", "walks"),
    (embedding, "train", "train"),
    (evaluation, "cross_validate", "evaluate"),
)
DEGREE = 10.0
TOY_NODES = 150
SPEC = sweep.SweepSpec(alphas=[0.25, 0.75], betas=[2.0], ps=[0.5, 1.0], qs=[1.0])


def sweep_config(n):
    """The sweep's base config on an n-node graph, shaped as ``measure_peak_rss.py``'s."""
    p_intra = min(1.0, 0.8 * DEGREE * 3 / n)
    return ExperimentConfig(
        sbm_block_sizes=[n // 7, 2 * n // 7, n - n // 7 - 2 * n // 7],
        sbm_p_intra=p_intra,
        sbm_p_inter=min(p_intra, 0.2 * DEGREE * 3 / (2 * n)),
        sbm_control_classes=3,
        dataset_name=f"sbm-{n}",
        control_attribute="control",
        walks_per_node=1,
        walk_length=10,
        dim=16,
        epochs=1,
        folds=2,
        seed=1,
    )


def instrument(seconds, calls):
    """Wrap every stage function to add its wall time and one call to its name."""
    for module, attr, name in STAGES:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def timed(*args, _fn=fn, _name=name, **kwargs):
            start = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                seconds[_name] = seconds.get(_name, 0.0) + time.perf_counter() - start
                calls[_name] = calls.get(_name, 0) + 1

        setattr(module, attr, timed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nodes", type=int, default=5000, help="nodes of the SBM before "
                        "isolated ones are dropped")
    parser.add_argument("--reps", type=int, default=3, help="timed sweeps")
    parser.add_argument("--toy", action="store_true",
                        help=f"a {TOY_NODES}-node graph, for a smoke test")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    n = TOY_NODES if args.toy else args.nodes
    if n < 7:
        parser.error("--nodes must be >= 7")
    base = sweep_config(n)
    seconds, calls = {}, {}
    instrument(seconds, calls)
    walls, stage_s, call_counts = [], [], []
    for _ in range(args.reps):
        seconds.clear()
        calls.clear()
        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter()
            csv_path, _, executed = sweep.run_sweep(SPEC, base, tmp)
            walls.append(time.perf_counter() - start)
            rows = sweep.read_sweep_table(csv_path)
        failed = [row["run_id"] for row in rows if row["status"] != "ok"]
        if failed:
            raise SystemExit(f"runs failed: {failed}")
        stage_s.append(dict(seconds))
        call_counts.append(dict(calls))
    g = pipeline.build_dataset(base)
    print(json.dumps({
        "nodes": g.node_count,
        "edges": g.edge_count,
        "reps": args.reps,
        "toy": args.toy,
        "runs": executed,
        "sweep_min_s": round(min(walls), 3),
        "sweep_median_s": round(statistics.median(walls), 3),
        "stage_median_s": {name: round(statistics.median(s.get(name, 0.0) for s in stage_s), 3)
                           for _, _, name in STAGES},
        "dataset_builds": call_counts[-1].get("dataset", 0),
        "closeness_estimates": call_counts[-1].get("closeness", 0),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
