#!/usr/bin/env python3
"""Run the full reference hyperparameter grid on a synthetic graph.

Expands to 875 crosswalk runs (alpha x beta x p x q) plus 25 baseline
runs (p x q) and executes them with a resumable results CSV; interrupting
and restarting skips completed rows. At the default sizes a run takes
about 0.45 s, almost all of it training, so the grid takes about 7
minutes serially on a 2-vCPU host; shrink the graph or walk settings
for a faster pass.

Run:
    python3 scripts/run_reference_grid.py --out-dir grid-out
"""

import argparse
import json
import os

from fairwalks.graph import atomic_writer
from fairwalks.pipeline import ExperimentConfig
from fairwalks.sweep import SweepSpec, run_sweep, summarize


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--block-sizes", default="60,120,240",
                        type=lambda s: [int(x) for x in s.split(",")])
    parser.add_argument("--p-intra", type=float, default=0.1)
    parser.add_argument("--p-inter", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--walks-per-node", type=int, default=6)
    parser.add_argument("--walk-length", type=int, default=25)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--folds", type=int, default=25)
    args = parser.parse_args()

    base = ExperimentConfig(
        sbm_block_sizes=args.block_sizes,
        sbm_p_intra=args.p_intra,
        sbm_p_inter=args.p_inter,
        sbm_control_classes=3,
        sbm_control_bonus=0.05,
        dataset_name="reference-grid",
        sensitive_attribute="block",
        control_attribute="control",
        walks_per_node=args.walks_per_node,
        walk_length=args.walk_length,
        dim=args.dim,
        epochs=args.epochs,
        folds=args.folds,
        seed=args.seed,
    )
    spec = SweepSpec.reference_grid()
    plans = spec.expand(base)
    print(f"grid: {len(plans)} runs (resume supported, rerun to continue)")

    csv_path, _, executed = run_sweep(spec, base, args.out_dir)
    print(f"executed {executed} new runs; table at {csv_path}")

    summary = summarize(csv_path)
    summary_path = os.path.join(args.out_dir, "summary.json")
    with atomic_writer(summary_path) as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"summary at {summary_path}")
    for name, entry in summary["overall"].get("presets", {}).items():
        delta = entry.get("awareness_delta_vs_baseline")
        if delta is not None:
            print(f"  {name}: awareness delta vs baseline = {delta:+.3f}")


if __name__ == "__main__":
    main()
