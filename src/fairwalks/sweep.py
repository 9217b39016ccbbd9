"""Hyperparameter sweeps over the pipeline, with a resumable CSV table.

A sweep expands a grid of (alpha, beta) x (p, q) into crosswalk runs plus,
optionally, (p, q) baseline runs. Each run appends one row to a fixed,
versioned column set; rerunning skips runs whose full config hash matches
a completed row, so nothing but missing or failed runs is recomputed.
"""

import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from itertools import product

from fairwalks.graph import atomic_writer
from fairwalks.pipeline import (  # the row format lives in pipeline and is re-exported
    LIST_SEP, PRESETS, SWEEP_COLUMNS, SWEEP_SCHEMA_VERSION, SWEPT_FIELDS, ExperimentConfig,
    StageError, _check_field_types, _json_fields, _row_line, csv_header_line, execute,
    prepare_dataset, report_csv_line,
)


@dataclass
class SweepSpec:
    """Value grids per parameter; empty lists fall back to the base config."""

    alphas: list[float] = field(default_factory=list)
    betas: list[float] = field(default_factory=list)
    ps: list[float] = field(default_factory=list)
    qs: list[float] = field(default_factory=list)
    include_baseline: bool = True
    cartesian: bool = True
    presets: list[str] = field(default_factory=list)
    cap: int = 10_000

    @classmethod
    def reference_grid(cls) -> "SweepSpec":
        """The full reference grid: 875 crosswalk plus 25 baseline runs."""
        return cls(
            alphas=[0.01, 0.25, 0.5, 0.75, 0.99],
            betas=[1, 2, 3, 5, 8, 11, 15],
            ps=[0.1, 0.5, 1, 5.0, 10.0],
            qs=[0.1, 0.5, 1, 5.0, 10.0],
        )

    @classmethod
    def load(cls, path) -> "SweepSpec":
        with open(path) as f:
            spec = cls(**_json_fields(cls, json.load(f), "sweep"))
        _check_field_types(spec, "sweep")
        return spec

    def expand(self, base: ExperimentConfig):
        """All distinct run configs, baselines first. Honors the cartesian flag.

        A grid with no alphas, betas or presets over a CrossWalk base config
        plans the base's own (alpha, beta) over the (p, q) grid. A config
        that comes up twice (a preset whose (alpha, beta) is also on the
        grid) is kept once, in its first place; ``cap`` counts the distinct
        configs.
        """
        ps = self.ps or [base.p]
        qs = self.qs or [base.q]
        plans = []
        if self.include_baseline:
            for p, q in product(ps, qs):
                plans.append(
                    base.replace(intervention="baseline", alpha=None, beta=None, p=p, q=q)
                )
        pairs = []
        if self.alphas or self.betas:
            alphas = self.alphas or [base.alpha]
            betas = self.betas or [base.beta]
            for name, values in (("alphas", alphas), ("betas", betas)):
                if None in values:
                    raise ValueError(f"the grid lists no {name}, nor does the base config")
            if self.cartesian:
                pairs = list(product(alphas, betas))
            else:
                if len(alphas) != len(betas):
                    raise ValueError("non-cartesian sweeps need aligned alpha/beta lists")
                pairs = list(zip(alphas, betas))
        elif not self.presets and base.intervention == "crosswalk":
            pairs = [(base.alpha, base.beta)]
        for name in self.presets:
            preset = base.with_preset(name)
            pairs.append((preset.alpha, preset.beta))
        for (alpha, beta), (p, q) in product(pairs, product(ps, qs)):
            plans.append(
                base.replace(
                    intervention="crosswalk", alpha=float(alpha), beta=float(beta), p=p, q=q
                )
            )
        if not plans:
            plans = [base]
        # a preset on the grid would otherwise run, and be counted, twice;
        # plans differ from base only in SWEPT_FIELDS, so equal keys mean
        # equal configs (a tuple key costs far less than config_hash)
        unique = {}
        for cfg in plans:
            unique.setdefault(tuple(getattr(cfg, name) for name in SWEPT_FIELDS), cfg)
        plans = list(unique.values())
        if len(plans) > self.cap:
            raise ValueError(f"sweep expands to {len(plans)} runs, over the cap of {self.cap}")
        return plans


def read_sweep_table(path):
    """Rows of the results CSV as dicts keyed by column name, less a last
    row that an interrupted append cut off before its newline."""
    with open(path, newline="") as f:
        text = f.read()
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows[:-1] if rows and not text.endswith("\n") else rows


def run_sweep(
    spec: SweepSpec,
    base: ExperimentConfig,
    out_dir,
    workers: int = 1,
    runner=None,
):
    """Execute every expanded config, appending rows to results.csv.

    Returns (csv path, plans, executed count). The header and the kept ok
    rows are rewritten through ``atomic_writer``, then each run appends its
    row. A run is skipped when an ok row has its config hash; error rows, a
    partial last row and rows of an older schema are dropped and rerun.
    A run's evaluation warnings go to stderr as ``warning: <run_id>:
    <text>``; the table has no column for them. Runs are serial whatever
    ``workers`` is: the sweep's work holds the interpreter lock, and
    threads measured slower than one worker. ``workers`` stays only
    because ``perfbench/workloads.py`` passes it; ROADMAP item 3 decides
    its fate.

    The runs differ only in ``SWEPT_FIELDS``, so the default runner builds
    one ``Dataset`` (which estimates the boundary closeness once) at the
    first run that passes ``validate`` and hands it to every run. A resumed
    sweep with nothing left to run builds none. If building fails, every
    run that needed it gets that error's row.
    """
    plans = spec.expand(base)
    csv_path = os.path.join(out_dir, "results.csv")
    os.makedirs(out_dir, exist_ok=True)
    existing = []
    if os.path.exists(csv_path):
        # error and old-schema rows are dropped here so they get retried below
        existing = [row for row in read_sweep_table(csv_path) if row["status"] == "ok"
                    and row["schema_version"] == str(SWEEP_SCHEMA_VERSION)]
    done = {row["config_hash"] for row in existing}
    # an interrupted rewrite must leave the old table, not lose its rows
    with atomic_writer(csv_path) as f:
        f.write(csv_header_line())
        for row in existing:
            f.write(_row_line(row))

    cache_dir = os.path.join(out_dir, "cache")
    if runner is None:
        shared = None  # the Dataset, or the StageError that building it raised

        def runner(cfg):
            nonlocal shared
            cfg.validate()
            if shared is None:
                try:
                    shared = prepare_dataset(cfg)
                except StageError as exc:
                    shared = exc
            if isinstance(shared, StageError):
                raise shared
            return execute(cfg, cache_dir=cache_dir, dataset=shared).report

    todo = [cfg for cfg in plans if cfg.config_hash() not in done]
    for cfg in todo:
        try:
            report = runner(cfg)
            line = report_csv_line(cfg, report)
        except (StageError, ValueError, RuntimeError) as exc:
            line = report_csv_line(cfg, None, error=exc)
        else:
            for text in report.warnings:
                print(f"warning: {cfg.run_id()}: {text}", file=sys.stderr)
        with open(csv_path, "a") as f:
            f.write(line)
    return csv_path, plans, len(todo)


def _stats(values):
    values = list(values)
    return {
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
        "count": len(values),
    }


def _aggregate(rows, buckets):
    """Baseline/config/preset/bucket views over one set of ok rows."""
    out = {"baseline": None, "configs": [], "presets": {}, "group_size_buckets": {}}
    baseline_rows = [r for r in rows if r["intervention"] == "baseline"]
    crosswalk_rows = [r for r in rows if r["intervention"] == "crosswalk"]

    def metric_block(subset):
        block = {}
        for metric in ("awareness", "disparity", "performance"):
            values = [float(r[metric]) for r in subset if r[metric] != ""]
            if values:
                block[metric] = _stats(values)
        return block

    if baseline_rows:
        out["baseline"] = metric_block(baseline_rows)

    by_pair = {}
    for r in crosswalk_rows:
        by_pair.setdefault((float(r["alpha"]), float(r["beta"])), []).append(r)
    for (alpha, beta), subset in sorted(by_pair.items()):
        entry = {"alpha": alpha, "beta": beta}
        entry.update(metric_block(subset))
        out["configs"].append(entry)

    for name, preset in PRESETS.items():
        key = (preset["alpha"], preset["beta"])
        if key in by_pair:
            entry = metric_block(by_pair[key])
            if out["baseline"] is not None:
                for metric in ("awareness", "disparity", "performance"):
                    if metric in entry and metric in out["baseline"]:
                        entry[f"{metric}_delta_vs_baseline"] = (
                            entry[metric]["mean"] - out["baseline"][metric]["mean"]
                        )
            out["presets"][name] = entry

    # per-group scores bucketed by relative group size, per configuration kind
    edges = [i / buckets for i in range(buckets + 1)]
    for kind, subset in [("baseline", baseline_rows)] + [
        (f"alpha={a:g},beta={b:g}", rows_) for (a, b), rows_ in sorted(by_pair.items())
    ]:
        points = []
        for r in subset:
            if r["status"] != "ok" or not r["q_mean"]:
                continue
            sizes = [int(s) for s in r["group_sizes"].split(LIST_SEP)]
            scores = [float(v) for v in r["q_mean"].split(LIST_SEP)]
            total = sum(sizes)
            points.extend((s / total, q) for s, q in zip(sizes, scores))
        if not points:
            continue
        bucket_rows = []
        for lo, hi in zip(edges, edges[1:]):
            members = [q for rel, q in points if lo <= rel < hi or (hi == 1.0 and rel == 1.0)]
            bucket_rows.append(
                {
                    "relative_size_low": lo,
                    "relative_size_high": hi,
                    "mean_score": sum(members) / len(members) if members else None,
                    "count": len(members),
                }
            )
        out["group_size_buckets"][kind] = bucket_rows
    return out


def summarize(csv_path, buckets: int = 3) -> dict:
    """Aggregate a sweep table into per-dataset and overall summaries."""
    if not buckets >= 1:
        raise ValueError(f"buckets must be >= 1, got {buckets!r}")
    rows = [r for r in read_sweep_table(csv_path) if r["status"] == "ok"]
    if not rows:
        raise ValueError(f"{csv_path}: no successful rows to summarize")
    datasets = sorted({r["dataset"] for r in rows})
    summary = {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "rows": len(rows),
        "datasets": {
            name: _aggregate([r for r in rows if r["dataset"] == name], buckets)
            for name in datasets
        },
    }
    summary["overall"] = _aggregate(rows, buckets)
    return summary
