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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

from fairwalks.pipeline import PRESETS, ExperimentConfig, StageError, atomic_writer, execute

SWEEP_SCHEMA_VERSION = 2

SWEEP_COLUMNS = (
    "schema_version",
    "run_id",
    "config_hash",
    "dataset",
    "status",
    "error",
    "intervention",
    "alpha",
    "beta",
    "p",
    "q",
    "seed",
    "awareness",
    "disparity",
    "performance",
    "q_mean",
    "qstar_mean",
    "group_labels",
    "group_sizes",
)

LIST_SEP = "|"


@dataclass
class SweepSpec:
    """Value grids per parameter; empty lists fall back to the base config."""

    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    ps: list = field(default_factory=list)
    qs: list = field(default_factory=list)
    include_baseline: bool = True
    cartesian: bool = True
    presets: list = field(default_factory=list)
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
            data = json.load(f)
        known = {f_.name for f_ in cls.__dataclass_fields__.values()}
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(f"unknown sweep keys: {sorted(unknown)}")
        return cls(**data)

    def expand(self, base: ExperimentConfig):
        """All run configs, baselines first. Honors the cartesian flag."""
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
            if self.cartesian:
                pairs = list(product(alphas, betas))
            else:
                if len(alphas) != len(betas):
                    raise ValueError("non-cartesian sweeps need aligned alpha/beta lists")
                pairs = list(zip(alphas, betas))
        for name in self.presets:
            preset = PRESETS[name]
            pairs.append((preset["alpha"], preset["beta"]))
        for (alpha, beta), (p, q) in product(pairs, product(ps, qs)):
            plans.append(
                base.replace(
                    intervention="crosswalk", alpha=float(alpha), beta=float(beta), p=p, q=q
                )
            )
        if not plans:
            plans = [base]
        if len(plans) > self.cap:
            raise ValueError(f"sweep expands to {len(plans)} runs, over the cap of {self.cap}")
        return plans


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


def read_sweep_table(path):
    """Rows of the results CSV as dicts keyed by column name."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        return list(reader)


def run_sweep(
    spec: SweepSpec,
    base: ExperimentConfig,
    out_dir,
    workers: int = 1,
    dry_run: bool = False,
    runner=None,
):
    """Execute every expanded config, appending rows to results.csv.

    Returns (csv path, plans, executed count). ``dry_run`` enumerates
    without executing. A run is skipped when an ok row has its config hash;
    rows of an older schema (no hash) are dropped and rerun.
    """
    plans = spec.expand(base)
    csv_path = os.path.join(out_dir, "results.csv")
    if dry_run:
        return csv_path, plans, 0

    os.makedirs(out_dir, exist_ok=True)
    done = set()
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
    else:
        with open(csv_path, "w") as f:
            f.write(csv_header_line())

    cache_dir = os.path.join(out_dir, "cache")
    if runner is None:
        runner = lambda cfg: execute(cfg, cache_dir=cache_dir).report

    todo = [cfg for cfg in plans if cfg.config_hash() not in done]
    write_lock = threading.Lock()

    def run_one(cfg):
        try:
            report = runner(cfg)
            line = report_csv_line(cfg, report)
        except (StageError, ValueError, RuntimeError) as exc:
            line = report_csv_line(cfg, None, error=exc)
        with write_lock:
            with open(csv_path, "a") as f:
                f.write(line)

    if workers <= 1:
        for cfg in todo:
            run_one(cfg)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_one, todo))
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
