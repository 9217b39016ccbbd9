"""The benchmark workloads.

A workload derives all its inputs from the workload seed and hands the
package only configs and files. The harness calls ``setup`` several times
(each call in a fresh directory) and times each call, then calls
``iterate`` repeatedly for the measurement window. ``iterate`` returns the
bytes of the files the determinism contract covers; the harness compares
them with the first iteration's. ``check`` validates one iteration's
outputs beyond that.

Sizes are chosen so that one iteration takes a few seconds on a 2-core
machine and the layer each workload targets dominates it; ``toy=True``
shrinks every workload to run in well under a second for the self-check.
"""

import contextlib
import csv
import io
import json
import math
import os
import time

import numpy as np

from fairwalks import cli, pipeline, sweep
from fairwalks.pipeline import ExperimentConfig


class CheckFailed(Exception):
    """An iteration's outputs violate the benchmark's correctness checks."""


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _check_report(raw: bytes):
    report = json.loads(raw)
    for key in ("awareness", "disparity", "performance"):
        value = report.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise CheckFailed(f"report {key} is {value!r}, expected a finite number")
    return report


def _cli(argv):
    """Run one CLI verb in-process; a non-zero exit is an iteration failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"fairwalks {argv[0]} exited {code}: {err.getvalue().strip()}")


def _warm_up(seed, work_dir):
    """One toy run through every pipeline stage, so that first-call costs
    (lazy imports, numpy dispatch) land in set-up and not in the first
    timed iteration."""
    config = ExperimentConfig(
        sbm_block_sizes=[8, 8], sbm_p_intra=0.6, sbm_p_inter=0.1,
        sbm_control_classes=2, control_attribute="control",
        intervention="crosswalk", alpha=0.5, beta=1.0,
        walks_per_node=1, walk_length=5, dim=4, epochs=1, folds=2, seed=seed,
    )
    pipeline.run_experiment(config, os.path.join(work_dir, "warm_up"))


class Workload:
    name = ""
    setup_reps = 3
    # alpha of the last corpus an iteration generates (0 when baseline),
    # reported next to the realized cross-group step fraction
    alpha = 0.0
    # calibrate.py kernels shaped like the layers that dominate an iteration
    calibration = ()

    def __init__(self, seed: int, toy: bool):
        self.seed = seed

    def setup(self, rep: int, work_dir: str):
        _warm_up(self.seed, work_dir)

    def iterate(self, out_dir: str) -> dict:
        raise NotImplementedError

    def check(self, outputs: dict):
        pass

    def traced_extras(self, work_dir: str, serial_wall_s: float, reference: dict) -> dict:
        """Extra per-layer numbers a traced run measures once, untraced."""
        return {}


class AcceptanceRun(Workload):
    """``run_experiment`` on the acceptance graph family at half size, with
    the low-awareness preset and a fresh cache per iteration, so every
    stage runs and writes the cache. Training dominates."""

    name = "acceptance_run"
    calibration = ("sgns",)
    alpha = pipeline.PRESETS["low_awareness"]["alpha"]

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        self.config = ExperimentConfig(
            sbm_block_sizes=[10, 20, 40] if toy else [50, 100, 200],
            sbm_p_intra=0.3 if toy else 0.1,
            sbm_p_inter=0.06 if toy else 0.02,
            sbm_control_classes=3,
            sbm_control_bonus=0.05,
            dataset_name="acceptance",
            control_attribute="control",
            walks_per_node=2 if toy else 6,
            walk_length=10 if toy else 20,
            dim=32,
            epochs=1,
            folds=3 if toy else 5,
            seed=seed,
        ).with_preset("low_awareness")

    def iterate(self, out_dir):
        pipeline.run_experiment(
            self.config, os.path.join(out_dir, "run"), cache_dir=os.path.join(out_dir, "cache")
        )
        return {"report.json": _read(os.path.join(out_dir, "run", "report.json"))}

    def check(self, outputs):
        _check_report(outputs["report.json"])


class WalkChain(Workload):
    """CLI ``bias`` then ``walk`` with p, q != 1 on graph files made in
    set-up: file ingest, closeness, reweighting, biased-file I/O and the
    second-order walk loop. No training or evaluation."""

    name = "walk_chain"
    calibration = ("walks",)
    alpha = 0.5
    walks_per_node = 2
    walk_length = 40

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        self.block_sizes = "20,40,60" if toy else "100,200,300"
        self.p_intra, self.p_inter = ("0.3", "0.05") if toy else ("0.06", "0.01")
        self.edges = self.attrs = None

    def setup(self, rep, work_dir):
        super().setup(rep, work_dir)
        self.edges = os.path.join(work_dir, "edges.tsv")
        self.attrs = os.path.join(work_dir, "attrs.tsv")
        _cli([
            "gen-sbm", "--block-sizes", self.block_sizes,
            "--p-intra", self.p_intra, "--p-inter", self.p_inter,
            "--control-classes", "3", "--control-bonus", "0.01",
            "--seed", str(self.seed), "--out-edges", self.edges, "--out-attrs", self.attrs,
        ])

    def iterate(self, out_dir):
        os.makedirs(out_dir)
        biased = os.path.join(out_dir, "biased.tsv")
        corpus = os.path.join(out_dir, "corpus.txt")
        _cli([
            "bias", "--edges", self.edges, "--attrs", self.attrs, "--attribute", "block",
            "--alpha", str(self.alpha), "--beta", "2", "--seed", str(self.seed),
            "--out", biased,
        ])
        _cli([
            "walk", "--edges", self.edges, "--attrs", self.attrs, "--biased", biased,
            "--p", "0.5", "--q", "2", "--walks-per-node", str(self.walks_per_node),
            "--walk-length", str(self.walk_length), "--seed", str(self.seed),
            "--out", corpus,
        ])
        return {"biased.tsv": _read(biased), "corpus.txt": _read(corpus)}

    def check(self, outputs):
        """Every walk has full length and every step follows a graph edge.

        Node IDs of a generated SBM are integers, so edges are checked as
        sorted int64 keys: set-of-string-tuples would allocate more than
        the workload itself and show up in ``peak_rss_mb``.
        """
        pairs = np.loadtxt(self.edges, dtype=np.int64, usecols=(0, 1), ndmin=2)
        bound = int(pairs.max()) + 1
        keys = np.sort(np.concatenate([pairs[:, 0] * bound + pairs[:, 1],
                                       pairs[:, 1] * bound + pairs[:, 0]]))
        nodes = np.unique(pairs).size
        walks_ = outputs["corpus.txt"].decode().splitlines()
        if len(walks_) != nodes * self.walks_per_node:
            raise CheckFailed(f"{len(walks_)} walks for {nodes} nodes")
        for line in walks_:
            w = np.array(line.split(), dtype=np.int64)
            if len(w) != self.walk_length + 1:
                raise CheckFailed(f"walk of {len(w)} tokens, expected {self.walk_length + 1}")
            steps = w[:-1] * bound + w[1:]
            found = keys[np.minimum(np.searchsorted(keys, steps), len(keys) - 1)] == steps
            if not found.all():
                raise CheckFailed(f"walk step {w[:-1][~found][0]}->{w[1:][~found][0]} "
                                  "is not an edge")


class EvalWarm(Workload):
    """Reruns of three cached experiments: every stage cache hits, so an
    iteration is SBM synthesis, reweighting, cache reads, 25-fold label
    propagation and artifact writes. Each set-up is one cold run of one of
    the three graphs; averaging three graphs damps how much one graph's
    propagation convergence sways the timing."""

    name = "eval_warm"
    calibration = ("propagation",)

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        self.configs = [
            ExperimentConfig(
                sbm_block_sizes=[10, 20, 40] if toy else [60, 120, 220],
                sbm_p_intra=0.3 if toy else 0.12,
                sbm_p_inter=0.06 if toy else 0.024,
                sbm_control_classes=3,
                sbm_control_bonus=0.015,
                control_attribute="control",
                intervention="crosswalk",
                alpha=0.5,
                beta=2.0,
                walks_per_node=1,
                walk_length=10,
                dim=16,
                epochs=1,
                folds=3 if toy else 25,
                seed=seed * self.setup_reps + j,
            )
            for j in range(self.setup_reps)
        ]
        self.cache_dir = None
        self.cold_reports = {}

    def setup(self, rep, work_dir):
        super().setup(rep, work_dir)
        if self.cache_dir is None:
            self.cache_dir = os.path.join(work_dir, "cache")
        out = os.path.join(work_dir, "cold")
        pipeline.run_experiment(self.configs[rep], out, cache_dir=self.cache_dir)
        self.cold_reports[f"report{rep}.json"] = _read(os.path.join(out, "report.json"))

    def iterate(self, out_dir):
        outputs = {}
        for j, config in enumerate(self.configs):
            out = os.path.join(out_dir, f"run{j}")
            pipeline.run_experiment(config, out, cache_dir=self.cache_dir)
            outputs[f"report{j}.json"] = _read(os.path.join(out, "report.json"))
        return outputs

    def check(self, outputs):
        """Cache reads must reproduce the cold runs' reports byte for byte."""
        for key, raw in outputs.items():
            _check_report(raw)
            if raw != self.cold_reports[key]:
                raise CheckFailed(f"warm {key} differs from the cold run's")


class SweepSmall(Workload):
    """A 12-run sweep (8 CrossWalk, 4 baseline) over one small SBM with a
    fresh out dir per iteration: sweep bookkeeping, closeness cache hits
    across configs, and many short trainings at a small vocabulary."""

    name = "sweep_small"
    calibration = ("sgns", "walks", "propagation")
    # the last run of the expansion is alpha=0.75, p=1, q=2
    alpha = 0.75
    runs = 12

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        self.base = ExperimentConfig(
            sbm_block_sizes=[6, 12, 24] if toy else [25, 50, 100],
            sbm_p_intra=0.5 if toy else 0.2,
            sbm_p_inter=0.1 if toy else 0.04,
            sbm_control_classes=3,
            sbm_control_bonus=0.05,
            dataset_name="sweep_small",
            control_attribute="control",
            walks_per_node=1,
            walk_length=10,
            dim=16,
            epochs=1,
            folds=2 if toy else 5,
            seed=seed,
        )
        self.spec = sweep.SweepSpec(alphas=[0.25, 0.75], betas=[2], ps=[0.5, 1], qs=[1, 2])

    def setup(self, rep, work_dir):
        super().setup(rep, work_dir)
        plans = self.spec.expand(self.base)
        if len(plans) != self.runs:
            raise CheckFailed(f"sweep expands to {len(plans)} runs, expected {self.runs}")

    def iterate(self, out_dir, workers=1):
        csv_path, _, executed = sweep.run_sweep(self.spec, self.base, out_dir, workers=workers)
        if executed != self.runs:
            raise CheckFailed(f"sweep executed {executed} runs, expected {self.runs}")
        return {"results.csv": _read(csv_path)}

    def check(self, outputs):
        rows = list(csv.DictReader(io.StringIO(outputs["results.csv"].decode())))
        if len(rows) != self.runs:
            raise CheckFailed(f"results.csv has {len(rows)} rows, expected {self.runs}")
        for row in rows:
            if row["status"] != "ok":
                raise CheckFailed(f"sweep row {row['run_id']} has status {row['status']}")
            for key in ("awareness", "disparity", "performance"):
                if not math.isfinite(float(row[key] or "nan")):
                    raise CheckFailed(f"sweep row {row['run_id']} has {key}={row[key]!r}")

    def traced_extras(self, work_dir, serial_wall_s, reference):
        """Serial wall over the wall of the same sweep on 2 worker threads,
        whose rows must match the serial table's in any order."""
        start = time.perf_counter()
        threaded = self.iterate(os.path.join(work_dir, "threads2"), workers=2)["results.csv"]
        threaded_s = time.perf_counter() - start
        serial = reference["results.csv"]
        if sorted(serial.splitlines()) != sorted(threaded.splitlines()):
            raise CheckFailed("the 2-thread sweep's rows differ from the serial sweep's")
        return {"sweep.thread_speedup": serial_wall_s / threaded_s}


WORKLOADS = {w.name: w for w in (AcceptanceRun, WalkChain, EvalWarm, SweepSmall)}
