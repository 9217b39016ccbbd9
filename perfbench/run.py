"""fairwalks benchmark: one workload per process, metrics as JSON.

Run from the root of a checkout:

    python3 perfbench/run.py --workload acceptance_run --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout and treated as a
black box. Set-up runs several times and is timed apart from the
iterations; iterations then repeat until ``--seconds`` have passed. With
``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, from
iterations that alternate between tracing off and on (the difference is
the tracing overhead). Every iteration's covered outputs must be
byte-identical to the first's, and each must pass the workload's checks;
an iteration that raises or fails a check counts as failed.

``--workload all`` runs every workload in its own child process and prints
one table, exiting non-zero if any run fails or is incorrect; add
``--toy`` for the self-check, which shrinks every workload to a few
seconds in total. A results file with the environment, the
per-iteration times and (traced) the spans goes to ``.perfbench_out/``.
"""

import os

# pin BLAS before numpy loads: one thread per process, so that all load
# comes from this one process and timings do not depend on core count
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("acceptance_run", "walk_chain", "eval_warm", "sweep_small")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size inputs, for the harness self-check")
    return parser.parse_args(argv)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


def environment():
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as f:
            src_lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def measure(workload, seconds, trace, work):
    """Set up, then iterate for ``seconds``; returns (metrics, record).

    Every set-up and iteration is bracketed by calibration samples, and
    the end-to-end times are scaled by them (see calibrate.py).
    """
    from calibrate import Calibration
    from tracer import Tracer, layer_metrics

    calibrate = Calibration(workload.calibration)
    calibrations = [calibrate()]

    def scaled(elapsed):
        calibrations.append(calibrate())
        return elapsed * calibrate.reference_s / ((calibrations[-2] + calibrations[-1]) / 2)

    setup_times, scaled_setups = [], []
    for rep in range(workload.setup_reps):
        start = time.perf_counter()
        workload.setup(rep, str(work / f"setup{rep}"))
        setup_times.append(time.perf_counter() - start)
        scaled_setups.append(scaled(setup_times[-1]))

    tracer = Tracer() if trace else None
    walls, scaled_walls, traced_walls, layer_samples, spans = [], [], [], [], []
    reference = None
    attempted = failed = 0
    window_start = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        out = work / f"iter{attempted}"
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            outputs = workload.iterate(str(out))
            elapsed = time.perf_counter() - start
        except Exception:  # an iteration failure is counted, and the run goes on
            elapsed = time.perf_counter() - start
            outputs = None
            traceback.print_exc()
        finally:
            if traced:
                tracer.uninstall()
        attempted += 1
        if traced:
            traced_walls.append(elapsed)
            calibrations.append(calibrate())
        else:
            walls.append(elapsed)
            scaled_walls.append(scaled(elapsed))
        ok = outputs is not None and check(workload, outputs, reference)
        if ok and reference is None:
            reference = outputs
        failed += not ok
        if traced:
            spans.extend(tracer.spans)
            layer_samples.append(layer_metrics(tracer.spans, tracer.facts, workload.alpha))
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()  # each iteration starts without the last one's garbage
        if time.perf_counter() - window_start >= seconds and walls and (
            traced_walls or not trace
        ):
            break

    if trace:
        wall_s = statistics.median(walls)
        metrics = {
            name: statistics.median(sample[name] for sample in layer_samples)
            for name in layer_samples[0]
        }
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - wall_s
        metrics["sweep.thread_speedup"] = 0.0
        if reference is not None:
            attempted += 1
            try:
                metrics.update(workload.traced_extras(str(work), wall_s, reference))
            except Exception:
                failed += 1
                traceback.print_exc()
    else:
        metrics = {
            "wall_s": statistics.median(scaled_walls),
            "setup_s": statistics.median(scaled_setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (attempted - failed) / attempted,
        }
    record = {
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_times,
        "scaled_setup_s": scaled_setups,
        "wall_s": walls,
        "scaled_wall_s": scaled_walls,
        "traced_wall_s": traced_walls,
        "calibration_s": calibrations,
        "spans": [[s.id, s.parent, s.name, s.start, s.end] for s in spans],
    }
    return metrics, record


def check(workload, outputs, reference) -> bool:
    """Determinism against the first good iteration, then the workload's checks."""
    from workloads import CheckFailed

    try:
        if reference is not None:
            for key, raw in outputs.items():
                if raw != reference[key]:
                    raise CheckFailed(f"{key} differs from the first iteration's")
        else:
            workload.check(outputs)
    except (CheckFailed, ValueError, KeyError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False
    return True


def run_one(args) -> int:
    if not (SRC / "fairwalks" / "__init__.py").is_file():
        print(f"error: no fairwalks package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    end_to_end, per_layer = load_spec()
    wanted = per_layer if args.trace else end_to_end

    workload = WORKLOADS[args.workload](args.seed, args.toy)
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "work"))
    try:
        metrics, record = measure(workload, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(wanted):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(wanted))}")

    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in wanted.items()
        },
    }
    env = environment()
    results_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results_file, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "toy": args.toy, "env": env, "result": result,
                   **record}, f, indent=1)
    print(json.dumps({"env": env, "results_file": str(results_file.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if done.returncode != 0 or result is None:
            print(f"{name}: exit {done.returncode}\n{done.stderr}")
            status = 1
            continue
        status |= not result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:36s} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
