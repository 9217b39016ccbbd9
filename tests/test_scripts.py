import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, *args):
    # the subprocess imports the package from this checkout's src
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )


@pytest.mark.parametrize(
    "script",
    ["compare_presets.py", "run_reference_grid.py", "measure_peak_rss.py", "hash_outputs.py",
     "time_training.py", "time_io.py", "time_sweep.py"],
)
def test_script_imports_and_shows_help(script):
    result = run_script(script, "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")


def test_measure_peak_rss_reports_memory_and_stages():
    result = run_script("measure_peak_rss.py", "--nodes", "120")
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert 0 < out["nodes"] <= 120 and out["edges"] > 0
    assert out["ru_maxrss_mb"] >= out["ru_maxrss_import_mb"] > 0
    assert set(out["stage_s"]) == set(out["stage_peak_mb"]) == {
        "dataset", "closeness", "reweight", "walks", "train", "knn_graph", "propagate",
        "evaluate",
    }
    # live traced bytes: each stage's peak is within the run's, a nested stage's within its caller's
    peaks = out["stage_peak_mb"]
    assert 0 < max(peaks.values()) <= out["tracemalloc_peak_mb"] < out["ru_maxrss_mb"]
    assert max(peaks["knn_graph"], peaks["propagate"]) <= peaks["evaluate"]


def test_measure_peak_rss_takes_p_and_q():
    result = run_script("measure_peak_rss.py", "--nodes", "120", "--p", "0.5", "--q", "2")
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert (out["p"], out["q"]) == (0.5, 2.0)
    assert out["stage_s"]["walks"] > 0


def test_time_training_reports_both_corpora():
    result = run_script("time_training.py", "--toy", "--reps", "2")
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["reps"] == 2 and out["toy"] is True
    for name, dim in (("acceptance_run", 32), ("default_walks", 64)):
        shape = out[name]
        assert shape["dim"] == dim and 0 < shape["nodes"] <= 140
        assert shape["batches"] == -(-shape["pairs"] // shape["batch"])
        assert shape["min_s"] <= shape["median_s"] <= shape["max_s"]
        assert shape["pairs_per_s"] > 0 and shape["us_per_batch"] > 0


def test_time_io_reports_every_reader_and_writer():
    result = run_script("time_io.py", "--toy", "--reps", "2")
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["reps"] == 2 and out["toy"] is True
    assert 0 < out["nodes"] <= 120 and out["edges"] > 0
    for name in ("save_graph", "load_graph", "save_biased", "load_biased", "save_corpus"):
        call = out[name]
        assert 0 < call["min_ms"] <= call["median_ms"]
        assert call["peak_mb"] > 0


def test_time_sweep_builds_the_dataset_once():
    result = run_script("time_sweep.py", "--toy", "--reps", "2")
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["reps"] == 2 and out["toy"] is True and out["runs"] == 6
    assert 0 < out["nodes"] <= 150 and out["edges"] > 0
    assert out["dataset_builds"] == 1 and out["closeness_estimates"] == 1
    assert 0 < out["sweep_min_s"] <= out["sweep_median_s"]
    assert set(out["stage_median_s"]) == {
        "dataset", "closeness", "reweight", "walks", "train", "evaluate",
    }
