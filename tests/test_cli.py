import json

import pytest

from fairwalks.cli import main
from fairwalks.embedding import load_embeddings
from fairwalks.graph import load_graph
from fairwalks.pipeline import SWEEP_SCHEMA_VERSION


@pytest.fixture
def dataset(tmp_path):
    rc = main([
        "gen-sbm", "--block-sizes", "15,15", "--p-intra", "0.5", "--p-inter", "0.08",
        "--control-classes", "2", "--control-bonus", "0.1", "--seed", "4",
        "--out-edges", str(tmp_path / "g.edges"),
        "--out-attrs", str(tmp_path / "g.attrs"),
        "--summary", str(tmp_path / "summary.json"),
    ])
    assert rc == 0
    return tmp_path


class TestStageVerbs:
    def test_gen_sbm_outputs(self, dataset):
        g = load_graph(dataset / "g.edges", dataset / "g.attrs")
        assert g.node_count <= 30
        summary = json.loads((dataset / "summary.json").read_text())
        assert summary["nodes"] == g.node_count
        assert set(summary["groups"]) == {"block", "control"}

    def test_bias_walk_embed_eval_chain(self, dataset):
        d = dataset
        assert main([
            "bias", "--edges", str(d / "g.edges"), "--attrs", str(d / "g.attrs"),
            "--attribute", "block", "--alpha", "0.5", "--beta", "2",
            "--seed", "1", "--out", str(d / "biased.tsv"),
        ]) == 0
        assert main([
            "walk", "--edges", str(d / "g.edges"), "--attrs", str(d / "g.attrs"),
            "--biased", str(d / "biased.tsv"), "--walks-per-node", "3",
            "--walk-length", "8", "--seed", "2", "--out", str(d / "corpus.txt"),
        ]) == 0
        assert main([
            "embed", "--corpus", str(d / "corpus.txt"), "--dim", "8",
            "--epochs", "1", "--seed", "3", "--out", str(d / "emb.txt"),
        ]) == 0
        tokens, vectors = load_embeddings(d / "emb.txt")
        g = load_graph(d / "g.edges", d / "g.attrs")
        assert sorted(tokens) == sorted(g.original_ids)
        assert vectors.shape == (g.node_count, 8)
        assert main([
            "eval", "--embeddings", str(d / "emb.txt"), "--attrs", str(d / "g.attrs"),
            "--sensitive", "block", "--control", "control", "--folds", "3",
            "--seed", "4", "--out", str(d / "report.json"),
            "--pca-out", str(d / "pca.csv"),
        ]) == 0
        report = json.loads((d / "report.json").read_text())
        assert 0 <= report["awareness"] <= 1
        assert len((d / "pca.csv").read_text().splitlines()) == 1 + g.node_count

    def test_walk_with_nan_p_exits_1(self, dataset, capsys):
        d = dataset
        assert main([
            "walk", "--edges", str(d / "g.edges"), "--attrs", str(d / "g.attrs"),
            "--p", "nan", "--out", str(d / "nan_corpus.txt"),
        ]) == 1
        assert "p must be finite and positive, got nan" in capsys.readouterr().err
        assert not (d / "nan_corpus.txt").exists()

    def test_embed_with_zero_epochs_exits_1(self, dataset, capsys):
        d = dataset
        assert main([
            "walk", "--edges", str(d / "g.edges"), "--attrs", str(d / "g.attrs"),
            "--walks-per-node", "1", "--walk-length", "4", "--out", str(d / "corpus.txt"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "embed", "--corpus", str(d / "corpus.txt"), "--dim", "4",
            "--epochs", "0", "--out", str(d / "emb.txt"),
        ]) == 1
        assert "error: epochs must be >= 1, got 0" in capsys.readouterr().err
        assert not (d / "emb.txt").exists()

    def test_embed_with_zero_learning_rate_exits_1(self, dataset, capsys):
        d = dataset
        assert main([
            "walk", "--edges", str(d / "g.edges"), "--attrs", str(d / "g.attrs"),
            "--walks-per-node", "1", "--walk-length", "4", "--out", str(d / "lr_corpus.txt"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "embed", "--corpus", str(d / "lr_corpus.txt"), "--dim", "4",
            "--learning-rate", "0", "--out", str(d / "lr_emb.txt"),
        ]) == 1
        assert "error: learning_rate must be finite and > 0, got 0.0" in capsys.readouterr().err
        assert not (d / "lr_emb.txt").exists()

    def test_baseline_walk_without_bias(self, dataset):
        d = dataset
        assert main([
            "walk", "--edges", str(d / "g.edges"), "--attrs", str(d / "g.attrs"),
            "--walks-per-node", "2", "--walk-length", "5", "--seed", "0",
            "--out", str(d / "base_corpus.txt"),
        ]) == 0
        lines = (d / "base_corpus.txt").read_text().splitlines()
        g = load_graph(d / "g.edges", d / "g.attrs")
        assert len(lines) == 2 * g.node_count


class TestRunVerb:
    def config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "sbm_block_sizes": [15, 15],
            "sbm_p_intra": 0.5,
            "sbm_p_inter": 0.08,
            "dataset_name": "cli",
            "sensitive_attribute": "block",
            "walks_per_node": 2,
            "walk_length": 8,
            "dim": 8,
            "epochs": 1,
            "folds": 2,
            "seed": 6,
        }))
        return path

    def test_run_with_flag_override(self, tmp_path):
        config = self.config_file(tmp_path)
        assert main([
            "run", "--config", str(config), "--out-dir", str(tmp_path / "out"),
            "--preset", "low_awareness", "--seed", "9",
        ]) == 0
        report = json.loads((tmp_path / "out/report.json").read_text())
        echoed = report["config"]["experiment"]
        assert echoed["intervention"] == "crosswalk"
        assert echoed["alpha"] == 0.99
        assert echoed["beta"] == 15.0
        assert echoed["seed"] == 9

    def test_invalid_config_reports_error(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"intervention": "magic"}))
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err


class TestSweepVerb:
    def test_dry_run_lists_reference_grid(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "sbm_block_sizes": [10, 10], "sbm_p_intra": 0.5, "sbm_p_inter": 0.1,
            "sensitive_attribute": "block",
        }))
        assert main([
            "sweep", "--config", str(config), "--reference-grid",
            "--out-dir", str(tmp_path / "sweep"), "--dry-run",
        ]) == 0
        out = capsys.readouterr().out
        assert "900 runs" in out
        assert "875 crosswalk" in out
        assert out.count("\n") == 901  # summary line + one id per run

    def test_unknown_preset_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "sbm_block_sizes": [10, 10], "sbm_p_intra": 0.5, "sbm_p_inter": 0.1,
            "sensitive_attribute": "block",
        }))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"presets": ["medium_awareness"]}))
        assert main([
            "sweep", "--config", str(config), "--grid", str(grid),
            "--out-dir", str(tmp_path / "sweep"), "--dry-run",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "medium_awareness" in err

    def test_sweep_and_summarize(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "sbm_block_sizes": [12, 12], "sbm_p_intra": 0.5, "sbm_p_inter": 0.1,
            "dataset_name": "mini", "sensitive_attribute": "block",
            "walks_per_node": 2, "walk_length": 6, "dim": 8, "epochs": 1,
            "folds": 2, "seed": 1,
        }))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"alphas": [0.5], "betas": [2.0]}))
        assert main([
            "sweep", "--config", str(config), "--grid", str(grid),
            "--out-dir", str(tmp_path / "sweep"),
        ]) == 0
        assert main([
            "summarize", "--table", str(tmp_path / "sweep/results.csv"),
            "--out", str(tmp_path / "summary.json"),
        ]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["rows"] == 2
        assert "mini" in summary["datasets"]

    @pytest.mark.parametrize("buckets", ["0", "-1"])
    def test_summarize_rejects_bucket_count_below_one(self, tmp_path, capsys, buckets):
        table = tmp_path / "results.csv"
        table.write_text(f"schema_version,status\n{SWEEP_SCHEMA_VERSION},ok\n")
        assert main([
            "summarize", "--table", str(table), "--buckets", buckets,
            "--out", str(tmp_path / "summary.json"),
        ]) == 1
        assert f"buckets must be >= 1, got {buckets}" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()
