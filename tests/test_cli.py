import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fairwalks import cli, crosswalk, pipeline, walks
from fairwalks.cli import main
from fairwalks.embedding import load_embeddings, save_embeddings
from fairwalks.graph import (
    ControlAttributeSpec, GroupPartition, generate_sbm, load_graph, partition_by, save_graph,
)
from fairwalks.pipeline import SWEEP_SCHEMA_VERSION, ExperimentConfig, run_experiment


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
    def test_gen_sbm_outputs(self, capsys, dataset):
        g = load_graph(dataset / "g.edges", dataset / "g.attrs")
        assert g.node_count <= 30
        summary = json.loads((dataset / "summary.json").read_text())
        assert summary["nodes"] == g.node_count
        assert set(summary["groups"]) == {"block", "control"}
        # the --seed given, not the stream seed the SBM stage derives from it
        assert summary["seed"] == 4
        assert json.loads(capsys.readouterr().out) == summary

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

    def test_embed_vocabulary_does_not_follow_the_hash_seed(self, tmp_path):
        # "1", "01" and "001" tie under the numeric ID order
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("01 1 001 2 0001\n001 02 1 01 2\n2 0001 01 02 1\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for hash_seed in ("1", "2", "3"):
            out = tmp_path / f"emb{hash_seed}.txt"
            subprocess.run(
                [sys.executable, "-m", "fairwalks", "embed", "--corpus", str(corpus),
                 "--dim", "4", "--epochs", "1", "--out", str(out)],
                check=True, capture_output=True,
                env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed},
            )
            outputs.append(out.read_bytes())
        assert outputs[1:] == outputs[:1] * 2
        tokens = [line.split()[0] for line in outputs[0].decode().splitlines()[1:]]
        assert tokens == ["01", "1", "001", "0001", "2", "02"]  # ties by first appearance

    def test_bias_with_zero_closeness_walks_fails_as_run_does(self, dataset, capsys):
        d = dataset
        graph = ["--edges", str(d / "g.edges"), "--attrs", str(d / "g.attrs")]
        assert main(["bias", *graph, "--attribute", "block", "--alpha", "0.5", "--beta", "2",
                     "--closeness-walks", "0", "--out", str(d / "biased.tsv")]) == 1
        bias_err = capsys.readouterr().err
        assert main(["run", "--out-dir", str(d / "out"), "--edges-path", str(d / "g.edges"),
                     "--attrs-path", str(d / "g.attrs"), "--intervention", "crosswalk",
                     "--alpha", "0.5", "--beta", "2", "--closeness-walks", "0"]) == 1
        assert capsys.readouterr().err == bias_err == (
            "error: closeness budget: walks_per_node and walk_length must be >= 1, "
            "got 0 and 5\n"
        )
        assert not (d / "biased.tsv").exists()

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


def _flags(**values):
    """argv for the set values, a list as comma-separated items."""
    argv = []
    for name, value in values.items():
        if value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += ["--" + name.replace("_", "-"), text]
    return argv


CHAIN_SBM = dict(sbm_block_sizes=[15, 15], sbm_p_intra=0.5, sbm_p_inter=0.08,
                 sbm_control_classes=2, sbm_control_bonus=0.1)
CHAIN_CASES = {
    "sbm-baseline": CHAIN_SBM,
    "sbm-crosswalk-pq": dict(CHAIN_SBM, intervention="crosswalk", alpha=0.5, beta=2.0,
                             p=0.5, q=2.0),
    "file-mixed-ids": dict(intervention="crosswalk", alpha=0.7, beta=1.0),
}


def _write_mixed_id_graph(tmp_path):
    """A block-model graph on disk whose node IDs mix numbers and strings."""
    g, _ = generate_sbm([12, 14], 0.5, 0.1, seed=3,
                        control=ControlAttributeSpec(classes=2, intra_class_bonus=0.1))
    ids = [f"u{v}" if v % 3 else str(97 - v) for v in range(g.node_count)]
    save_graph(dataclasses.replace(g, original_ids=ids), tmp_path / "g.edges",
               tmp_path / "g.attrs")
    return dict(edges_path=str(tmp_path / "g.edges"), attrs_path=str(tmp_path / "g.attrs"))


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_parse_independently(self, tmp_path, monkeypatch):
        # the shared parser gives each call what a parser of its own would
        parser, parsed = cli.build_parser(), []
        parse = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv: parsed.append(parse(argv)) or parsed[-1])
        gen = ["gen-sbm", "--block-sizes", "6,6", "--p-intra", "0.5", "--p-inter", "0.1",
               "--out-edges", str(tmp_path / "g.edges"), "--out-attrs", str(tmp_path / "g.attrs")]
        calls = [
            gen + ["--seed", "4", "--control-classes", "2", "--summary", str(tmp_path / "s.json")],
            ["summarize", "--table", str(tmp_path / "missing.csv"), "--buckets", "5"],
            gen,
        ]
        assert [main(argv) for argv in calls] == [0, 1, 0]
        fresh = [vars(cli.build_parser.__wrapped__().parse_args(argv)) for argv in calls]
        assert [vars(args) for args in parsed] == fresh
        assert (fresh[0]["seed"], fresh[0]["sbm_control_classes"]) == (4, 2)
        assert (fresh[2]["seed"], fresh[2]["sbm_control_classes"], fresh[2]["summary"]) == (None,) * 3
        assert fresh[1]["buckets"] == 5 and "seed" not in fresh[1]


class TestStageChain:
    @pytest.mark.parametrize("case", sorted(CHAIN_CASES))
    def test_chain_reproduces_run(self, tmp_path, case):
        c = ExperimentConfig(
            **CHAIN_CASES[case], sensitive_attribute="block", control_attribute="control",
            walks_per_node=2, walk_length=8, dim=8, epochs=1, folds=3, seed=6,
        )
        if case == "file-mixed-ids":
            c = c.replace(**_write_mixed_id_graph(tmp_path))
        run_experiment(c, tmp_path / "run")

        chain = tmp_path / "chain"
        chain.mkdir()
        edges, attrs = (c.edges_path, c.attrs_path) if c.edges_path else (
            str(chain / "g.edges"), str(chain / "g.attrs"))
        graph = ["--edges", edges, "--attrs", attrs]
        if c.sbm_block_sizes:
            assert main(["gen-sbm", *_flags(
                block_sizes=c.sbm_block_sizes, p_intra=c.sbm_p_intra, p_inter=c.sbm_p_inter,
                control_classes=c.sbm_control_classes, control_bonus=c.sbm_control_bonus,
                control_name=c.control_attribute, seed=c.seed,
            ), "--out-edges", edges, "--out-attrs", attrs]) == 0
        biased = []
        if c.intervention == "crosswalk":
            assert main(["bias", *graph, *_flags(
                attribute=c.sensitive_attribute, alpha=c.alpha, beta=c.beta, seed=c.seed,
            ), "--out", str(chain / "biased.tsv")]) == 0
            biased = ["--biased", str(chain / "biased.tsv")]
        assert main(["walk", *graph, *biased, *_flags(
            p=c.p, q=c.q, walks_per_node=c.walks_per_node, walk_length=c.walk_length,
            seed=c.seed,
        ), "--out", str(chain / "corpus.txt")]) == 0
        assert main(["embed", "--corpus", str(chain / "corpus.txt"), *_flags(
            dim=c.dim, epochs=c.epochs, seed=c.seed,
        ), "--out", str(chain / "emb.txt")]) == 0
        assert main(["eval", "--embeddings", str(chain / "emb.txt"), "--attrs", attrs, *_flags(
            sensitive=c.sensitive_attribute, control=c.control_attribute, folds=c.folds,
            seed=c.seed,
        ), "--out", str(chain / "report.json"), "--pca-out", str(chain / "pca.csv")]) == 0

        run = tmp_path / "run"
        assert (chain / "emb.txt").read_bytes() == (run / "embeddings.txt").read_bytes()
        assert (chain / "pca.csv").read_bytes() == (run / "pca.csv").read_bytes()
        got, want = (json.loads((d / "report.json").read_text()) for d in (chain, run))
        assert got.pop("config") != want.pop("config")  # run also echoes its config
        assert got == want

        # bias and walk write what the pipeline's own stages give for the config
        g = pipeline.build_dataset(c)
        weights = pipeline.walk_weights(
            c, pipeline.Dataset(c, g, partition_by(g, c.sensitive_attribute)))
        if biased:
            crosswalk.save_biased(weights, tmp_path / "biased.tsv")
            assert (chain / "biased.tsv").read_bytes() == (tmp_path / "biased.tsv").read_bytes()
        walks.save_corpus(pipeline.walk_corpus(c, weights), tmp_path / "corpus.txt",
                          original_ids=g.original_ids)
        assert (chain / "corpus.txt").read_bytes() == (tmp_path / "corpus.txt").read_bytes()


class TestWarnings:
    def eval_inputs(self, tmp_path):
        # control class "rare" has one node, so each fold that leaves it
        # unlabeled cannot predict that class
        rng = np.random.default_rng(5)
        vectors = rng.normal(0, 1, (12, 3))
        tokens = [f"n{i}" for i in range(12)]
        save_embeddings(vectors, tmp_path / "emb.txt", tokens)
        blocks = ["a"] * 6 + ["b"] * 6
        ctl = ["rare"] + ["common", "other"] * 5 + ["common"]
        (tmp_path / "g.attrs").write_text("node\tblock\tctl\n" + "".join(
            f"{t}\t{b}\t{c}\n" for t, b, c in zip(tokens, blocks, ctl)))
        return tokens, vectors, blocks, ctl

    def test_eval_prints_report_warnings_to_stderr(self, tmp_path, capsys):
        tokens, vectors, blocks, ctl = self.eval_inputs(tmp_path)
        assert main([
            "eval", "--embeddings", str(tmp_path / "emb.txt"), "--attrs",
            str(tmp_path / "g.attrs"), "--sensitive", "block", "--control", "ctl",
            "--folds", "4", "--knn-k", "3", "--seed", "3", "--out", str(tmp_path / "report.json"),
        ]) == 0
        out, err = capsys.readouterr()
        # the bytes cmd_eval wrote before it printed warnings
        want = pipeline.evaluate(
            ExperimentConfig(sensitive_attribute="block", control_attribute="ctl", folds=4,
                             knn_k=3, seed=3),
            load_embeddings(tmp_path / "emb.txt")[1], GroupPartition.from_values("block", blocks),
            GroupPartition.from_values("ctl", ctl),
        )
        assert (tmp_path / "report.json").read_text() == want.to_json()
        assert want.warnings and any("has no labeled seed" in w for w in want.warnings)
        assert err.splitlines() == [f"warning: {w}" for w in want.warnings]
        assert out.splitlines() == [
            f"awareness={want.awareness:.4f} disparity={want.disparity:.6f} "
            f"performance={want.performance:.4f}",
            f"report written to {tmp_path / 'report.json'}",
        ]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_eval_rejects_non_finite_embeddings(self, tmp_path, capsys, value):
        self.eval_inputs(tmp_path)
        lines = (tmp_path / "emb.txt").read_text().splitlines()
        token, _, *rest = lines[3].split()
        lines[3] = " ".join([token, value, *rest])
        (tmp_path / "emb.txt").write_text("\n".join(lines) + "\n")
        assert main([
            "eval", "--embeddings", str(tmp_path / "emb.txt"), "--attrs",
            str(tmp_path / "g.attrs"), "--sensitive", "block", "--folds", "2",
            "--knn-k", "3", "--out", str(tmp_path / "report.json"),
        ]) == 1
        out, err = capsys.readouterr()
        assert err == "error: row 2 of the vectors is not finite\n"
        assert not (tmp_path / "report.json").exists()

    def test_eval_rejects_embeddings_whose_squared_norm_overflows(self, tmp_path, capsys):
        self.eval_inputs(tmp_path)
        lines = (tmp_path / "emb.txt").read_text().splitlines()
        token, *values = lines[3].split()
        lines[3] = " ".join([token, *(repr(float(v) * 1e160) for v in values)])
        (tmp_path / "emb.txt").write_text("\n".join(lines) + "\n")
        assert main([
            "eval", "--embeddings", str(tmp_path / "emb.txt"), "--attrs",
            str(tmp_path / "g.attrs"), "--sensitive", "block", "--folds", "2",
            "--knn-k", "3", "--out", str(tmp_path / "report.json"),
        ]) == 1
        out, err = capsys.readouterr()
        assert err == "error: row 2 of the vectors has a squared norm that overflows\n"
        assert not (tmp_path / "report.json").exists()

    def test_run_prints_report_warnings_to_stderr(self, tmp_path, capsys, monkeypatch):
        report = SimpleNamespace(awareness=0.5, disparity=0.1, performance=0.7,
                                 warnings=["fold 0: propagation did not converge"])
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **kw: report)
        assert main(["run", "--out-dir", str(tmp_path / "out"), "--sbm-block-sizes", "4,4",
                     "--sbm-p-intra", "0.5", "--sbm-p-inter", "0.1"]) == 0
        out, err = capsys.readouterr()
        assert err == "warning: fold 0: propagation did not converge\n"
        assert [line.split()[0] for line in out.splitlines()] == ["run", "artifacts"]


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

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "0.5"), ("--beta", "3"), ("--intervention", "crosswalk"),
    ])
    def test_preset_with_an_intervention_flag_is_an_error(self, tmp_path, capsys, flag, value):
        config = self.config_file(tmp_path)
        assert main([
            "run", "--config", str(config), "--out-dir", str(tmp_path / "out"),
            "--preset", "low_awareness", flag, value,
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --preset low_awareness sets") and flag in err
        assert not (tmp_path / "out").exists()

    def test_preset_overrides_the_config_files_alpha_and_beta(self, tmp_path):
        path = self.config_file(tmp_path)
        data = json.loads(path.read_text())
        path.write_text(json.dumps({**data, "intervention": "crosswalk", "alpha": 0.5,
                                    "beta": 2.0}))
        args = cli.build_parser().parse_args([
            "run", "--config", str(path), "--out-dir", str(tmp_path / "out"),
            "--preset", "high_awareness",
        ])
        config = cli._config_from_args(args)
        assert (config.alpha, config.beta) == (0.01, 1.0)

    def test_invalid_config_reports_error(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"intervention": "magic"}))
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err


def _assert_one_error_line(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and all(word in err for word in words)


class TestTypeErrors:
    """A config or grid value of the wrong type exits 1 with one error line."""

    def write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def config(self, tmp_path, **changes):
        return self.write(tmp_path, "config.json", {
            "sbm_block_sizes": [10, 10], "sbm_p_intra": 0.5, "sbm_p_inter": 0.1,
            "walks_per_node": 1, "walk_length": 5, "dim": 4, "epochs": 1, "folds": 2,
            **changes})

    @pytest.mark.parametrize("key, value", [
        ("walks_per_node", "2"), ("dim", 4.5), ("select_values", "abc"),
    ])
    def test_run(self, tmp_path, capsys, key, value):
        config = self.config(tmp_path, **{key: value})
        assert main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == 1
        _assert_one_error_line(capsys, repr(key))
        assert not (tmp_path / "out").exists()

    def test_sweep_with_a_bad_base_config(self, tmp_path, capsys):
        config = self.config(tmp_path, walks_per_node="2")
        assert main(["sweep", "--config", config, "--out-dir", str(tmp_path / "out")]) == 1
        _assert_one_error_line(capsys, "'walks_per_node'")

    def test_sweep_with_a_bad_grid(self, tmp_path, capsys):
        grid = self.write(tmp_path, "grid.json", {"alphas": 0.5})
        assert main(["sweep", "--config", self.config(tmp_path), "--grid", grid,
                     "--out-dir", str(tmp_path / "out")]) == 1
        _assert_one_error_line(capsys, "'alphas'")
        assert not (tmp_path / "out").exists()


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

    def test_grid_without_betas_over_a_baseline_base_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "sbm_block_sizes": [5, 5], "sbm_p_intra": 0.5, "sbm_p_inter": 0.1,
        }))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"alphas": [0.5]}))
        assert main([
            "sweep", "--config", str(config), "--grid", str(grid),
            "--out-dir", str(tmp_path / "sweep"), "--dry-run",
        ]) == 1
        _assert_one_error_line(capsys, "betas")

    @pytest.mark.parametrize("grid, runs", [
        (None, ["baseline_p1_q1", "crosswalk_a0.5_b2_p1_q1"]),
        ({"ps": [0.5]}, ["baseline_p0.5_q1", "crosswalk_a0.5_b2_p0.5_q1"]),
    ])
    def test_dry_run_over_a_crosswalk_base_plans_its_run(self, tmp_path, capsys, grid, runs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "sbm_block_sizes": [5, 5], "sbm_p_intra": 0.5, "sbm_p_inter": 0.1,
            "intervention": "crosswalk", "alpha": 0.5, "beta": 2,
        }))
        argv = ["sweep", "--config", str(config), "--out-dir", str(tmp_path / "sweep"),
                "--dry-run"]
        if grid is not None:
            (tmp_path / "grid.json").write_text(json.dumps(grid))
            argv += ["--grid", str(tmp_path / "grid.json")]
        assert main(argv) == 0
        summary, *ids = capsys.readouterr().out.splitlines()
        assert "2 runs (1 crosswalk, 1 baseline)" in summary
        assert [line.strip() for line in ids] == runs
        assert not (tmp_path / "sweep").exists()

    def test_grid_and_reference_grid_exclude_each_other(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "sbm_block_sizes": [5, 5], "sbm_p_intra": 0.5, "sbm_p_inter": 0.1,
        }))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"ps": [1.0, 2.0], "include_baseline": False}))
        monkeypatch.setattr(cli, "run_sweep", lambda *args: pytest.fail("the sweep ran"))
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--config", str(config), "--grid", str(grid), "--reference-grid",
                  "--out-dir", str(tmp_path / "sweep")])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage:") and "not allowed with argument" in err

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
