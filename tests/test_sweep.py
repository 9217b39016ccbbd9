import csv
import json

import numpy as np
import pytest

import fairwalks.graph as graph_mod
import fairwalks.pipeline as pl
from fairwalks import crosswalk
from fairwalks.evaluation import EvaluationReport
from fairwalks.pipeline import ExperimentConfig
from fairwalks.sweep import (
    SWEEP_COLUMNS,
    SWEEP_SCHEMA_VERSION,
    SweepSpec,
    csv_header_line,
    read_sweep_table,
    report_csv_line,
    run_sweep,
    summarize,
)
from tests.test_acceptance import acceptance_config


def base_config(**overrides):
    defaults = dict(
        sbm_block_sizes=[20, 20],
        sbm_p_intra=0.4,
        sbm_p_inter=0.05,
        dataset_name="sweep-test",
        sensitive_attribute="block",
        walks_per_node=2,
        walk_length=8,
        dim=8,
        epochs=1,
        folds=2,
        seed=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def fake_report(config, q=(0.8, 0.6), qstar=()):
    q = np.asarray(q, dtype=float)
    qstar = np.asarray(qstar, dtype=float)
    folds = 2
    return EvaluationReport(
        sensitive_attribute=config.sensitive_attribute,
        control_attribute=config.control_attribute or "",
        group_labels=tuple(f"g{i}" for i in range(len(q))),
        group_sizes=[10 * (i + 1) for i in range(len(q))],
        folds=folds,
        q_folds=np.tile(q, (folds, 1)),
        qstar_folds=np.tile(qstar, (folds, 1)) if len(qstar) else np.zeros((folds, 0)),
        q_mean=q,
        qstar_mean=qstar,
        awareness=float(q.max()),
        disparity=float(((q - q.mean()) ** 2).mean()),
        performance=float(qstar.mean()) if len(qstar) else float("nan"),
        warnings=[],
        config={},
    )


class RecordingRunner:
    def __init__(self, fail_on=()):
        self.calls = []
        self.fail_on = set(fail_on)

    def __call__(self, config):
        self.calls.append(config.run_id())
        if config.run_id() in self.fail_on:
            raise RuntimeError("synthetic failure")
        aw = 0.9 if config.intervention == "baseline" else 0.4 + 0.1 * config.alpha
        return fake_report(config, q=(aw, aw - 0.2))


class TestExpand:
    def test_reference_grid_counts(self):
        plans = SweepSpec.reference_grid().expand(base_config())
        crosswalk = [c for c in plans if c.intervention == "crosswalk"]
        baseline = [c for c in plans if c.intervention == "baseline"]
        assert len(crosswalk) == 875
        assert len(baseline) == 25
        assert len({c.run_id() for c in plans}) == 900

    def test_empty_spec_is_base_run(self):
        plans = SweepSpec(include_baseline=False).expand(base_config())
        assert len(plans) == 1
        assert plans[0] == base_config()

    def test_cap_enforced(self):
        spec = SweepSpec.reference_grid()
        spec.cap = 100
        with pytest.raises(ValueError, match="cap"):
            spec.expand(base_config())

    def test_non_cartesian_zips(self):
        spec = SweepSpec(
            alphas=[0.1, 0.9], betas=[1, 15], cartesian=False, include_baseline=False
        )
        plans = spec.expand(base_config())
        assert [(c.alpha, c.beta) for c in plans] == [(0.1, 1.0), (0.9, 15.0)]

    def test_preset_rows(self):
        spec = SweepSpec(presets=["low_awareness"], include_baseline=False)
        plans = spec.expand(base_config())
        assert len(plans) == 1
        assert (plans[0].alpha, plans[0].beta) == (0.99, 15.0)

    def test_preset_on_the_grid_runs_once(self, tmp_path):
        spec = SweepSpec(alphas=[0.5, 0.99], betas=[15], presets=["low_awareness"],
                         include_baseline=False)
        plans = spec.expand(base_config())
        assert [(c.alpha, c.beta) for c in plans] == [(0.5, 15.0), (0.99, 15.0)]
        assert len({c.config_hash() for c in plans}) == 2
        runner = RecordingRunner()
        csv_path, _, executed = run_sweep(spec, base_config(), tmp_path, runner=runner)
        assert executed == len(runner.calls) == 2
        assert len(read_sweep_table(csv_path)) == 2
        low = summarize(csv_path)["overall"]["presets"]["low_awareness"]
        assert low["awareness"]["count"] == 1

    def test_cap_counts_distinct_runs(self):
        spec = SweepSpec(alphas=[0.5, 0.99], betas=[15], presets=["low_awareness"],
                         include_baseline=False, cap=2)
        assert len(spec.expand(base_config())) == 2

    @pytest.mark.parametrize("grid, missing", [({"alphas": [0.5]}, "betas"),
                                               ({"betas": [2.0]}, "alphas")])
    def test_a_half_grid_over_a_baseline_base_names_the_missing_list(self, grid, missing):
        with pytest.raises(ValueError, match=f"lists no {missing}"):
            SweepSpec(**grid).expand(base_config())

    def test_a_half_grid_takes_the_other_value_from_the_base(self):
        base = base_config(intervention="crosswalk", alpha=0.25, beta=3.0)
        plans = SweepSpec(alphas=[0.5, 0.75], include_baseline=False).expand(base)
        assert [(c.alpha, c.beta) for c in plans] == [(0.5, 3.0), (0.75, 3.0)]

    @pytest.mark.parametrize("grid, runs", [
        ({}, ["baseline_p1_q1", "crosswalk_a0.25_b3_p1_q1"]),
        ({"ps": [0.5]}, ["baseline_p0.5_q1", "crosswalk_a0.25_b3_p0.5_q1"]),
        ({"ps": [0.5, 2.0], "include_baseline": False},
         ["crosswalk_a0.25_b3_p0.5_q1", "crosswalk_a0.25_b3_p2_q1"]),
    ])
    def test_no_alphas_betas_or_presets_keeps_a_crosswalk_base_run(self, grid, runs):
        base = base_config(intervention="crosswalk", alpha=0.25, beta=3.0)
        plans = SweepSpec(**grid).expand(base)
        assert [c.run_id() for c in plans] == runs
        assert plans[-1].replace(p=base.p) == base

    def test_unknown_preset_names_the_choices(self):
        spec = SweepSpec(presets=["medium_awareness"])
        with pytest.raises(ValueError, match=r"'medium_awareness'.*high_awareness.*low_awareness"):
            spec.expand(base_config())


class TestLoad:
    @pytest.mark.parametrize("key, value", [
        ("alphas", 0.5), ("ps", ["1"]), ("betas", None), ("presets", "low_awareness"),
        ("include_baseline", 1), ("cartesian", "yes"), ("cap", 2.5), ("cap", True),
    ])
    def test_a_value_of_the_wrong_type_is_refused(self, tmp_path, key, value):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ValueError, match=f"sweep key '{key}' must be of type"):
            SweepSpec.load(path)

    @pytest.mark.parametrize("text", ["[]", '"grid"', "1"])
    def test_a_top_level_that_is_not_an_object_is_refused(self, tmp_path, text):
        path = tmp_path / "grid.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="sweep must be a JSON object"):
            SweepSpec.load(path)

    def test_unknown_keys_are_refused(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"alpha": [0.5]}))
        with pytest.raises(ValueError, match=r"unknown sweep keys: \['alpha'\]"):
            SweepSpec.load(path)

    def test_a_valid_grid_loads(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"alphas": [0.5], "betas": [2], "presets": ["low_awareness"],
                                    "include_baseline": False, "cap": 10}))
        assert SweepSpec.load(path) == SweepSpec(alphas=[0.5], betas=[2], include_baseline=False,
                                                 presets=["low_awareness"], cap=10)


class TestRunSweep:
    def test_rows_and_baseline_fields_empty(self, tmp_path):
        spec = SweepSpec(alphas=[0.5], betas=[1.0])
        runner = RecordingRunner()
        csv_path, plans, executed = run_sweep(spec, base_config(), tmp_path, runner=runner)
        rows = read_sweep_table(csv_path)
        assert executed == len(plans) == 2
        by_id = {r["run_id"]: r for r in rows}
        assert by_id["baseline_p1_q1"]["alpha"] == ""
        assert by_id["baseline_p1_q1"]["beta"] == ""
        assert by_id["crosswalk_a0.5_b1_p1_q1"]["alpha"] == "0.5"
        assert list(rows[0].keys()) == list(SWEEP_COLUMNS)

    def test_resume_skips_completed(self, tmp_path):
        spec = SweepSpec(alphas=[0.5], betas=[1.0, 2.0])
        runner = RecordingRunner()
        csv_path, plans, _ = run_sweep(spec, base_config(), tmp_path, runner=runner)
        assert len(runner.calls) == 3

        rows = read_sweep_table(csv_path)
        victim = rows[1]["run_id"]
        with open(csv_path, "w") as f:
            f.write(",".join(SWEEP_COLUMNS) + "\n")
            for r in rows:
                if r["run_id"] != victim:
                    f.write(",".join(r[c] for c in SWEEP_COLUMNS) + "\n")

        rerun = RecordingRunner()
        _, _, executed = run_sweep(spec, base_config(), tmp_path, runner=rerun)
        assert rerun.calls == [victim]
        assert executed == 1
        assert len(read_sweep_table(csv_path)) == 3

    def test_diverged_training_recorded_as_error(self, tmp_path):
        # lr 0.5 on the acceptance graph sends the epoch mean loss past 1e200
        base = acceptance_config(1).replace(
            walks_per_node=2, epochs=2, learning_rate=0.5, folds=2
        )
        csv_path, _, _ = run_sweep(SweepSpec(), base, tmp_path)
        (row,) = read_sweep_table(csv_path)
        assert row["status"] == "error"
        assert "learning rate" in row["error"]

    def test_failures_recorded_and_sweep_continues(self, tmp_path):
        spec = SweepSpec(alphas=[0.5], betas=[1.0, 2.0])
        runner = RecordingRunner(fail_on={"crosswalk_a0.5_b1_p1_q1"})
        csv_path, _, _ = run_sweep(spec, base_config(), tmp_path, runner=runner)
        rows = {r["run_id"]: r for r in read_sweep_table(csv_path)}
        assert rows["crosswalk_a0.5_b1_p1_q1"]["status"] == "error"
        assert "synthetic failure" in rows["crosswalk_a0.5_b1_p1_q1"]["error"]
        assert rows["crosswalk_a0.5_b2_p1_q1"]["status"] == "ok"
        # failed rows are retried on resume
        rerun = RecordingRunner()
        run_sweep(spec, base_config(), tmp_path, runner=rerun)
        assert rerun.calls == ["crosswalk_a0.5_b1_p1_q1"]

    def test_parallel_workers_complete(self, tmp_path):
        spec = SweepSpec(alphas=[0.25, 0.75], betas=[1.0, 2.0])
        runner = RecordingRunner()
        csv_path, plans, _ = run_sweep(
            spec, base_config(), tmp_path, workers=3, runner=runner
        )
        assert len(read_sweep_table(csv_path)) == len(plans) == 5


    def test_run_warnings_go_to_stderr(self, tmp_path, capsys):
        def warning_runner(config):
            report = fake_report(config)
            if config.intervention == "crosswalk":
                report.warnings = ["fold 0: did not converge"]
            return report

        spec = SweepSpec(alphas=[0.5], betas=[1.0])
        csv_path, _, _ = run_sweep(spec, base_config(), tmp_path, runner=warning_runner)
        err = capsys.readouterr().err
        assert err == "warning: crosswalk_a0.5_b1_p1_q1: fold 0: did not converge\n"
        rows = read_sweep_table(csv_path)
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert list(rows[0]) == list(SWEEP_COLUMNS)

    def test_rerun_with_other_seed_executes_every_run(self, tmp_path):
        spec = SweepSpec(alphas=[0.5], betas=[1.0, 2.0])
        run_sweep(spec, base_config(), tmp_path, runner=RecordingRunner())
        rerun = RecordingRunner()
        csv_path, plans, executed = run_sweep(
            spec, base_config(seed=4), tmp_path, runner=rerun
        )
        assert executed == len(plans) == len(rerun.calls) == 3
        rows = read_sweep_table(csv_path)
        assert sorted(r["seed"] for r in rows) == ["3"] * 3 + ["4"] * 3
        assert len({r["config_hash"] for r in rows}) == 6

    def test_old_schema_rows_are_rerun(self, tmp_path):
        spec = SweepSpec(alphas=[0.5], betas=[1.0])
        csv_path, _, _ = run_sweep(spec, base_config(), tmp_path, runner=RecordingRunner())
        rows = read_sweep_table(csv_path)
        old_columns = [c for c in SWEEP_COLUMNS if c != "config_hash"]
        with open(csv_path, "w") as f:
            f.write(",".join(old_columns) + "\n")
            for r in rows:
                f.write(",".join("1" if c == "schema_version" else r[c] for c in old_columns) + "\n")
        rerun = RecordingRunner()
        _, _, executed = run_sweep(spec, base_config(), tmp_path, runner=rerun)
        assert executed == 2
        versions = [r["schema_version"] for r in read_sweep_table(csv_path)]
        assert versions == [str(SWEEP_SCHEMA_VERSION)] * 2

    def test_rows_of_the_fixed_window_schema_are_rerun(self, tmp_path):
        # schema 5 rows came from training on every pair of a fixed window
        spec = SweepSpec(alphas=[0.5], betas=[1.0])
        csv_path, _, _ = run_sweep(spec, base_config(), tmp_path, runner=RecordingRunner())
        header, *rows = open(csv_path).read().splitlines(keepends=True)
        with open(csv_path, "w") as f:
            f.write(header + "".join("5" + row[row.index(","):] for row in rows))
        assert [r["schema_version"] for r in read_sweep_table(csv_path)] == ["5"] * 2
        _, _, executed = run_sweep(spec, base_config(), tmp_path, runner=RecordingRunner())
        assert executed == 2
        versions = [r["schema_version"] for r in read_sweep_table(csv_path)]
        assert versions == [str(SWEEP_SCHEMA_VERSION)] * 2

    def test_interrupted_resume_keeps_completed_rows(self, tmp_path, monkeypatch):
        import fairwalks.sweep as sweep_mod

        spec = SweepSpec(alphas=[0.5], betas=[1.0, 2.0])
        csv_path, _, _ = run_sweep(spec, base_config(), tmp_path, runner=RecordingRunner())
        before = read_sweep_table(csv_path)
        assert len(before) == 3

        real_row_line = sweep_mod._row_line
        written = []

        def interrupt_second_row(row):
            written.append(row)
            if len(written) == 2:
                raise KeyboardInterrupt
            return real_row_line(row)

        monkeypatch.setattr(sweep_mod, "_row_line", interrupt_second_row)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, base_config(), tmp_path, runner=RecordingRunner())
        assert read_sweep_table(csv_path) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv"]

    @pytest.mark.parametrize("keep", [20, 60, -3])
    def test_partial_last_row_is_rerun(self, tmp_path, keep):
        spec = SweepSpec(alphas=[0.5], betas=[1.0, 2.0])
        csv_path, _, _ = run_sweep(spec, base_config(), tmp_path, runner=RecordingRunner())
        with open(csv_path) as f:
            complete = f.read()
        *head, last = complete.splitlines(keepends=True)
        # an append cut off before its newline, early and late in the row
        with open(csv_path, "w") as f:
            f.write("".join(head) + last[:keep])
        assert len(read_sweep_table(csv_path)) == 2
        rerun = RecordingRunner()
        _, _, executed = run_sweep(spec, base_config(), tmp_path, runner=rerun)
        assert executed == 1
        assert rerun.calls == [read_sweep_table(csv_path)[-1]["run_id"]]
        with open(csv_path) as f:
            assert f.read() == complete


class TestSharedDataset:
    """A sweep builds its dataset and each boundary closeness once for all runs."""

    SPEC = SweepSpec(alphas=[0.5], betas=[2.0], ps=[0.5, 1])  # 2 baselines, 2 crosswalk

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"build_dataset": 0, "estimate_closeness": 0}
        for module, name in ((pl, "build_dataset"), (crosswalk, "estimate_closeness")):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    @staticmethod
    def separate_rows(plans):
        """The table that a separate ``execute`` per run gives."""
        lines = [csv_header_line()]
        for cfg in plans:
            try:
                lines.append(report_csv_line(cfg, pl.execute(cfg).report))
            except pl.StageError as exc:
                lines.append(report_csv_line(cfg, None, error=exc))
        return "".join(lines)

    def test_one_dataset_and_closeness_for_all_runs(self, tmp_path, calls):
        csv_path, plans, executed = run_sweep(self.SPEC, base_config(), tmp_path)
        assert executed == len(plans) == 4
        assert calls == {"build_dataset": 1, "estimate_closeness": 1}
        assert [r["status"] for r in read_sweep_table(csv_path)] == ["ok"] * 4

    def test_rows_equal_separate_runs(self, tmp_path):
        base = base_config(sbm_control_classes=2, control_attribute="control")
        csv_path, plans, _ = run_sweep(self.SPEC, base, tmp_path)
        with open(csv_path) as f:
            assert f.read() == self.separate_rows(plans)

    def test_resume_with_nothing_left_builds_no_dataset(self, tmp_path, calls):
        run_sweep(self.SPEC, base_config(), tmp_path)
        calls.update(dict.fromkeys(calls, 0))
        _, _, executed = run_sweep(self.SPEC, base_config(), tmp_path)
        assert executed == 0
        assert calls == {"build_dataset": 0, "estimate_closeness": 0}

    def test_missing_edges_file_gives_each_run_the_error_row(self, tmp_path, calls):
        attrs = tmp_path / "g.attrs"
        attrs.write_text("node\tblock\na\tx\nb\ty\n")
        base = ExperimentConfig(edges_path=str(tmp_path / "missing.edges"), attrs_path=str(attrs),
                                walks_per_node=2, walk_length=8, dim=8, epochs=1, folds=2)
        csv_path, plans, _ = run_sweep(self.SPEC, base, tmp_path / "out")
        assert calls["build_dataset"] == 1
        rows = read_sweep_table(csv_path)
        assert [r["status"] for r in rows] == ["error"] * 4
        assert all(r["error"].startswith("stage 'dataset' failed: ") for r in rows)
        with open(csv_path) as f:
            assert f.read() == self.separate_rows(plans)


class TestEdgeCodes:
    """The (p, q) edge codes live on the graph, so a sweep builds them once."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        original = graph_mod._edge_codes
        monkeypatch.setattr(graph_mod, "_edge_codes", lambda *a: built.append(1) or original(*a))
        return built

    def test_twelve_runs_build_the_codes_once(self, tmp_path, built):
        spec = SweepSpec(alphas=[0.25, 0.75], betas=[2], ps=[0.5, 1], qs=[1, 2])
        csv_path, plans, executed = run_sweep(spec, base_config(), tmp_path)
        assert executed == len(plans) == 12
        assert sum((cfg.p, cfg.q) != (1, 1) for cfg in plans) == 9
        assert [r["status"] for r in read_sweep_table(csv_path)] == ["ok"] * 12
        assert built == [1]

    @pytest.mark.parametrize("crosswalk", [{}, dict(intervention="crosswalk", alpha=0.5, beta=2.0)],
                             ids=["baseline", "crosswalk"])
    def test_a_first_order_run_builds_no_codes(self, crosswalk, built):
        result = pl.execute(base_config(**crosswalk))
        assert built == []
        assert "codes" not in vars(result.dataset.graph.walk_layout)


class TestCsvQuoting:
    def test_comma_label_round_trips(self, tmp_path):
        config = base_config().replace(intervention="crosswalk", alpha=0.5, beta=1.0)
        report = fake_report(config)
        report.group_labels = ("a,x", "b")
        path = tmp_path / "results.csv"
        path.write_text(csv_header_line() + report_csv_line(config, report))
        (row,) = read_sweep_table(path)
        assert row["group_labels"] == "a,x|b"
        assert row["group_sizes"] == "10|20"

    def test_error_text_kept_verbatim(self, tmp_path):
        config = base_config()
        message = 'bad value "x", see line 3\nthen stop'
        path = tmp_path / "results.csv"
        path.write_text(csv_header_line() + report_csv_line(config, None, error=message))
        (row,) = read_sweep_table(path)
        assert row["status"] == "error"
        assert row["error"] == message

    def test_plain_rows_unquoted(self):
        config = base_config().replace(intervention="crosswalk", alpha=0.5, beta=1.0)
        line = report_csv_line(config, fake_report(config))
        assert '"' not in line and line.endswith("\n") and not line.endswith("\r\n")


class TestSummarize:
    def write_table(self, tmp_path, lines):
        path = tmp_path / "results.csv"
        with open(path, "w") as f:
            f.write(",".join(SWEEP_COLUMNS) + "\n")
            for config, report in lines:
                f.write(report_csv_line(config, report))
        return path

    def test_single_row_min_equals_max(self, tmp_path):
        config = base_config().replace(intervention="crosswalk", alpha=0.5, beta=1.0)
        path = self.write_table(tmp_path, [(config, fake_report(config))])
        summary = summarize(path)
        entry = summary["overall"]["configs"][0]
        assert entry["awareness"]["min"] == entry["awareness"]["max"] == entry["awareness"]["mean"]

    def test_two_rows_mean_and_range(self, tmp_path):
        c1 = base_config().replace(intervention="crosswalk", alpha=0.5, beta=1.0, p=0.1)
        c2 = base_config().replace(intervention="crosswalk", alpha=0.5, beta=1.0, p=10.0)
        path = self.write_table(
            tmp_path,
            [(c1, fake_report(c1, q=(0.4, 0.1))), (c2, fake_report(c2, q=(0.6, 0.1)))],
        )
        entry = summarize(path)["overall"]["configs"][0]
        assert entry["awareness"]["mean"] == pytest.approx(0.5)
        assert entry["awareness"]["min"] == pytest.approx(0.4)
        assert entry["awareness"]["max"] == pytest.approx(0.6)

    def test_bucket_means_recomputable(self, tmp_path):
        config = base_config().replace(intervention="crosswalk", alpha=0.9, beta=15.0)
        report = fake_report(config, q=(0.9, 0.6, 0.3))
        report.group_sizes = [10, 30, 60]  # relative sizes 0.1, 0.3, 0.6
        path = self.write_table(tmp_path, [(config, report)])
        buckets = summarize(path, buckets=3)["overall"]["group_size_buckets"][
            "alpha=0.9,beta=15"
        ]
        # relative 0.1 and 0.3 fall in [0, 1/3); 0.6 in [1/3, 2/3)
        assert buckets[0]["count"] == 2
        assert buckets[0]["mean_score"] == pytest.approx((0.9 + 0.6) / 2)
        assert buckets[1]["count"] == 1
        assert buckets[1]["mean_score"] == pytest.approx(0.3)
        assert buckets[2]["count"] == 0

    def test_preset_vs_baseline_delta(self, tmp_path):
        b = base_config()
        low = base_config().replace(intervention="crosswalk", alpha=0.99, beta=15.0)
        path = self.write_table(
            tmp_path,
            [(b, fake_report(b, q=(0.9, 0.8))), (low, fake_report(low, q=(0.5, 0.2)))],
        )
        summary = summarize(path)
        preset = summary["overall"]["presets"]["low_awareness"]
        assert preset["awareness_delta_vs_baseline"] == pytest.approx(0.5 - 0.9)

    def test_summary_is_json_serializable(self, tmp_path):
        config = base_config()
        path = self.write_table(tmp_path, [(config, fake_report(config))])
        json.dumps(summarize(path))
