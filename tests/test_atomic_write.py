"""Every named output goes through ``graph.atomic_writer``: an interrupted
write leaves the old file (or none) and no temp file, a new file gets the
mode plain ``open`` gives it, and a symlinked target keeps its link."""

import importlib.util
import os
import shutil
import stat
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from fairwalks import crosswalk, embedding, graph, projection, walks
from fairwalks.cli import main
from fairwalks.graph import atomic_writer
from fairwalks.pipeline import (
    ArtifactCache, csv_header_line, execute, report_csv_line, run_experiment,
)
from fairwalks.sweep import SweepSpec, run_sweep
from tests.test_pipeline import sbm_config
from tests.test_sweep import RecordingRunner, base_config, fake_report

ROOT = Path(__file__).resolve().parents[1]
OLD = b"old bytes, not to be touched\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    g, _ = graph.generate_sbm([15, 15], 0.5, 0.1, seed=4)
    weights = walks.TransitionWeights.from_graph(g)
    corpus = walks.generate_walks(weights, walks.WalkConfig(walks_per_node=2, walk_length=5))
    vectors = np.random.default_rng(0).normal(size=(g.node_count, 4))
    cache = tmp_path_factory.mktemp("cache")
    # warm, text entries included: run_experiment then writes only its out_dir files
    run_experiment(sbm_config(), tmp_path_factory.mktemp("warm"), cache_dir=cache)
    return SimpleNamespace(
        graph=g, weights=weights, corpus=corpus,
        vectors=vectors,
        groups=[str(b) for b in g.attributes["block"]],
        cache=cache,
        key=execute(sbm_config(), cache_dir=cache).key,
    )


def write_table(path):
    config = base_config().replace(intervention="crosswalk", alpha=0.5, beta=1.0)
    path.write_text(csv_header_line() + report_csv_line(config, fake_report(config)))


def cli_walk(d, inputs):
    graph.save_graph(inputs.graph, d / "g.edges", d / "g.attrs")
    main(["walk", "--edges", str(d / "g.edges"), "--attrs", str(d / "g.attrs"),
          "--walks-per-node", "2", "--walk-length", "5", "--out", str(d / "corpus.txt")])


def cli_eval(d, inputs):
    graph.save_graph(inputs.graph, d / "g.edges", d / "g.attrs")
    embedding.save_embeddings(inputs.vectors, d / "emb.txt", inputs.graph.original_ids)
    main(["eval", "--embeddings", str(d / "emb.txt"), "--attrs", str(d / "g.attrs"),
          "--sensitive", "block", "--folds", "2", "--out", str(d / "report.json")])


def cli_summarize(d, inputs):
    write_table(d / "results.csv")
    main(["summarize", "--table", str(d / "results.csv"), "--out", str(d / "summary.json")])


def cli_gen_sbm(d, inputs):
    main(["gen-sbm", "--block-sizes", "10,10", "--p-intra", "0.5", "--p-inter", "0.1",
          "--out-edges", str(d / "g.edges"), "--out-attrs", str(d / "g.attrs"),
          "--summary", str(d / "summary.json")])


def reference_grid_summary(d, inputs):
    spec = importlib.util.spec_from_file_location(
        "run_reference_grid", ROOT / "scripts" / "run_reference_grid.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    write_table(d / "results.csv")
    script.run_sweep = lambda spec, base, out_dir, workers: (str(d / "results.csv"), [], 0)
    with mock.patch.object(sys, "argv", ["run_reference_grid.py", "--out-dir", str(d)]):
        script.main()


def experiment(d, inputs):
    run_experiment(sbm_config(), d, cache_dir=inputs.cache)


def experiment_miss(d, inputs):
    """A cache in ``d`` that holds only the embedding, as one written before
    the text entries existed: the run renders both entries before any other write."""
    shutil.copy(inputs.cache / f"{inputs.key}.emb.npy", d)
    run_experiment(sbm_config(), d / "out", cache_dir=d)


# cache entries: one that exists is a hit, which writes nothing, so only their new case runs
ENTRIES = {"run_experiment emb.v1.txt entry", "run_experiment pca.v1.csv entry"}

# (target file name, atomic writes let through before the one interrupted, writer);
# {key} in a name is the embedding's cache key
WRITERS = {
    "save_graph edges": ("g.edges", 0, lambda d, i: graph.save_graph(
        i.graph, d / "g.edges", d / "g.attrs")),
    "save_graph attrs": ("g.attrs", 1, lambda d, i: graph.save_graph(
        i.graph, d / "g.edges", d / "g.attrs")),
    "save_biased": ("biased.tsv", 0, lambda d, i: crosswalk.save_biased(
        i.weights, d / "biased.tsv")),
    "save_corpus": ("corpus.txt", 0, lambda d, i: walks.save_corpus(
        i.corpus, d / "corpus.txt", i.graph.original_ids)),
    "save_embeddings": ("emb.txt", 0, lambda d, i: embedding.save_embeddings(
        i.vectors, d / "emb.txt", i.graph.original_ids)),
    "write_projection_csv": ("pca.csv", 0, lambda d, i: projection.write_projection_csv(
        d / "pca.csv", i.graph.original_ids, projection.pca_2d(i.vectors), i.groups)),
    "ExperimentConfig.save": ("config.json", 0, lambda d, i: sbm_config().save(
        d / "config.json")),
    "ArtifactCache.store_array": ("k.emb.npy", 0, lambda d, i: ArtifactCache(d).store_array(
        "k", "emb.npy", i.vectors)),
    "run_experiment report.json": ("report.json", 0, experiment),
    "run_experiment report_row.csv": ("report_row.csv", 1, experiment),
    "run_experiment embeddings.txt": ("embeddings.txt", 2, experiment),
    "run_experiment pca.csv": ("pca.csv", 3, experiment),
    "run_experiment emb.v1.txt entry": ("{key}.emb.v1.txt", 0, experiment_miss),
    "run_experiment pca.v1.csv entry": ("{key}.pca.v1.csv", 1, experiment_miss),
    "run_sweep results.csv": ("results.csv", 0, lambda d, i: run_sweep(
        SweepSpec(alphas=[0.5], betas=[1.0]), base_config(), d, runner=RecordingRunner())),
    "cli walk": ("corpus.txt", 2, cli_walk),
    "cli eval --out": ("report.json", 3, cli_eval),
    "cli summarize --out": ("summary.json", 0, cli_summarize),
    "cli gen-sbm --summary": ("summary.json", 2, cli_gen_sbm),
    "run_reference_grid summary.json": ("summary.json", 0, reference_grid_summary),
}


class InterruptedFile:
    """A file whose first write lands, then raises KeyboardInterrupt."""

    def __init__(self, f):
        self.f = f

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.f.__exit__(*exc)

    def write(self, data):
        self.f.write(data)
        self.f.flush()
        raise KeyboardInterrupt


def interrupt_write(monkeypatch, skip):
    """Let ``skip`` atomic writes finish, then interrupt the next one."""
    real_fdopen = os.fdopen
    opened = []

    def fdopen(fd, mode):
        opened.append(real_fdopen(fd, mode))
        return opened[-1] if len(opened) <= skip else InterruptedFile(opened[-1])

    monkeypatch.setattr(os, "fdopen", fdopen)


def temp_files(d):
    return sorted(p.name for p in Path(d).rglob("*.tmp"))


@pytest.mark.parametrize("case, existing", [
    pytest.param(case, existing, id=f"{case}-{'existing' if existing else 'new'}")
    for existing in (True, False) for case in WRITERS if not (existing and case in ENTRIES)
])
def test_interrupted_write_leaves_old_target(case, existing, inputs, tmp_path, monkeypatch):
    name, skip, write = WRITERS[case]
    target = tmp_path / name.format(key=inputs.key)
    if existing:
        target.write_bytes(OLD)
    interrupt_write(monkeypatch, skip)
    with pytest.raises(KeyboardInterrupt):
        write(tmp_path, inputs)
    monkeypatch.undo()
    if existing:
        assert target.read_bytes() == OLD
    else:
        assert not target.exists()
    assert temp_files(tmp_path) == []


@pytest.mark.parametrize("case", list(WRITERS))
def test_writer_renames_new_bytes_over_target(case, inputs, tmp_path, monkeypatch):
    """Each writer goes through ``atomic_writer``, and its target is the
    write after ``skip`` others, so the interruption above hit the target."""
    name, skip, write = WRITERS[case]
    target = tmp_path / name.format(key=inputs.key)
    if case not in ENTRIES:
        target.write_bytes(OLD)
    real_replace = os.replace
    replaced = []

    def replace(src, dst):
        replaced.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    write(tmp_path, inputs)
    assert replaced[skip] == os.path.realpath(target)
    assert target.read_bytes() not in (b"", OLD)
    assert temp_files(tmp_path) == []


@pytest.fixture(params=[0o022, 0o077], ids=["umask022", "umask077"])
def umask(request):
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


def mode_of(path):
    return stat.S_IMODE(os.stat(path).st_mode)


class TestModes:
    def test_new_file_gets_open_mode(self, umask, tmp_path):
        with open(tmp_path / "plain", "w") as f:
            f.write("x")
        for mode in ("w", "wb"):
            with atomic_writer(tmp_path / f"atomic-{mode}", mode) as f:
                f.write("x" if mode == "w" else b"x")
            assert mode_of(tmp_path / f"atomic-{mode}") == mode_of(tmp_path / "plain")
        assert mode_of(tmp_path / "plain") == 0o666 & ~umask

    def test_cache_entry_and_artifacts_get_open_mode(self, umask, inputs, tmp_path):
        (tmp_path / "plain").write_text("x")
        ArtifactCache(tmp_path / "cache").store_array("k", "emb.npy", np.arange(3.0))
        run_experiment(sbm_config(), tmp_path / "out", cache_dir=inputs.cache)
        written = [tmp_path / "cache/k.emb.npy"] + sorted((tmp_path / "out").iterdir())
        assert len(written) == 5
        for path in written:
            assert mode_of(path) == mode_of(tmp_path / "plain"), path.name

    def test_replaced_file_keeps_its_mode(self, umask, tmp_path):
        target = tmp_path / "target"
        target.write_text("old")
        os.chmod(target, 0o640)
        with atomic_writer(target) as f:
            f.write("new")
        assert target.read_text() == "new"
        assert mode_of(target) == 0o640


class TestSymlink:
    def test_link_is_kept_and_target_updated(self, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real/data.txt"
        target.write_text("old")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        with atomic_writer(link) as f:
            f.write("new")
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real"]
        assert os.listdir(tmp_path / "real") == ["data.txt"]
