"""Command-line interface.

Verbs: run (full pipeline), sweep, summarize, gen-sbm, bias, walk, embed,
eval. Every pipeline stage is also callable standalone on files. A stage
verb turns its flags into an ``ExperimentConfig``, unset flags taking the
config's defaults, and calls the pipeline's function for that stage, which
derives the stage's seed from ``--seed`` as ``run`` does; ``walk`` without
``--biased`` walks ``TransitionWeights.from_graph`` as a baseline run does.
So the chain gen-sbm -> bias -> walk -> embed -> eval, given one
``--seed``, writes ``run``'s embeddings, projection and scores. ``sweep``
runs the sweep's runs side by side, one process per CPU it may use; its
table is the serial one byte for byte.
"""

import argparse
import dataclasses
import functools
import json
import sys

from fairwalks import crosswalk, embedding, parallel, pipeline, projection, walks
from fairwalks import graph as graph_mod
from fairwalks.graph import GroupPartition, _id_key, atomic_writer
from fairwalks.pipeline import PRESETS, ExperimentConfig, run_experiment
from fairwalks.sweep import SweepSpec, run_sweep, summarize


def _parse_number_list(text):
    return [float(x) if "." in x or "e" in x.lower() else int(x) for x in text.split(",")]


def _parse_str_list(text):
    return [x for x in text.split(",") if x]


_LIST_FIELDS = {
    "sbm_block_sizes": lambda text: [int(x) for x in text.split(",")],
    "sbm_control_probs": _parse_number_list,
    "select_values": _parse_str_list,
}


def _add_config_flags(parser, *names, required=(), **renamed):
    """One flag per named ExperimentConfig field, every field if none is named;
    ``renamed`` maps a flag named apart from its field to the field. An unset
    flag is None, so the field keeps its ExperimentConfig default."""
    types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    for flag, name in {**{name: name for name in names or types}, **renamed}.items():
        parser.add_argument("--" + flag.replace("_", "-"), dest=name,
                            type=_LIST_FIELDS.get(name, types[name]), required=flag in required)


def _flag_values(args) -> dict:
    """The ExperimentConfig fields that ``args`` sets."""
    names = (f.name for f in dataclasses.fields(ExperimentConfig))
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _stage_config(args, **fixed) -> ExperimentConfig:
    """A stage verb's config: its flags over the defaults, checked as run checks
    them except for the dataset source, which a stage verb reads from files."""
    return ExperimentConfig(**_flag_values(args), **fixed).validate_stages()


def _config_from_args(args) -> ExperimentConfig:
    config = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    overrides = _flag_values(args)
    config = config.replace(**overrides)
    if args.preset:
        clash = [f"--{name}" for name in ("intervention", "alpha", "beta") if name in overrides]
        if clash:
            raise ValueError(f"--preset {args.preset} sets the intervention, alpha and beta; "
                             f"drop {' and '.join(clash)} or the preset")
        config = config.with_preset(args.preset)
    return config.validate()


def cmd_run(args):
    config = _config_from_args(args)
    report = run_experiment(config, args.out_dir, cache_dir=args.cache_dir)
    for text in report.warnings:  # also in report.json, but must not pass unseen
        print(f"warning: {text}", file=sys.stderr)
    print(f"run {config.run_id()}: awareness={report.awareness:.4f} "
          f"disparity={report.disparity:.6f} performance={report.performance:.4f}")
    print(f"artifacts written to {args.out_dir}")
    return 0


def cmd_sweep(args):
    base = ExperimentConfig.load(args.config)
    if args.reference_grid:
        spec = SweepSpec.reference_grid()
    elif args.grid:
        spec = SweepSpec.load(args.grid)
    else:
        spec = SweepSpec()
    plans = spec.expand(base)
    n_baseline = sum(1 for c in plans if c.intervention == "baseline")
    print(f"sweep expands to {len(plans)} runs "
          f"({len(plans) - n_baseline} crosswalk, {n_baseline} baseline)")
    if args.dry_run:
        for cfg in plans:
            print(cfg.run_id())
        return 0
    csv_path, _, executed = run_sweep(spec, base, args.out_dir, workers=parallel.available_cpus())
    print(f"executed {executed} runs; table at {csv_path}")
    return 0


def cmd_summarize(args):
    summary = summarize(args.table, buckets=args.buckets)
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if args.out:
        with atomic_writer(args.out) as f:
            f.write(text)
        print(f"summary written to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_gen_sbm(args):
    g, summary = pipeline.synthesize_sbm(_stage_config(args))
    graph_mod.save_graph(g, args.out_edges, args.out_attrs)
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.summary:
        with atomic_writer(args.summary) as f:
            f.write(text + "\n")
    print(text)
    return 0


def cmd_bias(args):
    config = _stage_config(args, intervention="crosswalk")
    g = graph_mod.load_graph(args.edges, args.attrs)
    dataset = pipeline.Dataset(config, g, graph_mod.partition_by(g, config.sensitive_attribute))
    crosswalk.save_biased(pipeline.walk_weights(config, dataset), args.out)
    print(f"biased transition weights written to {args.out}")
    return 0


def cmd_walk(args):
    config = _stage_config(args)
    g = graph_mod.load_graph(args.edges, args.attrs)
    if args.biased:
        weights = crosswalk.load_biased(args.biased, g)
    else:
        weights = walks.TransitionWeights.from_graph(g)
    corpus = pipeline.walk_corpus(config, weights)
    walks.save_corpus(corpus, args.out, original_ids=g.original_ids)
    print(f"{len(corpus)} walks written to {args.out}")
    return 0


def cmd_embed(args):
    config = _stage_config(args)
    sentences = walks.load_corpus_tokens(args.corpus)
    # ties under _id_key ("1", "01") keep their first appearance, not a hash order
    vocab = sorted(dict.fromkeys(tok for s in sentences for tok in s), key=_id_key)
    index = {tok: i for i, tok in enumerate(vocab)}
    paths = walks.pad_walks([[index[tok] for tok in s] for s in sentences])
    vectors = pipeline.train_vectors(config, paths, len(vocab))
    embedding.save_embeddings(vectors, args.out, tokens=vocab)
    print(f"{len(vocab)} x {config.dim} embeddings written to {args.out}")
    return 0


def _partition_from_attrs(attr_path, attribute, tokens):
    names, rows = graph_mod._parse_attr_file(attr_path)
    if attribute not in names:
        raise ValueError(f"attribute {attribute!r} not in {attr_path}")
    col = names.index(attribute)
    missing = [t for t in tokens if t not in rows]
    if missing:
        raise ValueError(f"{attr_path}: no attribute row for {missing[:3]}...")
    return GroupPartition.from_values(attribute, [rows[t][col] for t in tokens])


def cmd_eval(args):
    config = _stage_config(args)
    tokens, vectors = embedding.load_embeddings(args.embeddings)
    sensitive = _partition_from_attrs(args.attrs, config.sensitive_attribute, tokens)
    control = (_partition_from_attrs(args.attrs, config.control_attribute, tokens)
               if config.control_attribute else None)
    report = pipeline.evaluate(config, vectors, sensitive, control)
    with atomic_writer(args.out) as f:
        f.write(report.to_json())
    if args.pca_out:
        coords = projection.pca_2d(vectors)
        groups = [sensitive.group_labels[i] for i in sensitive.group_of]
        projection.write_projection_csv(args.pca_out, tokens, coords, groups)
    for text in report.warnings:
        print(f"warning: {text}", file=sys.stderr)
    print(f"awareness={report.awareness:.4f} disparity={report.disparity:.6f} "
          f"performance={report.performance:.4f}")
    print(f"report written to {args.out}")
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairwalks",
        description="fairness-controlled random-walk node embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="full pipeline from a config file")
    run.add_argument("--config", help="flat JSON config; flags override its values")
    run.add_argument("--out-dir", required=True)
    run.add_argument("--cache-dir", default=None)
    run.add_argument("--preset", choices=sorted(PRESETS))
    _add_config_flags(run)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="grid of runs with a resumable CSV table")
    sweep.add_argument("--config", required=True, help="base config JSON")
    grid = sweep.add_mutually_exclusive_group()
    grid.add_argument("--grid", help="grid definition JSON")
    grid.add_argument("--reference-grid", action="store_true",
                      help="use the full reference grid (875 + 25 runs)")
    sweep.add_argument("--out-dir", required=True)
    sweep.add_argument("--dry-run", action="store_true",
                       help="list the expansion without executing")
    sweep.set_defaults(func=cmd_sweep)

    summ = sub.add_parser("summarize", help="aggregate a sweep table")
    summ.add_argument("--table", required=True)
    summ.add_argument("--out")
    summ.add_argument("--buckets", type=int, default=3)
    summ.set_defaults(func=cmd_summarize)

    # stage verbs: the flags of the config fields each stage reads
    gen = sub.add_parser("gen-sbm", help="synthesize a block-model graph")
    _add_config_flags(gen, "seed", block_sizes="sbm_block_sizes", p_intra="sbm_p_intra",
                      p_inter="sbm_p_inter", control_classes="sbm_control_classes",
                      control_bonus="sbm_control_bonus", control_name="control_attribute",
                      required=("block_sizes", "p_intra", "p_inter"))
    gen.add_argument("--out-edges", required=True)
    gen.add_argument("--out-attrs", required=True)
    gen.add_argument("--summary")
    gen.set_defaults(func=cmd_gen_sbm)

    bias = sub.add_parser("bias", help="boundary-biased edge reweighting")
    bias.add_argument("--edges", required=True)
    bias.add_argument("--attrs", required=True)
    _add_config_flags(bias, "alpha", "beta", "closeness_walks", "closeness_length", "seed",
                      attribute="sensitive_attribute", required=("attribute", "alpha", "beta"))
    bias.add_argument("--out", required=True)
    bias.set_defaults(func=cmd_bias)

    walk = sub.add_parser("walk", help="generate a walk corpus")
    walk.add_argument("--edges", required=True)
    walk.add_argument("--attrs", required=True)
    walk.add_argument("--biased", help="biased weights from the bias step")
    _add_config_flags(walk, "p", "q", "walks_per_node", "walk_length", "seed")
    walk.add_argument("--out", required=True)
    walk.set_defaults(func=cmd_walk)

    embed = sub.add_parser("embed", help="train embeddings from a corpus file")
    embed.add_argument("--corpus", required=True)
    _add_config_flags(embed, "dim", "window", "negatives", "epochs", "learning_rate", "seed")
    embed.add_argument("--out", required=True)
    embed.set_defaults(func=cmd_embed)

    ev = sub.add_parser("eval", help="label-propagation evaluation of embeddings")
    ev.add_argument("--embeddings", required=True)
    ev.add_argument("--attrs", required=True)
    _add_config_flags(ev, "folds", "labeled_fraction", "knn_k", "sigma", "seed",
                      sensitive="sensitive_attribute", control="control_attribute",
                      required=("sensitive",))
    ev.add_argument("--out", required=True)
    ev.add_argument("--pca-out")
    ev.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
