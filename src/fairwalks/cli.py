"""Command-line interface.

Verbs: run (full pipeline), sweep, summarize, gen-sbm, bias, walk, embed,
eval. Every pipeline stage is also callable standalone on files, so the
chain gen-sbm -> bias -> walk -> embed -> eval runs the same stages as
run, but it does not produce the same bytes: each stage verb uses
``--seed`` as given, while run derives one seed per stage from the
config seed. Boundary closeness is the exception: run passes its config
seed, so ``bias --seed <seed>`` reweights as run does.
"""

import argparse
import dataclasses
import json
import sys

from fairwalks import crosswalk, embedding, evaluation, projection, walks
from fairwalks import graph as graph_mod
from fairwalks.graph import GroupPartition, _id_key, atomic_writer
from fairwalks.pipeline import PRESETS, ExperimentConfig, run_experiment
from fairwalks.sweep import SweepSpec, run_sweep, summarize


def _parse_number_list(text):
    return [float(x) if "." in x or "e" in x.lower() else int(x) for x in text.split(",")]


def _parse_str_list(text):
    return [x for x in text.split(",") if x]


_LIST_FIELDS = {
    "sbm_block_sizes": _parse_number_list,
    "sbm_control_probs": _parse_number_list,
    "select_values": _parse_str_list,
}


def _add_config_flags(parser):
    """One optional flag per ExperimentConfig field."""
    for f in dataclasses.fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.name in _LIST_FIELDS:
            parser.add_argument(flag, dest=f.name, type=_LIST_FIELDS[f.name], default=None)
        elif f.type in ("int", int):
            parser.add_argument(flag, dest=f.name, type=int, default=None)
        elif f.type in ("float", float):
            parser.add_argument(flag, dest=f.name, type=float, default=None)
        else:
            parser.add_argument(flag, dest=f.name, type=str, default=None)


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.load(args.config)
    else:
        config = ExperimentConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ExperimentConfig)
        if getattr(args, f.name, None) is not None
    }
    if overrides:
        config = config.replace(**overrides)
    if args.preset:
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
    csv_path, _, executed = run_sweep(spec, base, args.out_dir)
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
    control = None
    if args.control_classes:
        control = graph_mod.ControlAttributeSpec(
            classes=args.control_classes,
            intra_class_bonus=args.control_bonus,
            name=args.control_name,
        )
    g, summary = graph_mod.generate_sbm(
        args.block_sizes, args.p_intra, args.p_inter, seed=args.seed, control=control
    )
    graph_mod.save_graph(g, args.out_edges, args.out_attrs)
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.summary:
        with atomic_writer(args.summary) as f:
            f.write(text + "\n")
    print(text)
    return 0


def cmd_bias(args):
    g = graph_mod.load_graph(args.edges, args.attrs)
    partition = graph_mod.partition_by(g, args.attribute)
    closeness = crosswalk.estimate_closeness(
        g, partition, args.closeness_walks, args.closeness_length, args.seed
    )
    biased = crosswalk.reweight(g, partition, closeness, args.alpha, args.beta)
    crosswalk.save_biased(biased, args.out)
    print(f"biased transition weights written to {args.out}")
    return 0


def cmd_walk(args):
    g = graph_mod.load_graph(args.edges, args.attrs)
    if args.biased:
        weights = crosswalk.load_biased(args.biased, g)
    else:
        weights = walks.TransitionWeights.from_graph(g)
    config = walks.WalkConfig(
        p=args.p, q=args.q, walks_per_node=args.walks_per_node,
        walk_length=args.walk_length, seed=args.seed,
    )
    corpus = walks.generate_walks(weights, config)
    walks.save_corpus(corpus, args.out, original_ids=g.original_ids)
    print(f"{len(corpus)} walks written to {args.out}")
    return 0


def cmd_embed(args):
    sentences = walks.load_corpus_tokens(args.corpus)
    vocab = sorted({tok for s in sentences for tok in s}, key=_id_key)
    index = {tok: i for i, tok in enumerate(vocab)}
    paths = walks.pad_walks([[index[tok] for tok in s] for s in sentences])
    vectors = embedding.train(
        paths, len(vocab), dim=args.dim, window=args.window,
        negatives=args.negatives, epochs=args.epochs,
        learning_rate=args.learning_rate, seed=args.seed,
    ).vectors
    embedding.save_embeddings(vectors, args.out, tokens=vocab)
    print(f"{len(vocab)} x {args.dim} embeddings written to {args.out}")
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
    tokens, vectors = embedding.load_embeddings(args.embeddings)
    sensitive = _partition_from_attrs(args.attrs, args.sensitive, tokens)
    control = (
        _partition_from_attrs(args.attrs, args.control, tokens) if args.control else None
    )
    report = evaluation.cross_validate(
        vectors, sensitive, control,
        folds=args.folds, labeled_fraction=args.labeled_fraction,
        k=args.knn_k, sigma=args.sigma, seed=args.seed,
    )
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
    sweep.add_argument("--grid", help="grid definition JSON")
    sweep.add_argument("--reference-grid", action="store_true",
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

    gen = sub.add_parser("gen-sbm", help="synthesize a block-model graph")
    gen.add_argument("--block-sizes", type=lambda s: [int(x) for x in s.split(",")],
                     required=True)
    gen.add_argument("--p-intra", type=float, required=True)
    gen.add_argument("--p-inter", type=float, required=True)
    gen.add_argument("--control-classes", type=int, default=0)
    gen.add_argument("--control-bonus", type=float, default=0.0)
    gen.add_argument("--control-name", default="control")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-edges", required=True)
    gen.add_argument("--out-attrs", required=True)
    gen.add_argument("--summary")
    gen.set_defaults(func=cmd_gen_sbm)

    bias = sub.add_parser("bias", help="boundary-biased edge reweighting")
    bias.add_argument("--edges", required=True)
    bias.add_argument("--attrs", required=True)
    bias.add_argument("--attribute", required=True)
    bias.add_argument("--alpha", type=float, required=True)
    bias.add_argument("--beta", type=float, required=True)
    bias.add_argument("--closeness-walks", type=int, default=10)
    bias.add_argument("--closeness-length", type=int, default=5)
    bias.add_argument("--seed", type=int, default=0)
    bias.add_argument("--out", required=True)
    bias.set_defaults(func=cmd_bias)

    walk = sub.add_parser("walk", help="generate a walk corpus")
    walk.add_argument("--edges", required=True)
    walk.add_argument("--attrs", required=True)
    walk.add_argument("--biased", help="biased weights from the bias step")
    walk.add_argument("--p", type=float, default=1.0)
    walk.add_argument("--q", type=float, default=1.0)
    walk.add_argument("--walks-per-node", type=int, default=10)
    walk.add_argument("--walk-length", type=int, default=80)
    walk.add_argument("--seed", type=int, default=0)
    walk.add_argument("--out", required=True)
    walk.set_defaults(func=cmd_walk)

    embed = sub.add_parser("embed", help="train embeddings from a corpus file")
    embed.add_argument("--corpus", required=True)
    embed.add_argument("--dim", type=int, default=64)
    embed.add_argument("--window", type=int, default=5)
    embed.add_argument("--negatives", type=int, default=5)
    embed.add_argument("--epochs", type=int, default=5)
    embed.add_argument("--learning-rate", type=float, default=0.025)
    embed.add_argument("--seed", type=int, default=0)
    embed.add_argument("--out", required=True)
    embed.set_defaults(func=cmd_embed)

    ev = sub.add_parser("eval", help="label-propagation evaluation of embeddings")
    ev.add_argument("--embeddings", required=True)
    ev.add_argument("--attrs", required=True)
    ev.add_argument("--sensitive", required=True)
    ev.add_argument("--control")
    ev.add_argument("--folds", type=int, default=25)
    ev.add_argument("--labeled-fraction", type=float, default=0.5)
    ev.add_argument("--knn-k", type=int, default=10)
    ev.add_argument("--sigma", type=float, default=None)
    ev.add_argument("--seed", type=int, default=0)
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
