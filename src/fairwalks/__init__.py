"""Fairness-controlled random-walk node embeddings.

Pipeline stages: attributed-graph ingestion or synthesis, boundary-biased
edge reweighting, second-order random walks, skip-gram embedding training,
and label-propagation evaluation with group-fairness metrics (awareness,
disparity, performance).
"""

from fairwalks.crosswalk import estimate_closeness, reweight
from fairwalks.embedding import EmbeddingMatrix, sgns_pair_loss, train
from fairwalks.evaluation import (
    EvaluationReport,
    GroupScores,
    awareness,
    cross_validate,
    disparity,
    per_group_f1,
    performance,
)
from fairwalks.graph import (
    AttributedGraph,
    ControlAttributeSpec,
    GraphFormatError,
    GroupPartition,
    bin_age,
    generate_sbm,
    load_graph,
    partition_by,
    save_graph,
    select_subgraph,
)
from fairwalks.pipeline import (
    PRESETS,
    ExperimentConfig,
    StageError,
    execute,
    run_experiment,
)
from fairwalks.propagation import build_propagation_graph, propagate
from fairwalks.sweep import SweepSpec, run_sweep, summarize
from fairwalks.walks import TransitionWeights, WalkConfig, WalkCorpus, generate_walks

__all__ = [
    "AttributedGraph",
    "ControlAttributeSpec",
    "EmbeddingMatrix",
    "EvaluationReport",
    "ExperimentConfig",
    "GraphFormatError",
    "GroupPartition",
    "GroupScores",
    "PRESETS",
    "StageError",
    "SweepSpec",
    "TransitionWeights",
    "WalkConfig",
    "WalkCorpus",
    "awareness",
    "bin_age",
    "build_propagation_graph",
    "cross_validate",
    "disparity",
    "estimate_closeness",
    "execute",
    "generate_sbm",
    "generate_walks",
    "load_graph",
    "partition_by",
    "per_group_f1",
    "performance",
    "propagate",
    "reweight",
    "run_experiment",
    "run_sweep",
    "save_graph",
    "select_subgraph",
    "sgns_pair_loss",
    "summarize",
    "train",
]

__version__ = "0.1.0"
