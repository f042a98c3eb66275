"""Cross-domain sequence labeling with label graphs and GW graph matching."""

from .autodiff import Tensor, grad_check, l2_distance
from .data import TaggedCorpus, extract_spans, greedy_sample, micro_f1, parse_conll
from .gw import gromov_wasserstein, sinkhorn, structural_cost
from .labelgraph import LabelGraph, build_graph, estimate_conditionals
from .pipeline import Model, TrainConfig, build_source_graph, evaluate, finetune, sweep, train_source

__all__ = [
    "Tensor",
    "grad_check",
    "l2_distance",
    "TaggedCorpus",
    "parse_conll",
    "extract_spans",
    "micro_f1",
    "greedy_sample",
    "gromov_wasserstein",
    "sinkhorn",
    "structural_cost",
    "LabelGraph",
    "build_graph",
    "estimate_conditionals",
    "Model",
    "TrainConfig",
    "train_source",
    "build_source_graph",
    "finetune",
    "evaluate",
    "sweep",
]
