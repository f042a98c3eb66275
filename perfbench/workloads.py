"""The four workloads: inputs made from a seed, one timed round, its checks.

Each workload has a ``setup(seed, workdir)`` that builds the inputs, a
``run(inputs)`` that runs the timed part once and returns a :class:`Round`,
and a ``check(inputs, round, solves)`` that checks the round's outputs
afterwards, outside any tracing. Each check counts as one operation, a
failed check as a failed operation.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from labeltransfer import data, pipeline, synth
from labeltransfer.pipeline import TrainConfig

import checks

# The acceptance gate's transfer task (tests/test_acceptance.py); the
# self-test asserts that these stay equal to the gate's constants.
GATE_MIX = {
    "L1A": {"L1": 0.85, "L2": 0.15},
    "L1B": {"L1": 0.65, "L2": 0.35},
    "L2A": {"L1": 0.35, "L2": 0.65},
    "L2B": {"L1": 0.15, "L2": 0.85},
}
GATE_SPEC = dict(
    cue_prob=0.9,
    cue_scheme="split",
    sentence_length=(8, 14),
    entities_per_sentence=(1, 2),
    entity_length=(1, 1),
    distractor_prob=0.1,
    source_sentences=200,
    target_test_sentences=300,
)
GATE_CONFIG = dict(
    learning_rate=0.3,
    epochs=80,
    batch_size=8,
    temperature=2.0,
    lambda1=2.0,
    lambda2=0.02,
    inner_iter=50,
    outer_iter=10,
)
GATE_K = 20

# The transfer workloads train on the task and few-shot set of this seed and
# take --seed as the training seed (TrainConfig.seed: initialisation and batch
# order). The task seed sets how hard the per-batch GW solves work: one full
# fine-tune ran 218k, 187k, 131k and 68k Sinkhorn iterations on task seeds
# 0, 2, 4 and 5, but 209k-225k on task 0 with training seeds 0-9. A run per
# task seed would time the task drawn, not the code.
TASK_SEED = 0

# Twelve target types under three source types: sibling subtypes A..D lean on
# their parent with weights 0.85..0.55 and spread the rest evenly over the
# other two source types. Up to three entities per sentence put 4 to 12
# labels into a batch, so about half of the solves meet a new label subset.
WIDE_SOURCES = ("L1", "L2", "L3")
WIDE_MIX = {
    f"{parent}{sub}": {
        src: (lean if src == parent else (1.0 - lean) / 2) for src in WIDE_SOURCES
    }
    for parent in WIDE_SOURCES
    for sub, lean in zip("ABCD", (0.85, 0.75, 0.65, 0.55))
}
WIDE_SPEC = dict(
    GATE_SPEC,
    source_labels=WIDE_SOURCES,
    target_parents={label: label[:2] for label in WIDE_MIX},
    entities_per_sentence=(1, 3),
    target_train_sentences=400,
)
# 40 epochs: at 20, F1 on the test set ranged 0.27-0.44 over training seeds
WIDE_CONFIG = dict(GATE_CONFIG, epochs=40)

# tag: the checkpoint comes from a short run on the gate's seed-0 task, so
# every seed tags with the same model and F1 moves only with the held-out
# corpus. The synthetic vocabulary depends on the spec alone, not the seed,
# so that model covers every seed's corpus. The held-out corpus is ten times
# the gate's test set.
TAG_CONFIG = dict(GATE_CONFIG, epochs=10, ablate_aux=True, ablate_gw=True)
TAG_SPEC = dict(
    GATE_SPEC, source_sentences=0, source_test_sentences=0,
    target_train_sentences=0, target_test_sentences=3000,
)


@dataclass
class Round:
    seconds: float  # wall time of the timed part
    tokens: int  # tokens through the forward pass in training and tagging
    f1: float
    outputs: dict  # what the checks look at
    notes: dict = field(default_factory=dict)  # diagnostics for the run record
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def check(self, messages):
        """Count one operation; it failed if the check returned messages."""
        self.attempted += 1
        self.failed += bool(messages)
        self.errors.extend(messages)


def n_tokens(corpus) -> int:
    return sum(len(tokens) for tokens, _ in corpus.sentences)


# -- transfer workloads ---------------------------------------------------------


@dataclass
class TransferInputs:
    source_train: object
    few: object
    test: object
    config: TrainConfig


def _transfer_setup(mix, spec, config, **overrides):
    def setup(seed, workdir):
        task = synth.generate(synth.SynthSpec(seed=TASK_SEED, target_mixtures=mix, **spec))
        few = data.greedy_sample(task.target_train, GATE_K, seed=TASK_SEED)
        cfg = TrainConfig(seed=seed, **config, **overrides)
        return TransferInputs(task.source_train, few, task.target_test, cfg)

    return setup


def transfer_run(inputs: TransferInputs) -> Round:
    """train_source, finetune and evaluate; run_s sums the three calls."""
    cfg = inputs.config
    t0 = perf_counter()
    f0 = pipeline.train_source(inputs.source_train, cfg)
    t1 = perf_counter()
    f0_hash = hashlib.sha256(f0.save_bytes()).hexdigest()
    t2 = perf_counter()
    model, log = pipeline.finetune(f0, inputs.few, cfg)
    t3 = perf_counter()
    prf = pipeline.evaluate(model, inputs.test)
    t4 = perf_counter()
    tokens = cfg.epochs * (n_tokens(inputs.source_train) + n_tokens(inputs.few))
    return Round(
        (t1 - t0) + (t3 - t2) + (t4 - t3), tokens + n_tokens(inputs.test), prf[2],
        dict(f0=f0, f0_hash=f0_hash, model=model, log=log, prf=prf),
    )


def transfer_check(inputs: TransferInputs, result: Round, solves: list):
    """``solves`` holds (d_s, d_t, GwResult) of every GW solve of the round."""
    out = result.outputs
    result.check(checks.check_log(out["log"]))
    after = hashlib.sha256(out["f0"].save_bytes()).hexdigest()
    result.check([] if after == out["f0_hash"] else ["finetune changed the source model"])
    gold = [tags for _, tags in inputs.test.sentences]
    pred = [out["model"].predict_tags(tokens) for tokens, _ in inputs.test.sentences]
    result.check(checks.check_prf(out["prf"], gold, pred))
    for d_s, d_t, gw in solves:
        result.check(checks.check_plan(d_s, d_t, gw.plan.matrix, gw.value))
    result.notes["max_plan_marginal_error"] = max(
        (checks.marginal_error(gw.plan.matrix) for _, _, gw in solves), default=0.0
    )


# -- tag ----------------------------------------------------------------------------


@dataclass
class TagInputs:
    checkpoint: str
    corpus_path: str
    gold: list  # gold tag tuples, as written to corpus_path
    sentences: list  # token tuples


def tag_setup(seed, workdir):
    """A fused checkpoint from a short run, and a held-out corpus, on disk."""
    train = synth.generate(synth.SynthSpec(seed=TASK_SEED, target_mixtures=GATE_MIX, **GATE_SPEC))
    few = data.greedy_sample(train.target_train, GATE_K, seed=TASK_SEED)
    cfg = TrainConfig(seed=TASK_SEED, **TAG_CONFIG)
    model, _ = pipeline.finetune(pipeline.train_source(train.source_train, cfg), few, cfg)
    test = synth.generate(synth.SynthSpec(seed=seed, target_mixtures=GATE_MIX, **TAG_SPEC)).target_test
    checkpoint = os.path.join(workdir, "tag.ckpt")
    corpus_path = os.path.join(workdir, "tag_test.conll")
    model.save(checkpoint)
    with open(corpus_path, "w", encoding="utf-8") as fh:
        fh.write(test.to_conll())
    return TagInputs(
        checkpoint, corpus_path,
        [tags for _, tags in test.sentences],
        [tokens for tokens, _ in test.sentences],
    )


def tag_run(inputs: TagInputs) -> Round:
    """The user's evaluate path: load, parse, tag forward-only, score."""
    t0 = perf_counter()
    model = pipeline.Model.load(inputs.checkpoint)
    with open(inputs.corpus_path, "rb") as fh:
        corpus = data.parse_conll(fh.read())
    prf = pipeline.evaluate(model, corpus)
    t1 = perf_counter()
    return Round(t1 - t0, n_tokens(corpus), prf[2], dict(model=model, corpus=corpus, prf=prf))


def tag_check(inputs: TagInputs, result: Round, solves: list):
    """Per sentence, the program's logits against a plain-numpy forward pass."""
    model = result.outputs["model"]
    params = {name: t.data for name, t in model.params.named_tensors()}
    graph = model.source_graph
    adjacency = checks.gcn_adjacency(graph.n, graph.edges)
    pred = []
    for tokens in inputs.sentences:
        ids = np.array([model.vocab.stoi.get(t, 0) for t in tokens])
        reference = checks.reference_logits(params, adjacency, ids)
        result.check(checks.check_logits(model.tag_logits_array(tokens), reference))
        pred.append([model.tags[i] for i in reference.argmax(axis=1)])
    parsed = [tags for _, tags in result.outputs["corpus"].sentences]
    result.check([] if parsed == inputs.gold else ["parsed gold tags differ from the written ones"])
    result.check(checks.check_prf(result.outputs["prf"], inputs.gold, pred))


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object


WORKLOADS = {
    "transfer_full": Workload(
        _transfer_setup(GATE_MIX, GATE_SPEC, GATE_CONFIG), transfer_run, transfer_check,
    ),
    "transfer_plain": Workload(
        _transfer_setup(GATE_MIX, GATE_SPEC, GATE_CONFIG, ablate_aux=True, ablate_gw=True),
        transfer_run, transfer_check,
    ),
    "transfer_wide": Workload(
        _transfer_setup(WIDE_MIX, WIDE_SPEC, WIDE_CONFIG), transfer_run, transfer_check,
    ),
    "tag": Workload(tag_setup, tag_run, tag_check),
}
