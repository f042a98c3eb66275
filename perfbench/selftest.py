#!/usr/bin/env python3
"""Self-test of the benchmark: every output check fails on a corrupted output.

    python3 perfbench/selftest.py

Also asserts that the transfer workloads use the acceptance gate's constants
(tests/test_acceptance.py) and that BENCHMARK.json names exactly the metrics
``run.py`` prints. Exits non-zero on the first failure.
"""

from __future__ import annotations

import functools
import importlib.util
import json

import run

run.import_package()

import numpy as np

from labeltransfer import pipeline, synth
from labeltransfer.data import TaggedCorpus, extract_spans, micro_f1
from labeltransfer.gw import gromov_wasserstein_distances
from labeltransfer.pipeline import TrainConfig

import checks
import layers
import tracing
import workloads


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def test_gate_constants():
    spec = importlib.util.spec_from_file_location("gate", run.ROOT / "tests" / "test_acceptance.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    expect(workloads.GATE_MIX == gate.MIX, "GATE_MIX differs from the gate's MIX")
    expect(workloads.GATE_SPEC == gate.TRANSFER_SPEC, "GATE_SPEC differs from TRANSFER_SPEC")
    expect(workloads.GATE_CONFIG == gate.TRANSFER_CONFIG, "GATE_CONFIG differs from TRANSFER_CONFIG")
    expect(
        f"greedy_sample(task.target_train, {workloads.GATE_K}, seed=seed)" in spec.loader.get_source("gate"),
        "the gate no longer samples K=GATE_K",
    )


def test_brute_force_spans():
    # orphan I- tags, as a tagger may predict them, open no span
    tags = ("B-A", "I-A", "O", "I-B", "B-B", "I-B", "I-A", "B-A")
    expect(
        checks.brute_force_spans([tags]) == {(0, 0, 2, "A"), (0, 4, 6, "B"), (0, 7, 8, "A")},
        "brute-force spans of a hand-made sentence",
    )
    generated = synth.generate(synth.SynthSpec(seed=3, target_test_sentences=50)).target_test
    for corpus in (TaggedCorpus(((tuple("abcdefgh"), tags),)), generated):
        program = {(s.sentence_index, s.start, s.end, s.entity_type) for s in extract_spans(corpus)}
        brute = checks.brute_force_spans([t for _, t in corpus.sentences])
        expect(brute == program, "brute-force spans differ from the program's")


def test_prf_catches_a_flipped_tag():
    corpus = synth.generate(synth.SynthSpec(seed=1, target_test_sentences=40)).target_test
    gold = [list(tags) for _, tags in corpus.sentences]
    pred = [list(tags) for tags in gold]
    pred[0][next(k for k, t in enumerate(pred[0]) if t.startswith("B-"))] = "O"
    reported = micro_f1(
        extract_spans(corpus),
        extract_spans(TaggedCorpus(tuple((tok, tuple(p)) for (tok, _), p in zip(corpus.sentences, pred)))),
    )
    expect(not checks.check_prf(reported, gold, pred), "check_prf rejects the program's own P/R/F1")
    flipped = [list(p) for p in pred]
    flipped[2][0] = "B-X" if flipped[2][0] == "O" else "O"
    expect(checks.check_prf(reported, gold, flipped), "check_prf misses one flipped predicted tag")


def test_plan_checks():
    rng = np.random.default_rng(0)
    for n, m in ((4, 4), (5, 3), (9, 9)):
        pts_s, pts_t = rng.normal(size=(n, 3)), rng.normal(size=(m, 3))
        d_s = np.linalg.norm(pts_s[:, None] - pts_s[None], axis=-1)
        d_t = np.linalg.norm(pts_t[:, None] - pts_t[None], axis=-1)
        res = gromov_wasserstein_distances(d_s, d_t, epsilon=0.05, outer_iter=10, inner_iter=50, anneal=False)
        plan = res.plan.matrix
        expect(not checks.check_plan(d_s, d_t, plan, res.value), f"a solver plan fails at n={n}, m={m}")
        broken = plan.copy()
        broken[0] *= 2.0
        value = checks.objective(d_s, d_t, broken)
        expect(checks.check_plan(d_s, d_t, broken, value), "a plan with a broken marginal passes")
        negative = plan.copy()
        negative[0, 0], negative[0, 1] = -1e-3, negative[0, 1] + negative[0, 0] + 1e-3
        expect(checks.check_plan(d_s, d_t, negative, checks.objective(d_s, d_t, negative)), "a negative plan passes")
        expect(checks.check_plan(d_s, d_t, plan, res.value + 1e-6), "a value not matching its plan passes")
        product = np.full((n, m), 1.0 / (n * m))
        expect(not checks.check_plan(d_s, d_t, product, checks.objective(d_s, d_t, product)), "product plan fails")
        expect(
            checks.check_plan(d_s, d_t, product, checks.objective(d_s, d_t, product) + 1e-3),
            "a value above the product plan's passes",
        )


@functools.cache
def _tiny_fused_model():
    task = synth.generate(synth.SynthSpec(seed=0, source_sentences=40, target_train_sentences=40,
                                          target_test_sentences=30))
    cfg = TrainConfig(seed=0, d_h=8, d_p=6, epochs=2, learning_rate=0.3)
    model, log = pipeline.finetune(pipeline.train_source(task.source_train, cfg), task.target_train, cfg)
    return model, log, task.target_test


def test_logit_and_tag_checks():
    model, _, test = _tiny_fused_model()
    params = {name: t.data for name, t in model.params.named_tensors()}
    adjacency = checks.gcn_adjacency(model.source_graph.n, model.source_graph.edges)
    pred = []
    for tokens, _ in test.sentences:
        ids = np.array([model.vocab.stoi.get(t, 0) for t in tokens])
        reference = checks.reference_logits(params, adjacency, ids)
        program = model.tag_logits_array(tokens)
        expect(not checks.check_logits(program, reference), "program logits differ from the numpy forward")
        nudged = program.copy()
        nudged[0, 0] += 1e-6
        expect(checks.check_logits(nudged, reference), "a logit off by 1e-6 passes")
        pred.append([model.tags[i] for i in reference.argmax(axis=1)])
    gold = [tags for _, tags in test.sentences]
    reported = pipeline.evaluate(model, test)
    expect(not checks.check_prf(reported, gold, pred), "evaluate disagrees with the numpy forward's tags")


def test_log_checks():
    _, log, _ = _tiny_fused_model()
    good = [dict(e, cls=2.0 - e["epoch"]) for e in log]
    expect(not checks.check_log(good), "a falling, finite log fails")
    expect(checks.check_log([dict(e, cls=1.0) for e in log]), "a flat cls passes")
    expect(checks.check_log([dict(good[0], gw=float("nan"))] + good[1:]), "a NaN loss passes")


def test_benchmark_json_names():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS), "workload names")
    expect(
        {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS,
        "end_to_end metrics differ from run.END_TO_END_UNITS",
    )
    tracer = tracing.Tracer("selftest")
    printed = set(layers.round_metrics(tracer, 0.0)) | {"synth.generate_ms"}
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(set(declared) == printed, f"per_layer differs: {sorted(set(declared) ^ printed)}")
    expect(all(declared[n] == run.unit_of(n) for n in declared), "per_layer units")


def main():
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"selftest: {len(tests)} passed")


if __name__ == "__main__":
    main()
