"""Acceptance suite: end-to-end correctness gates at fixed tolerances.

Each test is self-contained and deterministic; the transfer experiment
(`test_synthetic_transfer_ablation`) is the long pole at roughly two minutes.
"""

import hashlib
import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from labeltransfer import autodiff as ad
from labeltransfer import fusion as fu
from labeltransfer.autodiff import Tensor, grad_check
from labeltransfer.data import (
    TaggedCorpus,
    entity_counts,
    entity_type,
    extract_spans,
    greedy_sample,
    micro_f1,
    parse_conll,
)
from labeltransfer.gw import (
    gromov_wasserstein_distances,
    gw_fixed_plan_loss,
    gw_objective,
)
from labeltransfer.labelgraph import (
    build_graph,
    normalize_nodes,
    target_graph_from_batch,
)
from labeltransfer.pipeline import (
    TrainConfig,
    build_source_graph,
    evaluate,
    finetune,
    sweep,
    train_source,
)
from labeltransfer.synth import TRANSFER_CONFIG, TRANSFER_SPEC, SynthSpec, generate
from labeltransfer.synth import TRANSFER_MIX as MIX  # the gate's name, read by perfbench


def random_distance_matrix(rng, n):
    pts = rng.normal(size=(n, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


# 1. identity and permutation self-distances ----------------------------------


def test_graph_matching_identity_and_permutation():
    rng = np.random.default_rng(0)
    start = time.monotonic()
    for _ in range(50):
        n = int(rng.integers(3, 9))
        d = random_distance_matrix(rng, n)

        res_id = gromov_wasserstein_distances(d, d, epsilon=1e-3, anneal=True)
        assert res_id.value <= 1e-6
        assert res_id.plan.marginal_error() < 1e-6

        perm = rng.permutation(n)
        d_p = d[np.ix_(perm, perm)]
        res_perm = gromov_wasserstein_distances(d, d_p, epsilon=1e-3, anneal=True)
        assert res_perm.value <= 1e-6
        assert res_perm.plan.marginal_error() < 1e-6
    assert time.monotonic() - start < 10.0


# 2. solver vs exhaustive permutation oracle ------------------------------------


def test_graph_matching_beats_permutation_oracle():
    rng = np.random.default_rng(1)
    start = time.monotonic()
    for _ in range(20):
        n = int(rng.integers(3, 5))
        d_s = random_distance_matrix(rng, n)
        d_t = random_distance_matrix(rng, n)
        res = gromov_wasserstein_distances(
            d_s, d_t, epsilon=1e-3, anneal=True, restarts=4
        )
        oracle = min(
            gw_objective(d_s, d_t, np.eye(n)[list(perm)] / n)
            for perm in itertools.permutations(range(n))
        )
        assert res.value <= oracle + 1e-3
    assert time.monotonic() - start < 10.0


# 3. finite-difference gradient gates ----------------------------------------------


def test_gradient_suite():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    params = fu.ModelParams(d_h=5, d_p=4, n_types=3, n_tags=7, encoder_mode="toy")
    fu.init_params(params, rng, vocab_size=9, fused=True)
    rows = rng.dirichlet(np.ones(4), size=3)
    graph = build_graph(rows, ["A", "B", "C"], threshold=2.5)
    h_fixed = Tensor(rng.normal(size=(4, 5)))

    # (a) each fusion building block in isolation
    w_u = Tensor(rng.normal(size=(3, 4)))
    report = grad_check(
        lambda: (fu.label_attention(h_fixed, params)[2] * w_u).sum(),
        params.trainable(),
    )
    assert report.passed, f"label attention: {report.max_rel_err}"

    u_fixed = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    report = grad_check(
        lambda: (fu.gcn_propagate(u_fixed, graph, params) * w_u).sum(),
        [u_fixed, params.gcn_w1, params.gcn_w2],
    )
    assert report.passed, f"graph propagation: {report.max_rel_err}"

    w_h = Tensor(rng.normal(size=(4, 5)))

    def fused_out():
        q, _, u = fu.label_attention(h_fixed, params)
        u_prime = fu.gcn_propagate(u, graph, params)
        _, h_prime = fu.token_fusion(h_fixed, q, u_prime, params)
        return (h_prime * w_h).sum()

    report = grad_check(fused_out, params.trainable())
    assert report.passed, f"token fusion: {report.max_rel_err}"

    report = grad_check(
        lambda: fu.classification_loss(h_fixed + params.out_b, [0, 3, 6, 1], params),
        [params.cls_w, params.cls_b, params.out_b],
    )
    assert report.passed, f"tag head: {report.max_rel_err}"

    report = grad_check(
        lambda: fu.auxiliary_loss(h_fixed + params.out_b, np.array([1.0, 0.0, 1.0]), params),
        [params.aux_w, params.aux_b, params.out_b],
    )
    assert report.passed, f"presence head: {report.max_rel_err}"

    # (b) fixed-plan graph-matching loss
    d_s = random_distance_matrix(rng, 3)
    d_t = Tensor(random_distance_matrix(rng, 3) + 0.07, requires_grad=True)
    plan = rng.dirichlet(np.ones(9)).reshape(3, 3)
    report = grad_check(lambda: gw_fixed_plan_loss(d_t, d_s, plan), [d_t])
    assert report.passed, f"fixed-plan loss: {report.max_rel_err}"

    # (c) the full training objective on a 2-sentence batch
    sentences = [
        (np.array([1, 4, 2, 7]), [0, 1, 2, 0], ["A", None, "B", None]),
        (np.array([3, 5, 8]), [3, 4, 0], [None, "C", "A"]),
    ]
    groups = [[1, 2], [3, 4], [5, 6]]
    lam1, lam2 = 0.7, 0.4

    def batch_type_logits():
        per_sentence = []
        gold = []
        cls_terms, weights, aux_terms = [], [], []
        for ids, tag_ids, types in sentences:
            h = fu.encode_toy(ids, params)
            trace = fu.fusion_forward(h, graph, params)
            logits = fu.tag_logits(trace.h_prime, params)
            cls_terms.append(fu.classification_loss_from_logits(logits, tag_ids))
            weights.append(len(ids))
            present = np.zeros(3)
            for t in types:
                if t is not None:
                    present["ABC".index(t)] = 1.0
            aux_terms.append(fu.auxiliary_loss(trace.h_prime, present, params))
            ent = [k for k, t in enumerate(types) if t is not None]
            tl = ad.logsumexp_cols(logits, groups)
            sel = np.zeros((len(ent), len(ids)))
            sel[np.arange(len(ent)), ent] = 1.0
            per_sentence.append(ad.matmul(Tensor(sel), tl))
            gold.extend(types[k] for k in ent)
        total = float(sum(weights))
        cls = sum((w / total) * l for w, l in zip(weights, cls_terms))
        aux = sum(aux_terms) / float(len(aux_terms))
        tl_all = ad.concat_rows(per_sentence)
        return cls, aux, tl_all, gold

    cls0, aux0, tl0, gold0 = batch_type_logits()
    tgb0 = target_graph_from_batch(tl0, gold0, temperature=2.0)
    gs_sub = build_graph(rows, ["A", "B", "C"], 1.5).subgraph(list(tgb0.labels))
    d_source = gs_sub.distance_matrix()
    frozen_plan = gromov_wasserstein_distances(
        d_source, tgb0.distances.data, epsilon=0.05, anneal=False
    ).plan.matrix

    def full_objective():
        cls, aux, tl, gold = batch_type_logits()
        tgb = target_graph_from_batch(tl, gold, temperature=2.0)
        gw = gw_fixed_plan_loss(tgb.distances, d_source, frozen_plan)
        return cls + lam1 * aux + lam2 * gw

    report = grad_check(full_objective, params.trainable())
    assert report.passed, f"full objective: {report.max_rel_err}"
    assert time.monotonic() - start < 60.0


# 4. node normalization and edge monotonicity ----------------------------------------


def test_normalization_invariant_and_edge_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 7))
        rows = rng.dirichlet(np.ones(dim), size=n)
        out = normalize_nodes(rows)
        diff = out.nodes[:, None, :] - out.nodes[None, :, :]
        mean = np.sqrt((diff * diff).sum(axis=-1)).sum() / (n * n)
        assert abs(mean - 1.0) <= 1e-9

        labels = [f"L{i}" for i in range(n)]
        thresholds = sorted(rng.uniform(0.2, 3.0, size=3))
        edge_sets = [set(build_graph(rows, labels, t).edges) for t in thresholds]
        assert edge_sets[0] <= edge_sets[1] <= edge_sets[2]


# 5. span extraction and micro-F1 vs brute force ---------------------------------------


def brute_force_spans(corpus):
    out = set()
    for si, (_, tags) in enumerate(corpus.sentences):
        start, cur = None, None
        for k, tag in enumerate(tags + ("O",)):
            t = entity_type(tag)
            if start is not None and (t != cur or tag.startswith("B-") or tag == "O"):
                out.add((si, start, k, cur))
                start, cur = None, None
            if t is not None and start is None:
                start, cur = k, t
    return out


def test_span_metrics_match_brute_force():
    rng = np.random.default_rng(4)
    tagset = ["O", "B-A", "I-A", "B-B", "I-B", "B-C", "I-C"]
    for _ in range(200):
        n = int(rng.integers(1, 12))
        text = "\n".join(f"w{k} {rng.choice(tagset)}" for k in range(n)) + "\n"
        corpus = parse_conll(text)
        got = {(s.sentence_index, s.start, s.end, s.entity_type)
               for s in extract_spans(corpus)}
        assert got == brute_force_spans(corpus)

        pred_text = "\n".join(f"w{k} {rng.choice(tagset)}" for k in range(n)) + "\n"
        pred = parse_conll(pred_text)
        gs = set(extract_spans(corpus))
        ps = set(extract_spans(pred))
        tp = len(gs & ps)
        p = tp / len(ps) if ps else 0.0
        r = tp / len(gs) if gs else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        assert micro_f1(list(gs), list(ps)) == pytest.approx((p, r, f))

    # hand case: two gold entities, one matched, one spurious prediction
    gold = extract_spans(parse_conll("a B-X\nb O\nc B-Y\nd O\n"))
    pred = extract_spans(parse_conll("a B-X\nb O\nc O\nd B-Y\n"))
    assert micro_f1(gold, pred) == (0.5, 0.5, 0.5)


# 6. few-shot sampler contract ------------------------------------------------------------


def test_sampler_quota_and_scarce_type():
    rng = np.random.default_rng(5)
    k = 20
    sentences = []
    counts = {"A": 70, "B": 65, "C": 90, "RARE": 7}  # abundant types have >= 3k
    for label, count in counts.items():
        for _ in range(count):
            filler = int(rng.integers(1, 4))
            toks = tuple(f"w{int(rng.integers(40))}" for _ in range(filler)) + ("e",)
            tags = ("O",) * filler + (f"B-{label}",)
            sentences.append((toks, tags))
    order = rng.permutation(len(sentences))
    corpus = TaggedCorpus(tuple(sentences[i] for i in order))

    sample = greedy_sample(corpus, k=k, seed=0)
    got = entity_counts(sample)
    for label in ("A", "B", "C"):
        assert got[label] >= k
    assert got["RARE"] == counts["RARE"]  # fewer than k available: all included


# 7. synthetic cross-domain transfer with ablations ------------------------------------------


def test_synthetic_transfer_ablation():
    start = time.monotonic()
    results: dict[str, list[float]] = {}
    for seed in range(5):
        task = generate(SynthSpec(seed=seed, target_mixtures=MIX, **TRANSFER_SPEC))
        base = TrainConfig(seed=seed, **TRANSFER_CONFIG)
        f0 = train_source(task.source_train, base)
        few = greedy_sample(task.target_train, 20, seed=seed)
        variants = {
            "full": base,
            "no_gw": replace(base, ablate_gw=True),
            "no_aux": replace(base, ablate_aux=True),
            "none": replace(base, ablate_aux=True, ablate_gw=True),
        }
        for name, cfg in variants.items():
            model, _ = finetune(f0, few, cfg)
            _, _, f1 = evaluate(model, task.target_test)
            results.setdefault(name, []).append(f1)
    means = {name: float(np.mean(v)) for name, v in results.items()}

    assert means["full"] >= means["no_gw"], means
    assert means["full"] >= means["no_aux"], means
    assert means["no_gw"] >= means["none"], means
    assert means["no_aux"] >= means["none"], means
    assert means["full"] - means["none"] > 0.02, means
    assert time.monotonic() - start < 300.0


# 8. configuration equivalences -----------------------------------------------------------------


def test_configuration_equivalences():
    task = generate(SynthSpec(seed=0, source_sentences=60, source_test_sentences=20,
                              target_train_sentences=40, target_test_sentences=20))
    cfg = TrainConfig(d_h=16, d_p=8, epochs=3, learning_rate=0.3, seed=0)
    f0 = train_source(task.source_train, cfg)

    # a weight of zero and the ablation flag give the same run, down to the
    # formatted sweep row
    ablated, _ = finetune(f0, task.target_train, replace(cfg, ablate_gw=True))
    _, _, f1_ablated = evaluate(ablated, task.target_test)
    csv_text = sweep("lambda2", [0.0], f0, task.target_train, task.target_test, cfg)
    row = csv_text.strip().splitlines()[1]
    assert row == f"0.0,{f1_ablated:.6f},0.000000"

    # with both weights at zero the recorded total is exactly the tag loss
    _, log = finetune(f0, task.target_train, replace(cfg, lambda1=0.0, lambda2=0.0))
    for entry in log:
        assert abs(entry["total"] - entry["cls"]) <= 1e-12

    # one seed, two runs: identical logs end to end
    _, log1 = finetune(f0, task.target_train, cfg)
    _, log2 = finetune(f0, task.target_train, cfg)
    assert log1 == log2


# 9. frozen-source contract ------------------------------------------------------------------------


def test_source_model_and_graph_frozen_across_finetuning():
    task = generate(SynthSpec(seed=0, source_sentences=60, source_test_sentences=20,
                              target_train_sentences=40, target_test_sentences=20))
    cfg = TrainConfig(d_h=16, d_p=8, epochs=3, learning_rate=0.3, seed=0)
    f0 = train_source(task.source_train, cfg)

    f0_hash_before = hashlib.sha256(f0.save_bytes()).hexdigest()
    graph_before = build_source_graph(f0, task.target_train, cfg)
    graph_hash_before = hashlib.sha256(graph_before.to_json().encode()).hexdigest()

    model, _ = finetune(f0, task.target_train, cfg)

    assert hashlib.sha256(f0.save_bytes()).hexdigest() == f0_hash_before
    graph_after = build_source_graph(f0, task.target_train, cfg)
    assert hashlib.sha256(graph_after.to_json().encode()).hexdigest() == graph_hash_before
    # the graph carried inside the fine-tuned model is that same frozen graph
    assert hashlib.sha256(model.source_graph.to_json().encode()).hexdigest() == graph_hash_before
