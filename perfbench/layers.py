"""Which module functions get a span, what each counts, and the per-layer metrics.

The layers are the package's modules. Every wrapped name is replaced where
its caller looks it up, so calls made inside the package are traced too
(``finetune`` calling ``evaluate``, ``Model.encode`` calling
``fusion.encode_toy``).
"""

from __future__ import annotations

import statistics

from labeltransfer import autodiff, data, fusion, gw, pipeline, synth

from tracing import Tracer

# (owner, attribute, span name)
SPANS = [
    (pipeline, "train_source", "pipeline.train_source"),
    (pipeline, "finetune", "pipeline.finetune"),
    (pipeline, "evaluate", "pipeline.evaluate"),
    (pipeline, "build_source_graph", "labelgraph.source_graph"),
    (pipeline, "target_graph_from_batch", "labelgraph.target_graph"),
    (pipeline, "gw_fixed_plan_loss", "gw.loss"),
    (pipeline, "extract_spans", "data.spans"),
    (gw, "sinkhorn", "gw.sinkhorn"),
    (fusion, "encode_toy", "fusion.encode"),
    (fusion, "fusion_forward", "fusion.fusion"),
    (fusion, "tag_logits", "fusion.heads"),
    (fusion, "classification_loss_from_logits", "fusion.heads"),
    (fusion, "auxiliary_loss", "fusion.heads"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (data, "parse_conll", "data.parse"),
    (synth, "generate", "synth.generate"),
]

# per-layer metric -> (span name, summary field, scale)
SPAN_METRICS = {
    "gw.solve_ms": ("gw.solve", "incl_s", 1e3),
    "gw.solve_self_ms": ("gw.solve", "self_s", 1e3),
    "gw.solves": ("gw.solve", "calls", 1),
    "gw.sinkhorn_ms": ("gw.sinkhorn", "incl_s", 1e3),
    "gw.sinkhorn_calls": ("gw.sinkhorn", "calls", 1),
    "gw.loss_ms": ("gw.loss", "incl_s", 1e3),
    "labelgraph.target_graph_ms": ("labelgraph.target_graph", "incl_s", 1e3),
    "labelgraph.target_graph_calls": ("labelgraph.target_graph", "calls", 1),
    "labelgraph.source_graph_ms": ("labelgraph.source_graph", "incl_s", 1e3),
    "labelgraph.source_graph_self_ms": ("labelgraph.source_graph", "self_s", 1e3),
    "autodiff.backward_ms": ("autodiff.backward", "incl_s", 1e3),
    "autodiff.backward_calls": ("autodiff.backward", "calls", 1),
    "fusion.encode_ms": ("fusion.encode", "incl_s", 1e3),
    "fusion.fusion_ms": ("fusion.fusion", "incl_s", 1e3),
    "fusion.fusion_calls": ("fusion.fusion", "calls", 1),
    "fusion.heads_ms": ("fusion.heads", "incl_s", 1e3),
    "pipeline.train_source_s": ("pipeline.train_source", "incl_s", 1),
    "pipeline.train_source_self_s": ("pipeline.train_source", "self_s", 1),
    "pipeline.finetune_s": ("pipeline.finetune", "incl_s", 1),
    "pipeline.finetune_self_s": ("pipeline.finetune", "self_s", 1),
    "pipeline.evaluate_ms": ("pipeline.evaluate", "incl_s", 1e3),
    "pipeline.evaluate_self_ms": ("pipeline.evaluate", "self_s", 1e3),
    "pipeline.evaluate_calls": ("pipeline.evaluate", "calls", 1),
    "pipeline.load_ms": ("pipeline.load", "incl_s", 1e3),
    "data.parse_ms": ("data.parse", "incl_s", 1e3),
    "data.spans_ms": ("data.spans", "incl_s", 1e3),
}


def _capture_solves(solves):
    solve = pipeline.gromov_wasserstein_distances

    def capturing_solve(d_s, d_t, *args, **kwargs):
        result = solve(d_s, d_t, *args, **kwargs)
        solves.append((d_s, d_t, result))
        return result

    return capturing_solve


def replacements(tracer: Tracer | None, solves: list):
    """Attribute replacements for one run.

    Every GW solve is captured into ``solves`` for the plan checks, traced or
    not; spans and counters are added only when a tracer is given.
    """
    capture = _capture_solves(solves)
    if tracer is None:
        return [(pipeline, "gromov_wasserstein_distances", capture)]
    counters, seen_subsets = tracer.counters, tracer.seen

    def after_solve(result, args, kwargs):
        d_s = args[0]
        # the source graph is frozen, so its sub-distance matrix names the label subset
        subset = (d_s.shape[0], d_s.tobytes())
        counters["gw.repeat_subsets"] += subset in seen_subsets
        seen_subsets.add(subset)
        counters["gw.labels"] += d_s.shape[0]
        counters["gw.outer_iters"] += result.outer_iterations
        counters["gw.inner_iters"] += result.inner_iterations
        counters["gw.converged"] += result.converged
        counters["gw.nonmonotone"] += not result.monotone

    def after_sinkhorn(result, args, kwargs):
        iterations, converged = result[3], result[4]
        max_iter = kwargs.get("max_iter", 200)
        counters["gw.sinkhorn_capped"] += (not converged) and iterations >= max_iter

    init = autodiff.Tensor.__init__

    def counting_init(self, value, requires_grad=False):
        counters["autodiff.tensors"] += 1
        init(self, value, requires_grad)

    after = {"gw.sinkhorn": after_sinkhorn}
    out = [
        (owner, name, tracer.wrap(span, getattr(owner, name), after.get(span)))
        for owner, name, span in SPANS
    ]
    out.append((pipeline, "gromov_wasserstein_distances", tracer.wrap("gw.solve", capture, after_solve)))
    out.append((pipeline.Model, "load", staticmethod(tracer.wrap("pipeline.load", pipeline.Model.load))))
    out.append((autodiff.Tensor, "__init__", counting_init))
    return out


def _share(part, whole):
    return part / whole if whole else 0.0


def round_metrics(tracer: Tracer, run_s: float) -> dict:
    """Per-layer metrics of the round the tracer just recorded."""
    summary = tracer.summary()
    c = tracer.counters
    out = {}
    for metric, (span, field, scale) in SPAN_METRICS.items():
        out[metric] = summary.get(span, {}).get(field, 0) * scale
    solves = out["gw.solves"]
    out.update({
        "gw.outer_iters": c["gw.outer_iters"],
        "gw.inner_iters": c["gw.inner_iters"],
        "gw.sinkhorn_capped_share": _share(c["gw.sinkhorn_capped"], out["gw.sinkhorn_calls"]),
        "gw.converged_share": _share(c["gw.converged"], solves),
        "gw.nonmonotone": c["gw.nonmonotone"],
        "gw.labels_mean": _share(c["gw.labels"], solves),
        "gw.repeat_subset_share": _share(c["gw.repeat_subsets"], solves),
        "autodiff.tensors": c["autodiff.tensors"],
        "trace.run_s": run_s,
    })
    return out


def median_metrics(rounds: list[dict]) -> dict:
    """Median over rounds per metric (counts repeat exactly between rounds)."""
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
