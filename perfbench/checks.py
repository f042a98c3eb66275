"""Output checks that recompute each result apart from the program.

Every function here uses plain numpy and Python only; none calls into
``labeltransfer``. Each returns a list of failure messages (empty when the
output is correct), so a caller can count one operation per check.
"""

from __future__ import annotations

import math

import numpy as np

# A GW plan used as a loss must meet its uniform marginals to this tolerance,
# relative to one node's mass (|row sum - 1/n| * n, likewise for columns).
# Fine-tuning stops Sinkhorn at ``inner_iter``, so the plans it uses are not
# exact: the worst error seen is 0.02, on transfer_wide (see README). A
# broken marginal is off by a whole node's mass.
PLAN_MARGINAL_TOL = 0.1
# Slack on "value <= objective of the uniform product plan": the solver
# accepts a step whose objective exceeds the best so far by up to 1e-9.
PLAN_VALUE_SLACK = 1e-8
# The returned value must equal the objective recomputed from the plan.
PLAN_VALUE_RTOL = 1e-9
LOGIT_ATOL = 1e-9
F1_ATOL = 1e-12


def brute_force_spans(tag_sentences) -> set[tuple[int, int, int, str]]:
    """Every (sentence, start, end, type) that is a maximal ``B-X (I-X)*`` run.

    Enumerates all (start, end) pairs; an ``I-X`` that does not continue an
    ``X`` run opens no span, as in the program's documented rule.
    """
    spans = set()
    for si, tags in enumerate(tag_sentences):
        n = len(tags)
        for start in range(n):
            if not tags[start].startswith("B-"):
                continue
            label = tags[start][2:]
            for end in range(start + 1, n + 1):
                inside = all(t == "I-" + label for t in tags[start + 1 : end])
                maximal = end == n or tags[end] != "I-" + label
                if inside and maximal:
                    spans.add((si, start, end, label))
    return spans


def check_prf(reported, gold_tags, pred_tags) -> list[str]:
    """``reported`` (P, R, F1) equals micro-F1 recomputed from the tag lists."""
    gold = brute_force_spans(gold_tags)
    pred = brute_force_spans(pred_tags)
    tp = len(gold & pred)
    p = tp / len(pred) if pred else 0.0
    r = tp / len(gold) if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    expected = (p, r, f1)
    if any(abs(a - b) > F1_ATOL for a, b in zip(reported, expected)):
        return [f"P/R/F1 {tuple(reported)} != recomputed {expected}"]
    return []


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def gcn_adjacency(n: int, edges) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 from an edge list of (i, j) pairs."""
    a = np.eye(n)
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    d = 1.0 / np.sqrt(a.sum(axis=1))
    return d[:, None] * a * d[None, :]


def reference_logits(p: dict, adjacency: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Tag logits of a fused toy-encoder model, one sentence, plain numpy.

    ``p`` maps parameter names to arrays: window-3 encoder with residual,
    label attention, two GCN layers, token fusion and the tag head.
    """
    e = p["embed"][ids]
    left = np.vstack([np.zeros((1, e.shape[1])), e[:-1]])
    right = np.vstack([e[1:], np.zeros((1, e.shape[1]))])
    mixed = left @ p["mix_left"] + e @ p["mix_center"] + right @ p["mix_right"] + p["mix_bias"]
    h = e + np.maximum(mixed, 0.0)
    q = h @ p["proj_w"] + p["proj_b"]
    u = _softmax(p["label_reps"] @ q.T) @ q
    hidden = np.maximum(adjacency @ u @ p["gcn_w1"], 0.0)
    u_prime = adjacency @ hidden @ p["gcn_w2"]
    fused = h + (_softmax(q @ u_prime.T) @ u_prime) @ p["out_w"] + p["out_b"]
    return fused @ p["cls_w"] + p["cls_b"]


def check_logits(program: np.ndarray, reference: np.ndarray) -> list[str]:
    if program.shape != reference.shape:
        return [f"logits shape {program.shape} != {reference.shape}"]
    err = float(np.abs(program - reference).max())
    if not err <= LOGIT_ATOL:
        return [f"logits differ from the numpy forward by {err:.3g}"]
    return []


def objective(d_s: np.ndarray, d_t: np.ndarray, plan: np.ndarray) -> float:
    """sum_{i,j,k,l} plan[i,j] plan[k,l] |d_s[i,k] - d_t[j,l]|, by rows of d_s."""
    total = 0.0
    for i in range(d_s.shape[0]):
        for k in range(d_s.shape[0]):
            cost = np.abs(d_s[i, k] - d_t)  # over (j, l)
            total += float(plan[i] @ cost @ plan[k])
    return total


def marginal_error(plan: np.ndarray) -> float:
    """Largest row or column sum error relative to the uniform node mass."""
    n, m = plan.shape
    return max(
        float(np.abs(plan.sum(axis=1) * n - 1.0).max()),
        float(np.abs(plan.sum(axis=0) * m - 1.0).max()),
    )


def check_plan(d_s, d_t, plan, value) -> list[str]:
    """A GW plan used for the loss: feasible, and no worse than the product plan."""
    n, m = d_s.shape[0], d_t.shape[0]
    errors = []
    if plan.shape != (n, m) or not np.all(np.isfinite(plan)):
        return [f"plan of shape {plan.shape} is not a finite {n}x{m} matrix"]
    if plan.min() < 0:
        errors.append(f"plan has a negative entry {plan.min():.3g}")
    marginal = marginal_error(plan)
    if not marginal <= PLAN_MARGINAL_TOL:
        errors.append(f"plan misses its marginals by {marginal:.3g}")
    product = float(np.abs(d_s.reshape(-1, 1) - d_t.reshape(1, -1)).mean())
    recomputed = objective(d_s, d_t, plan)
    if not math.isfinite(value) or value < 0:
        errors.append(f"GW value {value} is negative or not finite")
    if not value <= product + PLAN_VALUE_SLACK:
        errors.append(f"GW value {value:.6g} exceeds the product plan's {product:.6g}")
    if not abs(value - recomputed) <= PLAN_VALUE_RTOL * max(1.0, abs(recomputed)):
        errors.append(f"GW value {value!r} != objective of its plan {recomputed!r}")
    return errors


def check_log(log) -> list[str]:
    """Fine-tuning log: every loss finite, last epoch's cls below the first's."""
    if not log:
        return ["empty fine-tuning log"]
    bad = [
        (e["epoch"], key) for e in log for key in ("cls", "aux", "gw", "total")
        if not math.isfinite(e[key])
    ]
    if bad:
        return [f"non-finite losses at (epoch, term) {bad[:3]}"]
    if not log[-1]["cls"] < log[0]["cls"]:
        return [f"cls did not fall: {log[0]['cls']:.4g} -> {log[-1]['cls']:.4g}"]
    return []
