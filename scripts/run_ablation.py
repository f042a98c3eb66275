#!/usr/bin/env python3
"""Cross-domain transfer ablation on the synthetic two-domain task.

Trains a coarse-label source tagger, few-shot samples the fine-label target
corpus, and fine-tunes four variants per seed: the full objective, each
auxiliary term ablated, and both ablated. Prints per-seed and mean test F1
and the five margins the acceptance gate asserts non-negative.

``--json-out PATH`` also writes a quality record: the per-seed F1, the four
means, the five margins, the wall time, and the machine (``nproc``, numpy,
python and ``git rev-parse HEAD``). Bad input exits with status 2 and one
stderr line, before any work.
"""

import argparse
import json
import os
import platform
import subprocess
import time

import numpy as np

from labeltransfer.cli import check_seeds, one_line_errors
from labeltransfer.data import greedy_sample
from labeltransfer.errors import InputError
from labeltransfer.pipeline import TrainConfig, evaluate, finetune, train_source
from labeltransfer.synth import (
    TRANSFER_CONFIG, TRANSFER_MIX, TRANSFER_SPEC, SynthSpec, generate, transfer_variants,
)


def build_spec(seed: int) -> SynthSpec:
    return SynthSpec(seed=seed, target_mixtures=TRANSFER_MIX, **TRANSFER_SPEC)


def build_config(seed: int) -> TrainConfig:
    return TrainConfig(seed=seed, **TRANSFER_CONFIG)


def gate_margins(means: dict[str, float]) -> dict[str, float]:
    """The five margins the acceptance gate asserts non-negative."""
    return {
        "full-no_gw": means["full"] - means["no_gw"],
        "full-no_aux": means["full"] - means["no_aux"],
        "no_gw-none": means["no_gw"] - means["none"],
        "no_aux-none": means["no_aux"] - means["none"],
        "full-none-0.02": means["full"] - means["none"] - 0.02,
    }


def machine() -> dict:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True, cwd=os.path.dirname(os.path.abspath(__file__)))
        head = head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        head = None
    return {"nproc": os.cpu_count(), "numpy": np.__version__,
            "python": platform.python_version(), "git_head": head}


def run(args):
    check_seeds(args.seeds)
    if args.k < 1:
        raise InputError(f"--k must be at least 1, got {args.k}")
    results: dict[str, list[float]] = {}
    start = time.time()
    for seed in range(args.seeds):
        task = generate(build_spec(seed))
        base = build_config(seed)
        f0 = train_source(task.source_train, base)
        few = greedy_sample(task.target_train, args.k, seed=seed)
        variants = transfer_variants(base)
        for name, cfg in variants.items():
            model, _ = finetune(f0, few, cfg)
            _, _, f1 = evaluate(model, task.target_test)
            results.setdefault(name, []).append(f1)
        print(f"seed {seed}: " + "  ".join(
            f"{name}={results[name][-1]:.4f}" for name in variants
        ))

    wall_s = time.time() - start
    print(f"\nelapsed: {wall_s:.1f}s")
    print(f"{'variant':8s}  {'mean F1':>8s}  {'std':>8s}  per-seed")
    for name, vals in results.items():
        per_seed = " ".join(f"{v:.4f}" for v in vals)
        print(f"{name:8s}  {np.mean(vals):8.5f}  {np.std(vals):8.5f}  {per_seed}")
    means = {name: float(np.mean(vals)) for name, vals in results.items()}
    margins = gate_margins(means)
    print("gate margins: " + "  ".join(f"{name}={m:+.5f}" for name, m in margins.items()))

    if args.json_out:
        record = {"seeds": args.seeds, "k": args.k, "per_seed": results, "means": means,
                  "margins": margins, "wall_s": wall_s, "machine": machine()}
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {args.json_out}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds (default 5)")
    parser.add_argument("--k", type=int, default=20, help="few-shot entities per type")
    parser.add_argument("--json-out", help="optional path for machine-readable results")
    args = parser.parse_args(argv)
    with one_line_errors("run_ablation"):
        run(args)


if __name__ == "__main__":
    main()
