#!/usr/bin/env python3
"""Cross-domain transfer ablation on the synthetic two-domain task.

Trains a coarse-label source tagger, few-shot samples the fine-label target
corpus, and fine-tunes four variants per seed: the full objective, each
auxiliary term ablated, and both ablated. Prints per-seed and mean test F1.
"""

import argparse
import json
import time
from dataclasses import replace

import numpy as np

from labeltransfer.data import greedy_sample
from labeltransfer.pipeline import TrainConfig, evaluate, finetune, train_source
from labeltransfer.synth import TRANSFER_CONFIG, TRANSFER_MIX, TRANSFER_SPEC, SynthSpec, generate


def build_spec(seed: int) -> SynthSpec:
    return SynthSpec(seed=seed, target_mixtures=TRANSFER_MIX, **TRANSFER_SPEC)


def build_config(seed: int) -> TrainConfig:
    return TrainConfig(seed=seed, **TRANSFER_CONFIG)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds (default 5)")
    parser.add_argument("--k", type=int, default=20, help="few-shot entities per type")
    parser.add_argument("--json-out", help="optional path for machine-readable results")
    args = parser.parse_args()

    results: dict[str, list[float]] = {}
    start = time.time()
    for seed in range(args.seeds):
        task = generate(build_spec(seed))
        base = build_config(seed)
        f0 = train_source(task.source_train, base)
        few = greedy_sample(task.target_train, args.k, seed=seed)
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
        print(f"seed {seed}: " + "  ".join(
            f"{name}={results[name][-1]:.4f}" for name in variants
        ))

    print(f"\nelapsed: {time.time() - start:.1f}s")
    print(f"{'variant':8s}  {'mean F1':>8s}  {'std':>8s}  per-seed")
    for name in ("full", "no_gw", "no_aux", "none"):
        vals = np.asarray(results[name])
        per_seed = " ".join(f"{v:.4f}" for v in vals)
        print(f"{name:8s}  {vals.mean():8.5f}  {vals.std():8.5f}  {per_seed}")

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)
        print(f"wrote {args.json_out}")


if __name__ == "__main__":
    main()
