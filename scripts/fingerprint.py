#!/usr/bin/env python3
"""Fingerprint one seed of the transfer experiment, to show a refactor changed no result.

Runs the acceptance gate's transfer task at --seed: trains f0, then
fine-tunes and evaluates the four variants. Prints one JSON line with the
sha256 of f0's parameter arrays and, per variant, the sha256 of its
parameter arrays, of its source graph's JSON and of its log, plus its test
F1. Two trees give the same results when they print the same line.
"""

import argparse
import hashlib
import json
from dataclasses import replace

from labeltransfer.data import greedy_sample
from labeltransfer.pipeline import TrainConfig, evaluate, finetune, train_source
from labeltransfer.synth import TRANSFER_CONFIG, TRANSFER_MIX, TRANSFER_SPEC, SynthSpec, generate


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def params_sha(model) -> str:
    return sha(b"".join(t.data.tobytes() for _, t in model.params.named_tensors()))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args().seed
    task = generate(SynthSpec(seed=seed, target_mixtures=TRANSFER_MIX, **TRANSFER_SPEC))
    base = TrainConfig(seed=seed, **TRANSFER_CONFIG)
    f0 = train_source(task.source_train, base)
    few = greedy_sample(task.target_train, 20, seed=seed)
    out = {"seed": seed, "f0": params_sha(f0)}
    for name, flags in (("full", {}), ("no_gw", {"ablate_gw": True}),
                        ("no_aux", {"ablate_aux": True}),
                        ("none", {"ablate_aux": True, "ablate_gw": True})):
        model, log = finetune(f0, few, replace(base, **flags))
        out[name] = {
            "params": params_sha(model),
            "source_graph": sha(model.source_graph.to_json().encode()),
            "log": sha(json.dumps(log).encode()),
            "f1": evaluate(model, task.target_test)[2],
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
