#!/usr/bin/env python3
"""Fingerprint one seed of the transfer experiment, to show a refactor changed no result.

Runs the acceptance gate's transfer task at --seed: trains f0, then
fine-tunes and evaluates the four variants. Prints one JSON line with the
sha256 of the task's four generated corpora (their CoNLL text), of f0's
parameter arrays and, per variant, the sha256 of its parameter arrays, of
its source graph's JSON and of its log, plus its test F1. Two trees give the
same results when they print the same line.

``--save PATH.npz`` also writes every parameter array of f0 and of the four
variants. ``--against PATH.npz`` adds ``max_abs_delta`` to the line: per
model, the largest absolute difference of its parameters from the saved run,
which measures a change that moves results by rounding only.

    python3 scripts/fingerprint.py --seed 0 --save before.npz   # on one tree
    python3 scripts/fingerprint.py --seed 0 --against before.npz  # on another
"""

import argparse
import hashlib
import json

import numpy as np

from labeltransfer.data import greedy_sample
from labeltransfer.pipeline import TrainConfig, evaluate, finetune, train_source
from labeltransfer.synth import (
    TRANSFER_CONFIG, TRANSFER_MIX, TRANSFER_SPEC, SynthSpec, generate, transfer_variants,
)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def task_sha(task) -> str:
    parts = (task.source_train, task.source_test, task.target_train, task.target_test)
    return sha("".join(corpus.to_conll() for corpus in parts).encode())


def params_sha(model) -> str:
    return sha(b"".join(t.data.tobytes() for _, t in model.params.named_tensors()))


def param_arrays(name, model) -> dict:
    return {f"{name}/{pname}": t.data for pname, t in model.params.named_tensors()}


def max_abs_delta(arrays: dict, saved, name: str) -> float:
    """Largest |difference| over the parameters of model ``name``."""
    keys = sorted(k for k in arrays if k.startswith(name + "/"))
    if keys != sorted(k for k in saved.files if k.startswith(name + "/")):
        raise SystemExit(f"fingerprint: saved run has other parameters for {name!r}")
    return max(float(np.max(np.abs(arrays[k] - saved[k]), initial=0.0)) for k in keys)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--save", metavar="PATH.npz", help="write every parameter array here")
    parser.add_argument("--against", metavar="PATH.npz", help="report max |delta| against a saved run")
    args = parser.parse_args()
    seed = args.seed
    task = generate(SynthSpec(seed=seed, target_mixtures=TRANSFER_MIX, **TRANSFER_SPEC))
    base = TrainConfig(seed=seed, **TRANSFER_CONFIG)
    f0 = train_source(task.source_train, base)
    few = greedy_sample(task.target_train, 20, seed=seed)
    out = {"seed": seed, "task": task_sha(task), "f0": params_sha(f0)}
    arrays = param_arrays("f0", f0)
    for name, config in transfer_variants(base).items():
        model, log = finetune(f0, few, config)
        out[name] = {
            "params": params_sha(model),
            "source_graph": sha(model.source_graph.to_json().encode()),
            "log": sha(json.dumps(log).encode()),
            "f1": evaluate(model, task.target_test)[2],
        }
        arrays.update(param_arrays(name, model))
    if args.save:
        np.savez(args.save, **arrays)
    if args.against:
        with np.load(args.against) as saved:
            models = ("f0", "full", "no_gw", "no_aux", "none")
            out["max_abs_delta"] = {m: max_abs_delta(arrays, saved, m) for m in models}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
