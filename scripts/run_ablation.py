#!/usr/bin/env python3
"""Cross-domain transfer ablation on the synthetic two-domain task.

For each seed: generates the task, trains a coarse-label source tagger f0,
few-shot samples the fine-label target corpus, and fine-tunes four variants:
the full objective, each auxiliary term ablated, and both ablated. Prints
the seed's test F1 and one JSON line: the sha256 of the task's four corpora
(their CoNLL text) and of f0's parameters and, per variant, of its
parameters, source graph JSON and log, plus its F1. Two trees give the same
results when they print the same lines. Last come the mean F1 and the five
margins the acceptance gate asserts non-negative.

``--json-out PATH`` writes the quality record: the per-seed F1 and hashes,
the four means, the five margins, the wall time and the machine
(`labeltransfer.cli.machine`). ``--save PATH.npz`` writes every parameter
array of f0 and of the four variants, keyed ``<seed>/<model>/<param>``.
``--against PATH.npz`` adds ``max_abs_delta`` to each seed's hashes: per
model, the largest absolute difference of its parameters from the saved
run, which measures a change that moves results by rounding only. Bad input
exits with status 2 and one stderr line, before any work.

    python3 scripts/run_ablation.py --save before.npz                 # on one tree
    python3 scripts/run_ablation.py --against before.npz --json-out ABLATION_<n>.json  # on another
"""

import argparse
import hashlib
import json
import time
import zipfile
from pathlib import Path

import numpy as np

from labeltransfer.cli import check_seeds, machine, one_line_errors
from labeltransfer.data import greedy_sample
from labeltransfer.errors import InputError
from labeltransfer.pipeline import TrainConfig, evaluate, finetune, train_source
from labeltransfer.synth import (
    TRANSFER_CONFIG, TRANSFER_MIX, TRANSFER_SPEC, SynthSpec, generate, transfer_variants,
)

# the gate's four variants, in `transfer_variants` order
VARIANTS = tuple(transfer_variants(TrainConfig()))


def gate_margins(means: dict[str, float]) -> dict[str, float]:
    """The five margins the acceptance gate asserts non-negative."""
    return {
        "full-no_gw": means["full"] - means["no_gw"],
        "full-no_aux": means["full"] - means["no_aux"],
        "no_gw-none": means["no_gw"] - means["none"],
        "no_aux-none": means["no_aux"] - means["none"],
        "full-none-0.02": means["full"] - means["none"] - 0.02,
    }


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def task_sha(task) -> str:
    parts = (task.source_train, task.source_test, task.target_train, task.target_test)
    return sha("".join(corpus.to_conll() for corpus in parts).encode())


def params_sha(model) -> str:
    return sha(b"".join(t.data.tobytes() for _, t in model.params.named_tensors()))


def param_arrays(prefix: str, model) -> dict:
    return {f"{prefix}{pname}": t.data for pname, t in model.params.named_tensors()}


def open_saved(path: str):
    """The saved run at ``path``, opened as an npz without unpickling."""
    try:
        saved = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):  # neither npy nor npz, or truncated
        saved = None
    if not isinstance(saved, np.lib.npyio.NpzFile):
        raise InputError(f"--against {path} is not an npz file")
    return saved


def check_args(args):
    """The opened ``--against`` run or None; InputError on any bad input."""
    check_seeds(args.seeds)
    if args.k < 1:
        raise InputError(f"--k must be at least 1, got {args.k}")
    for flag, path in (("--json-out", args.json_out), ("--save", args.save)):
        if path and not Path(path).resolve().parent.is_dir():
            raise InputError(f"{flag}: no directory for {path}")
    return open_saved(args.against) if args.against else None


def max_abs_delta(arrays: dict, saved, prefix: str) -> float:
    """Largest |difference| over the blocks under ``prefix``; InputError names the first that differs."""
    keys = [k for k in arrays if k.startswith(prefix)]
    saved_keys = set(saved.files)
    delta = 0.0
    for key in keys:
        if key not in saved_keys:
            raise InputError(f"saved run has no block {key}")
        old = saved[key]
        if old.shape != arrays[key].shape:
            raise InputError(f"block {key} has shape {arrays[key].shape}, {old.shape} in the saved run")
        delta = max(delta, float(np.max(np.abs(arrays[key] - old), initial=0.0)))
    extra = sorted(k for k in saved_keys - set(keys) if k.startswith(prefix))
    if extra:
        raise InputError(f"saved run has block {extra[0]}, which this run lacks")
    return delta


def run_seed(seed: int, k: int) -> tuple[dict, dict]:
    """(hashes and F1, parameter arrays keyed ``<seed>/<model>/<param>``) of one seed."""
    task = generate(SynthSpec(seed=seed, target_mixtures=TRANSFER_MIX, **TRANSFER_SPEC))
    base = TrainConfig(seed=seed, **TRANSFER_CONFIG)
    f0 = train_source(task.source_train, base)
    few = greedy_sample(task.target_train, k, seed=seed)
    hashes = {"seed": seed, "task": task_sha(task), "f0": params_sha(f0)}
    arrays = param_arrays(f"{seed}/f0/", f0)
    for name, cfg in transfer_variants(base).items():
        model, log = finetune(f0, few, cfg)
        hashes[name] = {
            "params": params_sha(model),
            "source_graph": sha(model.source_graph.to_json().encode()),
            "log": sha(json.dumps(log).encode()),
            "f1": evaluate(model, task.target_test)[2],
        }
        arrays.update(param_arrays(f"{seed}/{name}/", model))
    return hashes, arrays


def run(args):
    saved = check_args(args)
    per_seed_hashes = []
    everything = {}
    start = time.time()
    for seed in range(args.seeds):
        hashes, arrays = run_seed(seed, args.k)
        if saved is not None:
            hashes["max_abs_delta"] = {
                model: max_abs_delta(arrays, saved, f"{seed}/{model}/") for model in ("f0", *VARIANTS)
            }
        if args.save:
            everything.update(arrays)
        per_seed_hashes.append(hashes)
        print(f"seed {seed}: " + "  ".join(f"{name}={hashes[name]['f1']:.4f}" for name in VARIANTS))
        print(json.dumps(hashes))
    if saved is not None:
        saved.close()

    wall_s = time.time() - start
    results = {name: [hashes[name]["f1"] for hashes in per_seed_hashes] for name in VARIANTS}
    print(f"\nelapsed: {wall_s:.1f}s")
    print(f"{'variant':8s}  {'mean F1':>8s}  {'std':>8s}  per-seed")
    for name, vals in results.items():
        per_seed = " ".join(f"{v:.4f}" for v in vals)
        print(f"{name:8s}  {np.mean(vals):8.5f}  {np.std(vals):8.5f}  {per_seed}")
    means = {name: float(np.mean(vals)) for name, vals in results.items()}
    margins = gate_margins(means)
    print("gate margins: " + "  ".join(f"{name}={m:+.5f}" for name, m in margins.items()))

    if args.save:
        with open(args.save, "wb") as fh:  # np.savez would add ".npz" to a path without it
            np.savez(fh, **everything)
        print(f"wrote {args.save}")
    if args.json_out:
        record = {"seeds": args.seeds, "k": args.k, "per_seed": results, "means": means,
                  "margins": margins, "hashes": per_seed_hashes, "wall_s": wall_s,
                  "machine": machine(Path(__file__).resolve().parents[1])}
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {args.json_out}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=5, help="run seeds 0..N-1 (default 5)")
    parser.add_argument("--k", type=int, default=20, help="few-shot entities per type")
    parser.add_argument("--json-out", metavar="PATH", help="write the quality record here")
    parser.add_argument("--save", metavar="PATH.npz", help="write every parameter array here")
    parser.add_argument("--against", metavar="PATH.npz",
                        help="report max |delta| per seed and model against a saved run")
    args = parser.parse_args(argv)
    with one_line_errors("run_ablation"):
        run(args)


if __name__ == "__main__":
    main()
