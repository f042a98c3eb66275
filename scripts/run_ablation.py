#!/usr/bin/env python3
"""Cross-domain transfer ablation on the synthetic two-domain task.

For each seed: generates the task, trains a coarse-label source tagger f0,
few-shot samples the fine-label target corpus, and fine-tunes four variants:
the full objective, each auxiliary term ablated, and both ablated. Prints
the seed's test F1 and one JSON line of sha256 hashes: of the task's four
corpora (their CoNLL text), of f0's flat parameter vector and, per variant,
of its flat parameter vector, source graph JSON and log, next to its F1.
Two trees give the same results when they print the same lines. Last come
the mean F1 and the five margins the acceptance gate asserts non-negative.

``--json-out PATH`` writes the quality record: the per-seed F1 and hashes,
the four means, the five margins, the wall time and the machine
(`labeltransfer.cli.machine`). ``--save DIR`` writes every seed's f0 and
variants as checkpoints, ``DIR/<seed>-<model>.ckpt``. ``--against DIR``
loads such a run before any training and adds ``max_abs_delta`` to each
seed's hashes: per model, the largest absolute difference of its flat
parameter vector from the saved model's, whose blocks must match this run's
in name and shape. Bad input exits with status 2 and one stderr line, before
any work.

    python3 scripts/run_ablation.py --save before                 # on one tree
    python3 scripts/run_ablation.py --against before --json-out ABLATION_<n>.json  # on another
"""

import argparse
import hashlib
import json
import time
from itertools import zip_longest
from pathlib import Path

import numpy as np

from labeltransfer.cli import check_seeds, machine, one_line_errors
from labeltransfer.data import greedy_sample
from labeltransfer.errors import InputError
from labeltransfer.fusion import ModelParams
from labeltransfer.pipeline import Model, TrainConfig, evaluate, finetune, train_source
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
    return sha(model.params.flat()[0].tobytes())


def checkpoint(directory: str, seed: int, name: str) -> Path:
    return Path(directory) / f"{seed}-{name}.ckpt"


def block_table(model) -> list:
    """(name, shape) of each of the model's parameter blocks, in table order."""
    return [(name, t.data.shape) for name, t in model.params.named_tensors()]


def check_blocks(path: Path, saved: list, blocks: list):
    """InputError naming ``path`` and the first block where its table ``saved`` differs from ``blocks``."""
    for k, (there, here) in enumerate(zip_longest(saved, blocks)):
        if there != here:
            raise InputError(f"{path}: parameter block {k} is {there}, not {here} as in this run")


def check_args(args) -> dict:
    """The ``--against`` run's models keyed (seed, name), or {}; InputError on any bad input."""
    check_seeds(args.seeds)
    if args.k < 1:
        raise InputError(f"--k must be at least 1, got {args.k}")
    for flag, directory in (("--json-out", args.json_out and Path(args.json_out).resolve().parent),
                            ("--save", args.save)):
        if directory and not Path(directory).is_dir():
            raise InputError(f"{flag}: no directory {directory}")
    config, saved = TrainConfig(**TRANSFER_CONFIG), {}
    for seed in range(args.seeds if args.against else 0):
        for name in ("f0", *VARIANTS):
            path = checkpoint(args.against, seed, name)
            model = Model.load(str(path))
            this_tree = ModelParams(d_h=config.d_h, d_p=config.d_p, n_types=model.params.n_types,
                                    n_tags=model.params.n_tags, encoder_mode=config.encoder_mode)
            shapes = this_tree.block_shapes(len(model.vocab), fused=model.kind == "fused")
            check_blocks(path, block_table(model), list(shapes.items()))
            saved[seed, name] = model
    return saved


def max_abs_delta(model, saved, path: Path) -> float:
    """Largest |difference| of the flat parameter vectors, once the block tables agree."""
    check_blocks(path, block_table(saved), block_table(model))
    return float(np.max(np.abs(model.params.flat()[0] - saved.params.flat()[0]), initial=0.0))


def run_seed(seed: int, k: int) -> tuple[dict, dict]:
    """(hashes and F1, models keyed by name) of one seed."""
    task = generate(SynthSpec(seed=seed, target_mixtures=TRANSFER_MIX, **TRANSFER_SPEC))
    base = TrainConfig(seed=seed, **TRANSFER_CONFIG)
    f0 = train_source(task.source_train, base)
    few = greedy_sample(task.target_train, k, seed=seed)
    hashes = {"seed": seed, "task": task_sha(task), "f0": params_sha(f0)}
    models = {"f0": f0}
    for name, cfg in transfer_variants(base).items():
        model, log = finetune(f0, few, cfg)
        hashes[name] = {
            "params": params_sha(model),
            "source_graph": sha(model.source_graph.to_json().encode()),
            "log": sha(json.dumps(log).encode()),
            "f1": evaluate(model, task.target_test)[2],
        }
        models[name] = model
    return hashes, models


def run(args):
    saved = check_args(args)
    per_seed_hashes = []
    start = time.time()
    for seed in range(args.seeds):
        hashes, models = run_seed(seed, args.k)
        if saved:
            hashes["max_abs_delta"] = {
                name: max_abs_delta(model, saved[seed, name], checkpoint(args.against, seed, name))
                for name, model in models.items()
            }
        if args.save:
            for name, model in models.items():
                model.save(str(checkpoint(args.save, seed, name)))
        per_seed_hashes.append(hashes)
        print(f"seed {seed}: " + "  ".join(f"{name}={hashes[name]['f1']:.4f}" for name in VARIANTS))
        print(json.dumps(hashes))

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
    parser.add_argument("--save", metavar="DIR", help="write every model here as checkpoints")
    parser.add_argument("--against", metavar="DIR", help="report max |delta| against a saved run")
    args = parser.parse_args(argv)
    with one_line_errors("run_ablation"):
        run(args)


if __name__ == "__main__":
    main()
