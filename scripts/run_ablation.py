#!/usr/bin/env python3
"""Cross-domain transfer ablation on the synthetic two-domain task.

For each seed: generates the task, trains a coarse-label source tagger f0,
few-shot samples the fine-label target corpus, and fine-tunes four variants:
the full objective, each auxiliary term ablated, and both ablated. Prints
the seed's test F1 and one JSON line of sha256 hashes: of the task's four
corpora (their CoNLL text), of f0's flat parameter vector and, per variant,
of its flat parameter vector, source graph JSON and log, next to its F1.
Two trees give the same results when they print the same lines. Last come
the mean F1, the five margins the acceptance gate asserts non-negative, and
each margin as a paired per-seed difference (`paired`).

``--param P --values a,b,c`` sweeps P, a key of `pipeline.SWEEP_PARAMS`: each
value adds a model ``P=value``, ``full`` with P at that value, treated as the
variants are; its difference from ``full`` is reported paired.

``--json-out PATH`` writes the quality record: the per-seed F1 and hashes,
the means, the margins and their paired differences, the wall time and the
machine (`labeltransfer.cli.machine`). ``--save DIR`` writes every seed's f0
and models as checkpoints, ``DIR/<seed>-<model>.ckpt``. ``--against DIR``
loads such a run before any training and adds ``max_abs_delta`` to each
seed's hashes: per model, the largest absolute difference of its flat
parameter vector from the saved model's, whose blocks must match this run's
in name and shape. Bad input exits with status 2 and one stderr line, before
any work.

    python3 scripts/run_ablation.py --save before                 # on one tree
    python3 scripts/run_ablation.py --against before --json-out ABLATION_<n>.json  # on another
    python3 scripts/run_ablation.py --param lambda2 --values 0,0.01,0.04 --seeds 10
"""

import argparse
import hashlib
import json
import time
from itertools import zip_longest
from pathlib import Path

import numpy as np

from labeltransfer.cli import check_seeds, machine, one_line_errors, sweep_values
from labeltransfer.data import greedy_sample
from labeltransfer.errors import InputError
from labeltransfer.fusion import ModelParams
from labeltransfer.pipeline import Model, TrainConfig, evaluate, finetune, sweep_configs, train_source
from labeltransfer.synth import (
    TRANSFER_CONFIG, TRANSFER_MIX, TRANSFER_SPEC, SynthSpec, generate, transfer_variants,
)

# the gate's four variants, in `transfer_variants` order
VARIANTS = tuple(transfer_variants(TrainConfig()))
# the paired intervals' percentile bootstrap: its resamples and its generator's seed
RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def gate_margins(means: dict[str, float]) -> dict[str, float]:
    """The five margins the acceptance gate asserts non-negative."""
    return {
        "full-no_gw": means["full"] - means["no_gw"],
        "full-no_aux": means["full"] - means["no_aux"],
        "no_gw-none": means["no_gw"] - means["none"],
        "no_aux-none": means["no_aux"] - means["none"],
        "full-none-0.02": means["full"] - means["none"] - 0.02,
    }


def paired(diffs) -> dict:
    """Per-seed differences' mean, SE, 95 % bootstrap interval (None below 2 seeds), wins/ties/losses."""
    d = np.asarray(diffs, dtype=np.float64)
    stats = {"mean": float(d.mean()), "se": None, "ci95": None,
             "wins": int(np.sum(d > 0)), "ties": int(np.sum(d == 0)), "losses": int(np.sum(d < 0))}
    if len(d) >= 2:
        picks = np.random.default_rng(BOOTSTRAP_SEED).integers(0, len(d), size=(RESAMPLES, len(d)))
        low, high = np.percentile(d[picks].mean(axis=1), [2.5, 97.5])
        stats.update(se=float(d.std(ddof=1) / np.sqrt(len(d))), ci95=[float(low), float(high)])
    return stats


def variants(base, param, values) -> dict:
    """The gate's variants of ``base`` and, per sweep value, ``full`` with ``param`` at it, by name."""
    named = transfer_variants(base)
    if param is not None:
        named.update({f"{param}={value}": config
                      for value, config in zip(values, sweep_configs(param, values, base))})
    return named


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


def check_args(args) -> tuple[list, dict]:
    """(sweep values, ``--against`` run's models keyed (seed, name) or {}); InputError on bad input."""
    check_seeds(args.seeds)
    if args.k < 1:
        raise InputError(f"--k must be at least 1, got {args.k}")
    for flag, directory in (("--json-out", args.json_out and Path(args.json_out).resolve().parent),
                            ("--save", args.save)):
        if directory and not Path(directory).is_dir():
            raise InputError(f"{flag}: no directory {directory}")
    if (args.param is None) != (args.values is None):
        raise InputError("--param and --values go together")
    values = [] if args.values is None else sweep_values(args.values)
    config, saved = TrainConfig(**TRANSFER_CONFIG), {}
    names = variants(config, args.param, values)  # builds, so checks, every sweep value's config
    for seed in range(args.seeds if args.against else 0):
        for name in ("f0", *names):
            path = checkpoint(args.against, seed, name)
            model = Model.load(str(path))
            this_tree = ModelParams(d_h=config.d_h, d_p=config.d_p, n_types=model.params.n_types,
                                    n_tags=model.params.n_tags, encoder_mode=config.encoder_mode)
            shapes = this_tree.block_shapes(len(model.vocab), fused=model.kind == "fused")
            check_blocks(path, block_table(model), list(shapes.items()))
            saved[seed, name] = model
    return values, saved


def max_abs_delta(model, saved, path: Path) -> float:
    """Largest |difference| of the flat parameter vectors, once the block tables agree."""
    check_blocks(path, block_table(saved), block_table(model))
    return float(np.max(np.abs(model.params.flat()[0] - saved.params.flat()[0]), initial=0.0))


def run_seed(seed: int, k: int, param, values) -> tuple[dict, dict]:
    """(hashes and F1, models keyed by name) of one seed."""
    task = generate(SynthSpec(seed=seed, target_mixtures=TRANSFER_MIX, **TRANSFER_SPEC))
    base = TrainConfig(seed=seed, **TRANSFER_CONFIG)
    f0 = train_source(task.source_train, base)
    few = greedy_sample(task.target_train, k, seed=seed)
    hashes = {"seed": seed, "task": task_sha(task), "f0": params_sha(f0)}
    models = {"f0": f0}
    for name, cfg in variants(base, param, values).items():
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
    values, saved = check_args(args)
    per_seed_hashes = []
    start = time.time()
    for seed in range(args.seeds):
        hashes, models = run_seed(seed, args.k, args.param, values)
        names = list(models)[1:]  # the fine-tuned models, after f0
        if saved:
            hashes["max_abs_delta"] = {
                name: max_abs_delta(model, saved[seed, name], checkpoint(args.against, seed, name))
                for name, model in models.items()
            }
        if args.save:
            for name, model in models.items():
                model.save(str(checkpoint(args.save, seed, name)))
        per_seed_hashes.append(hashes)
        print(f"seed {seed}: " + "  ".join(f"{name}={hashes[name]['f1']:.4f}" for name in names))
        print(json.dumps(hashes))

    wall_s = time.time() - start
    results = {name: [hashes[name]["f1"] for hashes in per_seed_hashes] for name in names}
    width = max(8, *map(len, names))
    print(f"\nelapsed: {wall_s:.1f}s")
    print(f"{'variant':{width}s}  {'mean F1':>8s}  {'std':>8s}  per-seed")
    for name, vals in results.items():
        per_seed = " ".join(f"{v:.4f}" for v in vals)
        print(f"{name:{width}s}  {np.mean(vals):8.5f}  {np.std(vals):8.5f}  {per_seed}")
    means = {name: float(np.mean(vals)) for name, vals in results.items()}
    margins = gate_margins(means)
    print("gate margins: " + "  ".join(f"{name}={m:+.5f}" for name, m in margins.items()))

    f1 = {name: np.array(vals) for name, vals in results.items()}
    differences = gate_margins(f1)
    differences.update({f"{name}-full": f1[name] - f1["full"] for name in names[len(VARIANTS):]})
    paired_stats = {name: paired(d) for name, d in differences.items()}
    width = max(map(len, paired_stats))
    print("paired per-seed differences: mean, SE, 95% bootstrap interval, wins/ties/losses")
    for name, st in paired_stats.items():
        se, ci = ("-", "-") if st["se"] is None else (
            f"{st['se']:.5f}", "[{:+.5f}, {:+.5f}]".format(*st["ci95"]))
        print(f"  {name:{width}s}  {st['mean']:+.5f}  {se}  {ci}  "
              f"{st['wins']}/{st['ties']}/{st['losses']}")

    if args.json_out:
        record = {"seeds": args.seeds, "k": args.k, "per_seed": results, "means": means,
                  "margins": margins, "paired": paired_stats, "hashes": per_seed_hashes,
                  "wall_s": wall_s, "machine": machine(Path(__file__).resolve().parents[1])}
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
    parser.add_argument("--param", help="sweep this key of pipeline.SWEEP_PARAMS")
    parser.add_argument("--values", help="comma-separated values of --param")
    args = parser.parse_args(argv)
    with one_line_errors("run_ablation"):
        run(args)


if __name__ == "__main__":
    main()
